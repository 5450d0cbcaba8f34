"""Identifier collection, origin classification, and tokenization.

The renamer needs to know what may be renamed (names declared inside the
project) and what must stay intact (standard-library and imported names).
Resolution is name-based: a use is attributed to the project entry of the
same name regardless of scope, which is exactly the granularity the rename
dictionary operates at. Multiple declarations of one name (shadowing,
cross-file helpers) accumulate on a single entry.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace
from importlib import resources

from .errors import UnresolvedIdentifier
# The kinds and the primitive type names are the node schema's; this module
# re-exports them.
from .nodes import (  # noqa: F401
    CLASS,
    DECL,
    FUNCTION,
    PRIMITIVE_TYPES,
    VARIABLE,
    MethodDecl,
    SourceFile,
    Span,
    identifier_sites,
)

PROJECT = "project"
EXTERNAL = "external"


@dataclass(frozen=True)
class IdentifierEntry:
    name: str
    kind: str  # variable | function | class
    decl_sites: tuple[Span, ...]
    use_sites: tuple[Span, ...]
    origin: str  # project | external


@dataclass(frozen=True)
class IdentifierTable:
    entries: dict[str, IdentifierEntry]
    scope: str  # project root path ("" when unknown)
    diagnostics: tuple[UnresolvedIdentifier, ...] = ()

    def project_names(self) -> list[str]:
        return sorted(n for n, e in self.entries.items() if e.origin == PROJECT)


def collect_identifiers(
    project: list[SourceFile], focus: MethodDecl | None = None
) -> IdentifierTable:
    """Build the identifier table for a parsed project.

    With `focus`, the table is restricted to names occurring in that method,
    but decl/use sites are still resolved project-wide.
    """
    wanted = None if focus is None else {site[0] for site in identifier_sites(focus)}
    decls: list[tuple[str, str, Span]] = []
    uses: list[tuple[str, str, Span]] = []
    for src in project:
        for name, role, kind, node in identifier_sites(src):
            if wanted is None or name in wanted:
                (decls if role == DECL else uses).append((name, kind, node.span))

    order: list[str] = []
    kinds: dict[str, str] = {}
    decl_sites: dict[str, list[Span]] = {}
    use_sites: dict[str, list[Span]] = {}
    for sites, occurrences in ((decl_sites, decls), (use_sites, uses)):
        for name, kind, span in occurrences:
            if name not in kinds:
                kinds[name] = kind
                order.append(name)
            sites.setdefault(name, []).append(span)

    diagnostics: list[UnresolvedIdentifier] = []
    import_tails = {
        imp.name.rsplit(".", 1)[-1] for src in project for imp in src.imports
    }
    entries: dict[str, IdentifierEntry] = {}
    for name in order:
        decls = tuple(decl_sites.get(name, ()))
        uses = tuple(use_sites.get(name, ()))
        origin = PROJECT if decls else EXTERNAL
        entries[name] = IdentifierEntry(name, kinds[name], decls, uses, origin)
        if not decls and name not in import_tails and uses:
            diagnostics.append(UnresolvedIdentifier(name, uses[0]))

    scope = _common_root(project)
    return IdentifierTable(entries, scope, tuple(diagnostics))


def classify_origin(
    table: IdentifierTable, imports: list[str], stdlib_index: frozenset[str]
) -> IdentifierTable:
    """Finalize origins and drop diagnostics the stdlib index or imports explain.

    Origin is `project` iff the name has a declaration site inside the
    project; everything else is `external` (including names that are neither
    declared nor explained, which stay flagged as unresolved). Idempotent.
    """
    import_tails = {imp.rstrip(".*").rsplit(".", 1)[-1] for imp in imports}
    entries: dict[str, IdentifierEntry] = {}
    diagnostics: list[UnresolvedIdentifier] = []
    for name, entry in table.entries.items():
        origin = PROJECT if entry.decl_sites else EXTERNAL
        entries[name] = replace(entry, origin=origin)
        if (
            origin == EXTERNAL
            and name not in stdlib_index
            and name not in import_tails
            and entry.use_sites
        ):
            diagnostics.append(UnresolvedIdentifier(name, entry.use_sites[0]))
    return IdentifierTable(entries, table.scope, tuple(diagnostics))


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"[A-Z]{2,}(?=[A-Z][a-z]|[^A-Za-z]|$)|[A-Z][a-z0-9]*|[a-z0-9]+")

CAMEL = "camel"
SNAKE = "snake"
PASCAL = "pascal"


def tokenize_identifier(name: str) -> list[str]:
    """Split a camelCase or snake_case identifier into lowercase words.

    Acronym runs (two or more consecutive capitals) stay one token:
    parseXMLHeader -> [parse, xml, header].
    """
    words: list[str] = []
    for part in name.split("_"):
        words.extend(m.group(0).lower() for m in _WORD_RE.finditer(part))
    return words or [name.lower()]


def convention(name: str) -> str:
    """The identifier's casing convention, used to reassemble after renaming."""
    if "_" in name:
        return SNAKE
    if name[:1].isupper():
        return PASCAL
    return CAMEL


# ---------------------------------------------------------------------------
# Bundled standard-library index
# ---------------------------------------------------------------------------


def load_stdlib_index(path: str | None = None) -> frozenset[str]:
    """Load the stdlib name list: one name per line, `#` comments allowed.

    Resolution order: explicit path, VMORPH_STDLIB_INDEX, bundled list.
    """
    if path is None:
        path = os.environ.get("VMORPH_STDLIB_INDEX")
    if path is not None:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = resources.files("vmorph.data").joinpath("stdlib_index.txt").read_text("utf-8")
    names = set()
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            names.add(line)
    return frozenset(names)


def project_imports(project: list[SourceFile]) -> list[str]:
    """Flatten a project's import declarations for classify_origin."""
    out = []
    for src in project:
        for imp in src.imports:
            out.append(imp.name + (".*" if imp.wildcard else ""))
    return out


def _common_root(project: list[SourceFile]) -> str:
    files = [src.span.file for src in project if not src.span.is_synthetic()]
    if not files:
        return ""
    if len(files) == 1:
        return os.path.dirname(files[0])
    return os.path.commonpath(files) if all(files) else ""
