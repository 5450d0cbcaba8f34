"""Identifier collection, origin classification, and tokenization.

The renamer needs to know what may be renamed (names declared inside the
project), what must stay intact (standard-library and imported names), and
which names a new name must not take. One walk over every project file gives
all three: the entries, each with its declaration and use sites in every
file, and the set of every identifier in the project, which a rename plan
checks its new names against. `classify_origin` alone decides each entry's
origin and which undeclared names to report.

Resolution is name-based: a use is attributed to the project entry of the
same name regardless of scope, which is exactly the granularity the rename
dictionary operates at. Multiple declarations of one name (shadowing,
cross-file helpers) accumulate on a single entry.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass, replace

from .errors import UnresolvedIdentifier, data_lines
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
    names_in,
)

PROJECT = "project"
EXTERNAL = "external"


@dataclass(frozen=True)
class IdentifierEntry:
    name: str
    kind: str  # variable | function | class
    decl_sites: tuple[Span, ...]
    use_sites: tuple[Span, ...]
    origin: str = ""  # project | external; "" until classify_origin


@dataclass(frozen=True)
class IdentifierTable:
    entries: dict[str, IdentifierEntry]
    names: frozenset[str]  # every identifier in the project, not only the entries'
    diagnostics: tuple[UnresolvedIdentifier, ...] = ()

    def project_names(self) -> list[str]:
        return sorted(n for n, e in self.entries.items() if e.origin == PROJECT)


def collect_identifiers(
    project: list[SourceFile], focus: MethodDecl | None = None
) -> IdentifierTable:
    """Build the unclassified identifier table for a parsed project.

    With `focus`, the entries are restricted to names occurring in that
    method, but decl/use sites are still resolved project-wide, and `names`
    still holds every identifier of the project.
    """
    wanted = None if focus is None else names_in(focus)
    names: set[str] = set()
    kinds: dict[str, str] = {}
    decl_sites: dict[str, list[Span]] = {}
    use_sites: dict[str, list[Span]] = {}
    uses: list[tuple[str, str, Span]] = []
    for src in project:
        for name, role, kind, node in identifier_sites(src):
            names.add(name)
            if wanted is None or name in wanted:
                if role == DECL:
                    kinds.setdefault(name, kind)
                    decl_sites.setdefault(name, []).append(node.span)
                else:
                    uses.append((name, kind, node.span))
    for name, kind, span in uses:  # a kind is the first declaration's, else the first use's
        kinds.setdefault(name, kind)
        use_sites.setdefault(name, []).append(span)
    entries = {name: IdentifierEntry(name, kind, tuple(decl_sites.get(name, ())),
                                     tuple(use_sites.get(name, ())))
               for name, kind in kinds.items()}
    return IdentifierTable(entries, frozenset(names))


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
    return IdentifierTable(entries, table.names, tuple(diagnostics))


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
    return frozenset(line for _, line in data_lines("stdlib_index.txt", path))


def project_imports(project: list[SourceFile]) -> list[str]:
    """Flatten a project's import declarations for classify_origin."""
    out = []
    for src in project:
        for imp in src.imports:
            out.append(imp.name + (".*" if imp.wildcard else ""))
    return out

