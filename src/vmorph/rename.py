"""Project-wide synonym renaming and token-level patch recovery.

A rename plan maps every project-declared identifier to a synonym-assembled
replacement, recorded in a bidirectional dictionary that is persisted as JSON
so patches written against the renamed code can be translated back. External
(library) names are never touched.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from typing import Callable, Optional

from .errors import ExhaustedCandidates, StaleDictionary
from .identifiers import (
    CAMEL,
    PASCAL,
    SNAKE,
    IdentifierTable,
    convention,
    tokenize_identifier,
)
from .lexer import IDENT, tokenize
from .nodes import SourceFile, rename_identifiers

RESERVED_WORDS = frozenset(
    """abstract assert boolean break byte case catch char class const continue
    default do double else enum extends final finally float for goto if
    implements import instanceof int interface long native new package private
    protected public return short static strictfp super switch synchronized
    this throw throws transient try void volatile while true false null var
    record yield sealed permits""".split()
)

@dataclass(frozen=True)
class SynonymLexicon:
    """word -> ranked synonym candidates, all lowercase, best first."""

    words: dict[str, tuple[str, ...]]

    def __post_init__(self):
        for word, candidates in self.words.items():
            if word != word.lower():
                raise ValueError(f"lexicon word {word!r} is not lowercase")
            if not candidates:
                raise ValueError(f"lexicon word {word!r} has no candidates")
            if candidates[0] == word:
                raise ValueError(f"lexicon word {word!r} maps to itself first")
            for c in candidates:
                if c != c.lower():
                    raise ValueError(f"candidate {c!r} for {word!r} is not lowercase")

    @classmethod
    def load(cls, path: str | None = None) -> "SynonymLexicon":
        """Load a TSV lexicon (word<TAB>syn,syn,...); bundled file by default."""
        if path is not None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        else:
            text = resources.files("vmorph.data").joinpath("synonyms.tsv").read_text("utf-8")
        words: dict[str, tuple[str, ...]] = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.rstrip()
            if not line or line.startswith("#"):
                continue
            if "\t" not in line:
                raise ValueError(f"lexicon line {lineno}: expected word<TAB>synonyms")
            word, _, raw = line.partition("\t")
            candidates = tuple(s.strip() for s in raw.split(",") if s.strip())
            words[word.strip()] = candidates
        return cls(words)


def propose_synonyms(tokens: list[str], lexicon: SynonymLexicon) -> list[list[str]]:
    """One ranked candidate list per token; unknown tokens pass through."""
    return [list(lexicon.words.get(tok, (tok,))) for tok in tokens]


def assemble_identifier(tokens: list[str], convention: str) -> str:
    if not tokens:
        raise ValueError("cannot assemble an identifier from no tokens")
    if convention == SNAKE:
        return "_".join(tokens)
    if convention == CAMEL:
        return tokens[0] + "".join(t.capitalize() for t in tokens[1:])
    if convention == PASCAL:
        return "".join(t.capitalize() for t in tokens)
    raise ValueError(f"unknown convention {convention!r}")


@dataclass(frozen=True)
class RenameDictionary:
    forward: dict[str, str]
    backward: dict[str, str]
    kinds: dict[str, str]

    @classmethod
    def build(cls, forward: dict[str, str], kinds: dict[str, str]) -> "RenameDictionary":
        backward: dict[str, str] = {}
        for orig, new in forward.items():
            if new in RESERVED_WORDS:
                raise ValueError(f"new identifier {new!r} is a reserved word")
            if new in backward:
                raise ValueError(f"forward map is not injective at {new!r}")
            backward[new] = orig
        return cls(dict(forward), backward, dict(kinds))

    def to_json_dict(self) -> dict:
        return {
            "forward": dict(sorted(self.forward.items())),
            "kinds": dict(sorted(self.kinds.items())),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def loads(cls, text: str) -> "RenameDictionary":
        data = json.loads(text)
        return cls.build(data["forward"], data.get("kinds", {}))

    def inverted(self) -> "RenameDictionary":
        kinds = {new: self.kinds.get(orig, "variable") for orig, new in self.forward.items()}
        return RenameDictionary(dict(self.backward), dict(self.forward), kinds)


ReviewHook = Callable[[str, str], Optional[str]]


def build_rename_plan(
    table: IdentifierTable,
    lexicon: SynonymLexicon,
    review: ReviewHook | None = None,
) -> RenameDictionary:
    """Assign a fresh synonym-derived name to every project-origin entry.

    Collisions (against every name in the table, reserved words, and names
    already assigned) are resolved by advancing to the next-ranked synonym of
    the last token, then by numeric suffixing. A review hook may accept, edit,
    or skip each proposal.
    """
    taken: set[str] = set(table.entries) | set(RESERVED_WORDS)
    forward: dict[str, str] = {}
    kinds: dict[str, str] = {}

    for name in table.project_names():
        entry = table.entries[name]
        tokens = tokenize_identifier(name)
        conv = convention(name)
        candidates = propose_synonyms(tokens, lexicon)

        attempts: list[list[str]] = []
        first_choice = [c[0] for c in candidates]
        attempts.append(first_choice)
        for alt in candidates[-1][1:]:
            attempts.append(first_choice[:-1] + [alt])

        chosen: str | None = None
        for words in attempts:
            candidate = assemble_identifier(words, conv)
            if candidate not in taken:
                chosen = candidate
                break
        if chosen is None:
            base = assemble_identifier(first_choice, conv)
            chosen = _suffixed(base, taken, name)

        if review is not None:
            decision = review(name, chosen)
            if decision is None:
                continue
            if decision != chosen:
                chosen = decision if decision not in taken else _suffixed(decision, taken, name)

        forward[name] = chosen
        kinds[name] = entry.kind
        taken.add(chosen)

    return RenameDictionary.build(forward, kinds)


def _suffixed(base: str, taken: set[str], original: str) -> str:
    for i in range(2, 10_000):
        candidate = f"{base}{i}"
        if candidate not in taken:
            return candidate
    raise ExhaustedCandidates(original)


# ---------------------------------------------------------------------------
# Applying a dictionary
# ---------------------------------------------------------------------------


def apply_rename(project: list[SourceFile], dct: RenameDictionary) -> list[SourceFile]:
    """Replace every occurrence of each forward-mapped identifier project-wide.

    The tree shape is untouched; only identifier payloads change. A subtree
    with no mapped name in it is shared, not copied: a file that holds none
    comes back as the same object. Raises StaleDictionary if a key occurs
    nowhere in the project (a wildcard-import tail or a primitive type name
    counts as an occurrence, though neither is renamed).
    """
    met: set[str] = set()
    renamed = [rename_identifiers(src, dct.forward, met) for src in project]
    for key in sorted(dct.forward):
        if key not in met:
            raise StaleDictionary(key)
    return renamed


# ---------------------------------------------------------------------------
# Patch recovery
# ---------------------------------------------------------------------------


def recover_patch(patch_text: str, dct: RenameDictionary) -> str:
    """Translate a patch written against renamed code back to original names.

    Token-level: identifier tokens found in the backward map are substituted,
    everything else (keywords, literals, comments, layout) is preserved
    byte-for-byte. The text must lex as subset tokens but need not parse.
    """
    out: list[str] = []
    last = 0
    tokens = tokenize(patch_text, "<patch>")
    for kind, text, start in zip(tokens.kinds, tokens.texts, tokens.starts):
        if kind == IDENT and text in dct.backward:
            out.append(patch_text[last:start])
            out.append(dct.backward[text])
            last = start + len(text)
    out.append(patch_text[last:])
    return "".join(out)
