"""Project-wide synonym renaming and token-level patch recovery.

A rename plan maps every project-declared identifier to a synonym-assembled
replacement, recorded in a bidirectional dictionary that is persisted as JSON
so patches written against the renamed code can be translated back. External
(library) names are never touched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from .errors import StaleDictionary, VmorphError, check_fields, data_lines, dump_json, parse_json
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


def _is_identifier(name: str) -> bool:
    """Whether `name` lexes as exactly one identifier token, the unit that
    recover_patch maps back."""
    try:
        tokens = tokenize(name)
    except VmorphError:
        return False
    return tokens.kinds[:-1] == [IDENT] and tokens.texts[0] == name


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
        """Load a TSV lexicon (word<TAB>syn,syn,...); bundled file by default.
        A VmorphError names a file that is not UTF-8 or not a lexicon."""
        words: dict[str, tuple[str, ...]] = {}
        try:
            for lineno, line in data_lines("synonyms.tsv", path):
                if "\t" not in line:
                    raise ValueError(f"lexicon line {lineno}: expected word<TAB>synonyms")
                word, _, raw = line.partition("\t")
                candidates = tuple(s.strip() for s in raw.split(",") if s.strip())
                words[word.strip()] = candidates
            return cls(words)
        except ValueError as e:
            raise VmorphError(f"{path or 'the bundled lexicon'}: {e}") from e


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
            for name in (orig, new):
                if not _is_identifier(name):
                    raise ValueError(f"{name!r} is not an identifier")
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
        return dump_json(self.to_json_dict())

    @classmethod
    def loads(cls, text: str) -> "RenameDictionary":
        """The dictionary `text` holds; see from_json_dict."""
        return cls.from_json_dict(parse_json(text))

    @classmethod
    def from_json_dict(cls, data) -> "RenameDictionary":
        """The dictionary `data` describes; a VmorphError naming the first
        field that is missing or malformed."""
        check_fields(data, _DICTIONARY_FIELDS[:1], _DICTIONARY_FIELDS[1:])
        try:
            return cls.build(data["forward"], data.get("kinds", {}))
        except ValueError as e:
            raise VmorphError(f"field 'forward': {e}") from e

    def inverted(self) -> "RenameDictionary":
        kinds = {new: self.kinds.get(orig, "variable") for orig, new in self.forward.items()}
        return RenameDictionary(dict(self.backward), dict(self.forward), kinds)


# A dictionary's JSON fields, `forward` required: key, check, what the check wants.
_DICTIONARY_FIELDS = tuple(
    (key, lambda v: isinstance(v, dict)
     and all(isinstance(s, str) for item in v.items() for s in item), "a map of names to names")
    for key in ("forward", "kinds"))


ReviewHook = Callable[[str, str], Optional[str]]


def build_rename_plan(
    table: IdentifierTable,
    lexicon: SynonymLexicon,
    review: ReviewHook | None = None,
) -> RenameDictionary:
    """Assign a fresh synonym-derived name to every project-origin entry.

    Collisions (against every name in the project, reserved words, and names
    already assigned) are resolved by advancing to the next-ranked synonym of
    the last token, then by numeric suffixing. A review hook may accept, edit,
    or skip each proposal.
    """
    taken: set[str] = set(table.names).union(table.entries, RESERVED_WORDS)
    forward: dict[str, str] = {}
    kinds: dict[str, str] = {}

    for name in table.project_names():
        conv = convention(name)
        candidates = propose_synonyms(tokenize_identifier(name), lexicon)
        first_choice = [c[0] for c in candidates]
        attempts = [assemble_identifier(first_choice[:-1] + [last], conv)
                    for last in candidates[-1]]
        chosen = next((a for a in attempts if a not in taken), None) \
            or fresh_name(attempts[0], taken)

        if review is not None:
            decision = review(name, chosen)
            if decision is None:
                continue
            if decision != chosen:
                chosen = fresh_name(decision, taken)

        forward[name] = chosen
        kinds[name] = table.entries[name].kind
        taken.add(chosen)

    return RenameDictionary.build(forward, kinds)


def fresh_name(base: str, taken) -> str:
    """`base` if it is not in `taken`, else `base` with the least numeric
    suffix from 2 up that is not."""
    if base not in taken:
        return base
    i = 2
    while f"{base}{i}" in taken:
        i += 1
    return f"{base}{i}"


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
