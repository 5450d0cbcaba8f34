"""Seeded Java projects for the vmorph benchmark.

The generator is self-contained on purpose: it shares no code or data file
with the test suite or the package, so a change to either cannot shift the
inputs under a later comparison. Identifiers are camelCase, snake_case and
PascalCase compounds of WORDS, which are entries of the bundled synonym
lexicon, so rename plans are as large as real ones.

Every target method has the same shape: one site for each of the six
rewrites, two same-file helpers, and the signature
`(int, int, boolean, String)`. The seed picks names and constants; the loop
trip counts follow the record's index, so the set of records costs the same
whatever the seed. With the oracle's trial seed held fixed, every record
draws the same argument vectors.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Lexicon words that are no other word's synonym. A renamed identifier is
# built only from synonyms, so it can never coincide with a generated one,
# and patch recovery round-trips exactly.
WORDS = tuple("""
path parent check name value count node list index result gate guard input
buffer data text string word message error code number end first previous
old temp depth state flag mode user owner target source dest key field table
column cell child leaf tree branch graph edge weight maximum minimum average
delta offset point hour speed queue stack pool find search save run call send
parse build create make update insert compute calc apply init reset copy move
swap merge filter map reduce hash hide escape pad match compare test ensure
require expect allow deny block skip retry listen watch report trace debug fix
patch clean visit walk iterate loop service server request response session
connection channel packet header body payload context config option param
helper util manager handler worker job action event permission role group
member password secret valid invalid full ready done failed success pending
active main core extra local global remote internal external visible hidden
enabled disabled
""".split())

# The interpreter's argument pool includes Integer.MAX_VALUE for int
# parameters; a loop bounded by the first parameter then runs out of the
# default fuel on exactly the trials that draw it.
HOT_BOUND = "{a}"
CAPPED_BOUND = "Math.min({a}, 200)"

INDENT = "    "


@dataclass(frozen=True)
class Record:
    """One vulnerability record: a project tree and its target line range."""

    id: str
    files: dict  # relative path -> source text
    buggy_file: str
    buggy_lines: tuple  # (first, last), 1-based, inside the target method

    def source_bytes(self) -> int:
        return sum(len(text.encode("utf-8")) for text in self.files.values())

    def write(self, root: Path) -> Path:
        project = root / self.id
        for rel, text in self.files.items():
            path = project / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text, encoding="utf-8")
        vuln = {"id": self.id, "buggy_file": self.buggy_file,
                "buggy_lines": list(self.buggy_lines), "cwe": "CWE-22",
                "developer_patch": None}
        (project / "vuln.json").write_text(json.dumps(vuln, indent=2) + "\n",
                                           encoding="utf-8")
        return project


class Names:
    """Unique compound identifiers, drawn from one seeded stream."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.taken: set[str] = set()

    def _words(self) -> list[str]:
        return self.rng.sample(WORDS, 2 if self.rng.random() < 0.8 else 3)

    def _unique(self, make) -> str:
        while True:
            name = make(self._words())
            if name not in self.taken:
                self.taken.add(name)
                return name

    def var(self) -> str:
        """camelCase, or snake_case one time in four."""
        if self.rng.random() < 0.25:
            return self._unique("_".join)
        return self._unique(lambda w: w[0] + "".join(x.capitalize() for x in w[1:]))

    def pascal(self) -> str:
        return self._unique(lambda w: "".join(x.capitalize() for x in w))


# ---------------------------------------------------------------------------
# Target method: one site per rewrite, evaluable by the oracle
# ---------------------------------------------------------------------------


def _target_lines(names: Names, rng: random.Random, cls: str, bound: str,
                  countdown: int) -> tuple:
    """Return (lines of the target and its helpers, offset of the first and
    last body line of the target within those lines). `bound` is the main
    loop's bound; `countdown` the trip count of the while loop."""
    k = lambda lo, hi: rng.randint(lo, hi)  # noqa: E731
    n = {key: names.var() for key in
         ("target", "helper_a", "helper_b", "a", "b", "flag", "text",
          "acc", "other", "i", "sel", "len", "countdown", "x", "y", "u", "v")}
    bound = bound.format(a=n["a"])
    helpers = [
        f"static int {n['helper_a']}(int {n['x']}, int {n['y']}) {{",
        f"    return {n['x']} * {k(2, 9)} + {n['y']};",
        "}",
        "",
        f"static int {n['helper_b']}(int {n['u']}, int {n['v']}) {{",
        f"    if ({n['u']} > {n['v']}) {{",
        f"        return {n['u']} - {n['v']};",
        "    }",
        f"    return {n['v']} - {n['u']};",
        "}",
        "",
    ]
    body = [
        f"int {n['acc']} = {n['a']} + {k(1, 40)};",
        f"int {n['other']} = {n['b']} * {k(2, 7)};",
        f"for (int {n['i']} = 0; {n['i']} < {bound}; {n['i']} = {n['i']} + 1) {{",
        f"    {n['acc']} = {n['acc']} + {n['helper_a']}({n['i']}, {n['other']});",
        "}",
        f"if ({n['flag']}) {{",
        f"    {n['acc']} = {n['acc']} - {k(1, 50)};",
        "} else {",
        f"    {n['acc']} = {n['acc']} + {k(1, 50)};",
        "}",
        f"{n['other']} = {n['acc']} > {k(0, 90)} ? {n['acc']} : {n['other']} - {k(1, 9)};",
        f"int {n['sel']} = {n['acc']} % 4;",
        f"switch ({n['sel']}) {{",
        "    case 0:",
        f"        {n['other']} = {n['other']} + {k(1, 20)};",
        "        break;",
        "    case 1:",
        f"        {n['other']} = {n['other']} - {k(1, 20)};",
        "        break;",
        "    default:",
        f"        {n['other']} = {n['other']} * 2;",
        "        break;",
        "}",
        f"if ({n['text']} != null) {{",
        f"    int {n['len']} = {n['text']}.concat(\"{rng.choice(('ab', '/', '.a'))}\").length();",
        f"    {n['acc']} = {n['acc']} + {n['len']};",
        "}",
        f"{n['acc']} = {cls}.{n['helper_b']}(Math.max({n['acc']}, {n['b']}), {k(1, 30)});",
        f"int {n['countdown']} = {countdown};",
        f"while ({n['countdown']} > 0) {{",
        f"    {n['other']} = {n['other']} + {n['countdown']};",
        f"    {n['countdown']} = {n['countdown']} - 1;",
        "}",
        f"return {n['acc']} + {n['other']};",
    ]
    head = (f"static int {n['target']}(int {n['a']}, int {n['b']}, "
            f"boolean {n['flag']}, String {n['text']}) {{")
    lines = helpers + [head] + [INDENT + line for line in body] + ["}"]
    first = len(helpers) + 1
    return lines, first, first + len(body) - 1


def _class_text(package: str, cls: str, members: list[str]) -> tuple:
    """Assemble a one-class file; returns (text, 1-based line of member line 0)."""
    head = [f"package {package};", "", f"public class {cls} {{"]
    body = [(INDENT + line) if line else "" for line in members]
    text = "\n".join(head + body + ["}"]) + "\n"
    return text, len(head) + 1


def _one_file_record(rid: str, rng: random.Random, bound: str, countdown: int) -> Record:
    names = Names(rng)
    cls = names.pascal()
    package = f"org.{rng.choice(WORDS)}.{rng.choice(WORDS)}"
    lines, first, last = _target_lines(names, rng, cls, bound, countdown)
    text, base = _class_text(package, cls, lines)
    return Record(rid, {f"{cls}.java": text}, f"{cls}.java", (base + first, base + last))


# ---------------------------------------------------------------------------
# Filler code for the multi-file project: parsed, renamed and printed, never
# evaluated, so it may use fields, allocation and cross-class calls.
# ---------------------------------------------------------------------------


def _filler_method(names: Names, rng: random.Random, callees: list, fields: dict,
                   cls: str) -> list[str]:
    """A static `int m(int, int, String)` with a fixed mix of statement kinds."""
    name, p, q, s = names.var(), names.var(), names.var(), names.var()
    ints, strs = [p, q] + fields["int"], [s] + fields["String"]
    out = [f"static int {name}(int {p}, int {q}, String {s}) {{"]

    def int_expr() -> str:
        left, right = rng.choice(ints), rng.choice(ints + [str(rng.randint(1, 99))])
        return f"{left} {rng.choice('+-*')} {right}"

    def stmt(depth: int) -> list[str]:
        roll = rng.random()
        if roll < 0.22:
            local = names.var()
            ints.append(local)
            return [f"int {local} = {int_expr()};"]
        if roll < 0.36:
            return [f"{rng.choice(ints[:2])} = {int_expr()};"]
        if roll < 0.46 and depth < 2:
            then, orelse = stmt(depth + 1), stmt(depth + 1)
            return ([f"if ({rng.choice(ints)} > {rng.randint(0, 50)}) {{"]
                    + [INDENT + x for x in then] + ["} else {"]
                    + [INDENT + x for x in orelse] + ["}"])
        if roll < 0.54 and depth < 2:
            i = names.var()
            return ([f"for (int {i} = 0; {i} < {rng.randint(2, 9)}; {i} = {i} + 1) {{"]
                    + [INDENT + x for x in stmt(depth + 1)] + ["}"])
        if roll < 0.60 and depth < 2:
            sel = rng.choice(ints)
            return [f"switch ({sel}) {{", "    case 1:",
                    f"        {ints[0]} = {int_expr()};", "        break;",
                    "    default:", f"        {ints[1]} = {int_expr()};", "}"]
        if roll < 0.72 and callees:
            other, method = rng.choice(callees)
            call = f"{other}.{method}({rng.choice(ints)}, {rng.randint(0, 9)}, {rng.choice(strs)})"
            return [f"{ints[0]} = {ints[0]} + {call};"]
        if roll < 0.82:
            local = names.var()
            strs.append(local)
            return [f"String {local} = {rng.choice(strs)}.concat(\"{rng.choice(WORDS)}\");"]
        if roll < 0.90:
            return [f"{ints[1]} = {ints[1]} + {rng.choice(strs)}.length();"]
        if roll < 0.95:
            obj = names.var()
            return [f"{cls} {obj} = new {cls}();"]
        return [f"// {' '.join(rng.sample(WORDS, 4))}"]

    for _ in range(rng.randint(6, 10)):
        out.extend(INDENT + x for x in stmt(0))
    out.extend([f"    return {int_expr()};", "}", ""])
    return out


def _large_project(rid: str, rng: random.Random, target_bytes: int) -> Record:
    names = Names(rng)
    package = f"com.{rng.choice(WORDS)}.{rng.choice(WORDS)}"
    files: dict[str, str] = {}
    callees: list[tuple[str, str]] = []

    target_cls = names.pascal()
    # Loops of one trip: the oracle is meant to be a small share here.
    lines, first, last = _target_lines(names, rng, target_cls, "1", 1)
    text, base = _class_text(package, target_cls, lines)
    files[f"{target_cls}.java"] = text
    buggy = (base + first, base + last)

    total = len(text.encode("utf-8"))
    while total < target_bytes:
        cls = names.pascal()
        fields = {"int": [names.var() for _ in range(2)], "String": [names.var()]}
        members = [f"static int {f} = {rng.randint(0, 99)};" for f in fields["int"]]
        members += [f"static String {f} = \"{rng.choice(WORDS)}\";" for f in fields["String"]]
        members.append("")
        own = []
        for _ in range(rng.randint(8, 12)):
            method = _filler_method(names, rng, callees, fields, cls)
            own.append((cls, method[0].split("(")[0].split()[-1]))
            members.extend(method)
        callees.extend(own)
        text, _ = _class_text(package, cls, members[:-1])
        files[f"{cls}.java"] = text
        total += len(text.encode("utf-8"))
    return Record(rid, dict(sorted(files.items())), f"{target_cls}.java", buggy)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

SMALL_RECORDS = 60
FUEL_HOT, FUEL_CAPPED = 3, 1
LARGE_BYTES = 250_000


def small_records(seed: int) -> list[Record]:
    """Many one-file projects; every loop in a target has a constant bound."""
    rng = random.Random(f"small-records/{seed}")
    return [_one_file_record(f"S-{i}", rng, str(4 + i % 5), 3 + i % 4)
            for i in range(SMALL_RECORDS)]


def fuel_bound(seed: int) -> list[Record]:
    """A few one-file projects whose main loop runs to the first parameter
    (hot, out of fuel on the trials that draw Integer.MAX_VALUE) or to a
    capped copy of it (never out of fuel)."""
    rng = random.Random(f"fuel-bound/{seed}")
    kinds = [HOT_BOUND] * FUEL_HOT + [CAPPED_BOUND] * FUEL_CAPPED
    return [_one_file_record(f"F-{i}", rng, bound, 4) for i, bound in enumerate(kinds)]


def large_project(seed: int) -> list[Record]:
    """One record in a multi-file project of about LARGE_BYTES of source."""
    rng = random.Random(f"large-project/{seed}")
    return [_large_project("L-0", rng, LARGE_BYTES)]


WORKLOADS = {
    "small-records": small_records,
    "fuel-bound": fuel_bound,
    "large-project": large_project,
}
