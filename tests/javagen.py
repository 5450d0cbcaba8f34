"""Seeded generator of random oracle-evaluable methods for differential fuzzing.

Emits source text (exercising the parser too). Generated methods terminate
within the default fuel except for rare adversarial loops, which the fuzz
harness tolerates as inconclusive; only a diverged verdict is a failure.

Seeds from LEAF_SEEDS on also emit leaf callees: methods whose body is one
`return e;` over int, boolean and String parameters, which the oracle writes
in place of their calls. `subject` calls them inside expressions and loops,
with literal, slot, assignment, nested-call and switch-local arguments. A
seed below LEAF_SEEDS gives the same text as before the leaves existed.
"""

from __future__ import annotations

import random

INT = "int"
BOOL = "boolean"
STR = "String"

_STR_LITS = ('"a"', '"b"', '"ab"', '"/"', '""')
LEAF_SEEDS = 2000


class MethodGen:
    def __init__(self, rng: random.Random):
        self.rng = rng
        self.counter = 0
        self.scope: list[dict[str, str]] = []  # name -> type, innermost last
        self.leaves: list[tuple[str, str, list[str]]] = []  # (name, type, parameter types)

    def fresh(self, prefix: str) -> str:
        self.counter += 1
        return f"{prefix}{self.counter}"

    def vars_of(self, type_name: str) -> list[str]:
        seen = []
        for scope in self.scope:
            for name, t in scope.items():
                if t == type_name:
                    seen.append(name)
        return seen

    # -- expressions ---------------------------------------------------------

    def leaf_call(self, type_name: str, depth: int) -> str | None:
        """A call of a leaf that returns type_name, or None, drawing nothing
        when no leaf does (so seeds without leaves draw as they always did)."""
        fitting = [leaf for leaf in self.leaves if leaf[1] == type_name]
        if not fitting or depth >= 3 or self.rng.random() >= 0.3:
            return None
        name, _, types = self.rng.choice(fitting)
        return f"{name}({', '.join(self.argument(t, depth + 1) for t in types)})"

    def argument(self, type_name: str, depth: int) -> str:
        """A leaf argument: a literal, a slot, an assignment or a call."""
        roll, names = self.rng.random(), self.vars_of(type_name)
        if roll < 0.2 and names:
            target = self.rng.choice(names)
            return f"({target} = {self.expr_of(type_name, 2)})"
        if roll < 0.5 and names:
            return self.rng.choice(names)
        return self.expr_of(type_name, depth)

    def int_expr(self, depth: int = 0) -> str:
        rng = self.rng
        call = self.leaf_call(INT, depth)
        if call is not None:
            return call
        options = ["lit", "lit"]
        if self.vars_of(INT):
            options += ["var", "var", "var"]
        if depth < 2:
            options += ["binary", "math", "ternary", "unary"]
        kind = rng.choice(options)
        if kind == "var":
            return rng.choice(self.vars_of(INT))
        if kind == "binary":
            op = rng.choice(["+", "-", "*", "%", "/"])
            left = self.int_expr(depth + 1)
            right = self.int_expr(depth + 1)
            return f"({left} {op} {right})" if rng.random() < 0.5 else f"{left} {op} {right}"
        if kind == "math":
            fn = rng.choice(["Math.min", "Math.max"])
            if rng.random() < 0.3:
                return f"Math.abs({self.int_expr(depth + 1)})"
            return f"{fn}({self.int_expr(depth + 1)}, {self.int_expr(depth + 1)})"
        if kind == "ternary":
            # Self-parenthesized so surrounding operators cannot re-associate.
            return (f"({self.bool_expr(depth + 1)} ? {self.int_expr(depth + 1)}"
                    f" : {self.int_expr(depth + 1)})")
        if kind == "unary":
            return f"-({self.int_expr(depth + 1)})"
        return str(rng.choice([0, 1, 2, 3, 5, -1, -2, 7]))

    def bool_expr(self, depth: int = 0) -> str:
        rng = self.rng
        call = self.leaf_call(BOOL, depth)
        if call is not None:
            return call
        options = ["cmp", "lit"]
        if self.vars_of(BOOL):
            options += ["var", "var"]
        if self.vars_of(STR):
            options += ["strpred"]
        if depth < 2:
            options += ["logic", "not"]
        kind = rng.choice(options)
        if kind == "var":
            return rng.choice(self.vars_of(BOOL))
        if kind == "cmp":
            op = rng.choice(["<", "<=", ">", ">=", "==", "!="])
            return f"{self.int_expr(depth + 1)} {op} {self.int_expr(depth + 1)}"
        if kind == "logic":
            op = rng.choice(["&&", "||"])
            return f"{self.bool_expr(depth + 1)} {op} {self.bool_expr(depth + 1)}"
        if kind == "not":
            inner = self.bool_expr(depth + 1)
            return f"!({inner})" if not inner.startswith("!") else inner[1:]
        if kind == "strpred":
            s = rng.choice(self.vars_of(STR))
            if rng.random() < 0.5:
                return f"{s}.startsWith({self.str_expr(depth + 1)})"
            return f"{s}.equals({self.str_expr(depth + 1)})"
        return rng.choice(["true", "false"])

    def str_expr(self, depth: int = 0) -> str:
        rng = self.rng
        call = self.leaf_call(STR, depth)
        if call is not None:
            return call
        options = ["lit", "lit"]
        if self.vars_of(STR):
            options += ["var", "var"]
        if depth < 2:
            options += ["concat"]
        kind = rng.choice(options)
        if kind == "var":
            return rng.choice(self.vars_of(STR))
        if kind == "concat":
            receiver = self.str_expr(depth + 1)
            if receiver == "null":  # javac rejects `null.concat(...)`; take no other draw
                receiver = '""'
            return f"{receiver}.concat({self.str_expr(depth + 1)})"
        if rng.random() < 0.1:
            return "null"
        return rng.choice(_STR_LITS)

    def expr_of(self, type_name: str, depth: int = 0) -> str:
        if type_name == INT:
            return self.int_expr(depth)
        if type_name == BOOL:
            return self.bool_expr(depth)
        return self.str_expr(depth)

    # -- statements ------------------------------------------------------------

    def statements(self, budget: int, indent: str, allow_return: bool) -> list[str]:
        rng = self.rng
        lines: list[str] = []
        self.scope.append({})
        while budget > 0:
            budget -= 1
            if self.leaves and rng.random() < 0.25:
                lines += self.leaf_statement(indent)
                continue
            roll = rng.random()
            if roll < 0.25:
                t = rng.choice([INT, INT, BOOL, STR])
                name = self.fresh({INT: "i", BOOL: "b", STR: "s"}[t])
                lines.append(f"{indent}{t} {name} = {self.expr_of(t)};")
                self.scope[-1][name] = t
            elif roll < 0.40 and any(self.vars_of(t) for t in (INT, BOOL, STR)):
                t = rng.choice([t for t in (INT, BOOL, STR) if self.vars_of(t)])
                name = rng.choice(self.vars_of(t))
                lines.append(f"{indent}{name} = {self.expr_of(t)};")
            elif roll < 0.52 and budget >= 2:
                lines.append(f"{indent}if ({self.bool_expr()}) {{")
                lines += self.statements(rng.randint(1, 2), indent + "    ", allow_return)
                if rng.random() < 0.7:
                    lines.append(f"{indent}}} else {{")
                    lines += self.statements(rng.randint(1, 2), indent + "    ",
                                             allow_return)
                lines.append(f"{indent}}}")
                budget -= 2
            elif roll < 0.62 and budget >= 2:
                loop_var = self.fresh("k")
                bound = rng.randint(1, 6)
                lines.append(
                    f"{indent}for (int {loop_var} = 0; {loop_var} < {bound}; "
                    f"{loop_var} = {loop_var} + 1) {{")
                self.scope.append({loop_var: INT})
                lines += self.statements(rng.randint(1, 2), indent + "    ", False)
                self.scope.pop()
                lines.append(f"{indent}}}")
                budget -= 2
            elif roll < 0.70 and self.vars_of(INT) and budget >= 2:
                scrutinee = rng.choice(self.vars_of(INT))
                lines.append(f"{indent}switch ({scrutinee}) {{")
                labels = rng.sample(range(-2, 6), rng.randint(1, 3))
                for label in labels:
                    lines.append(f"{indent}    case {label}:")
                    lines += self.statements(1, indent + "        ", False)
                    if rng.random() < 0.8:
                        lines.append(f"{indent}        break;")
                if rng.random() < 0.7:
                    lines.append(f"{indent}    default:")
                    lines += self.statements(1, indent + "        ", False)
                lines.append(f"{indent}}}")
                budget -= 2
            elif roll < 0.80 and self.vars_of(INT):
                target = rng.choice(self.vars_of(INT))
                lines.append(
                    f"{indent}{target} = {self.bool_expr()} ? "
                    f"{self.int_expr(1)} : {self.int_expr(1)};")
            elif roll < 0.90:
                lines.append(f"{indent}probe({self.int_expr(1)});")
            else:
                t = rng.choice([INT, STR])
                if self.vars_of(STR) and t == STR:
                    s = rng.choice(self.vars_of(STR))
                    lines.append(f"{indent}int {self.fresh('i')} = "
                                 f"{s}.concat({self.str_expr(1)}).length();")
                    self.scope[-1][f"i{self.counter}"] = INT
                else:
                    lines.append(f"{indent}int {self.fresh('i')} = "
                                 f"probe({self.int_expr(1)});")
                    self.scope[-1][f"i{self.counter}"] = INT
        self.scope.pop()
        return lines

    def leaf_statement(self, indent: str) -> list[str]:
        """A statement that calls a leaf where the oracle runs it often or
        with an argument it must check: in a loop to a parameter or a
        constant, or with a switch local that its case declares."""
        rng = self.rng
        ints = self.vars_of(INT)
        roll = rng.random()
        if roll < 0.5 or not ints:
            loop_var, target = self.fresh("k"), self.fresh("i")
            bound = rng.choice(ints) if ints and rng.random() < 0.3 else str(rng.randint(1, 8))
            body = f"{target} = {target} + {self.leaf_of_slot(loop_var)};"
            self.scope[-1][target] = INT
            return [f"{indent}int {target} = 0;",
                    f"{indent}for (int {loop_var} = 0; {loop_var} < {bound}; "
                    f"{loop_var} = {loop_var} + 1) {{",
                    f"{indent}    {body}",
                    f"{indent}}}"]
        scrutinee, local, target = rng.choice(ints), self.fresh("w"), rng.choice(ints)
        label = rng.randint(-1, 3)
        self.scope.append({local: INT})
        use = f"{target} = {self.int_expr(1)};"
        self.scope.pop()
        return [f"{indent}switch ({scrutinee}) {{",
                f"{indent}    case {label}:",
                f"{indent}        int {local} = {self.int_expr(1)};",
                f"{indent}        {use}",
                f"{indent}        {target} = {target} + {self.leaf_of_slot(local)};",
                f"{indent}        break;",
                f"{indent}    default:",
                f"{indent}        {target} = {target} - 1;",
                f"{indent}}}"]

    def leaf_of_slot(self, local: str) -> str:
        """A call of an int leaf whose first int parameter gets `local`."""
        name, _, types = self.rng.choice(
            [leaf for leaf in self.leaves if leaf[1] == INT and INT in leaf[2]])
        self.scope.append({local: INT})
        args = [local if i == types.index(INT) else self.argument(t, 2)
                for i, t in enumerate(types)]
        self.scope.pop()
        return f"{name}({', '.join(args)})"


def _leaf_source(gen: MethodGen, index: int) -> str:
    """A method of random parameter and return types, added to gen.leaves:
    `return e;` over its parameters, at times assigning one of them. One in
    four calls an earlier one, so it is no leaf and is called as a method."""
    rng = gen.rng
    types = [rng.choice([INT, INT, BOOL, STR]) for _ in range(rng.randint(1, 3))]
    if index == 0:
        types[0] = INT  # the switch-local statement needs an int leaf
    result = INT if index == 0 else rng.choice([INT, INT, BOOL, STR])
    names = [f"q{i}{t[0].lower()}" for i, t in enumerate(types)]
    saved = gen.scope, gen.leaves
    gen.scope = [dict(zip(names, types))]
    gen.leaves = gen.leaves if rng.random() < 0.25 else []
    body = gen.expr_of(result)
    if result == INT and types[0] == INT and rng.random() < 0.3:
        body = f"({names[0]} = {gen.int_expr(1)}) + {names[0]}"
    gen.scope, gen.leaves = saved
    name = f"leaf{index}"
    gen.leaves.append((name, result, types))
    params = ", ".join(f"{t} {n}" for t, n in zip(types, names))
    return f"    static {result} {name}({params}) {{\n        return {body};\n    }}\n\n"


def generate_method_source(seed: int) -> str:
    """One class: a helper plus a generated method `subject`, and from seed
    LEAF_SEEDS on also leaf callees."""
    rng = random.Random(seed)
    gen = MethodGen(rng)
    leaves = ("".join(_leaf_source(gen, i) for i in range(rng.randint(2, 4)))
              if seed >= LEAF_SEEDS else "")
    params = []
    gen.scope.append({})
    for i, t in enumerate(rng.sample([INT, INT, BOOL, STR], rng.randint(1, 3))):
        name = f"p{i}{t[0].lower()}"
        params.append(f"{t} {name}")
        gen.scope[-1][name] = t
    body_lines = gen.statements(rng.randint(3, 7), "        ", True)
    result = gen.int_expr()
    gen.scope.pop()

    return (
        "public class Fuzzed {\n"
        "    static int probe(int value) {\n"
        "        return value * 2 + 1;\n"
        "    }\n"
        "\n"
        + leaves +
        f"    static int subject({', '.join(params)}) {{\n"
        + "\n".join(body_lines)
        + ("\n" if body_lines else "")
        + f"        return {result};\n"
        "    }\n"
        "}\n"
    )
