"""The node schema: every field declares what it holds, and the table-driven
traversals agree with a scan of the dataclass fields. Nodes are slotted and
frozen, spans are tuples, and a parsed node's position is no object of its
own. Every vmorph dataclass comes from the class builder and behaves as the
dataclass would."""

import copy
import gc
import inspect
import pickle
from dataclasses import FrozenInstanceError, fields, is_dataclass, replace

import pytest

from vmorph import bench, identifiers, interp, nodes, prompts, rename, transforms
from vmorph.nodes import (
    Binary,
    Name,
    Node,
    LineTable,
    Span,
    children,
    evolve,
    identifier_sites,
    jumps,
    rebuild,
    walk,
)
from vmorph.parser import parse
from vmorph.prompts import FORMATS, PromptSpec
from vmorph.rename import SynonymLexicon

from javagen import generate_method_source


def _reference_children(node):
    """The scan `children` did before the schema: every field, in order."""
    for f in fields(node):
        value = getattr(node, f.name)
        if isinstance(value, Node):
            yield value
        elif isinstance(value, tuple):
            for item in value:
                if isinstance(item, Node):
                    yield item


def _reference_walk(node):
    yield node
    for child in _reference_children(node):
        yield from _reference_walk(child)


def _sources(all_fixture_sources):
    yield from all_fixture_sources.items()
    for seed in range(160):
        yield f"Fuzzed{seed}.java", generate_method_source(seed)


@pytest.mark.parametrize("cls", nodes.NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_every_field_is_declared_exactly_once(cls):
    declared = list(cls._child_fields) + [spec[0] for spec in cls._name_fields]
    declared += [f.name for f in fields(cls) if f.metadata.get(nodes._SCHEMA) == nodes._PAYLOAD]
    assert sorted(declared) == sorted(f.name for f in fields(cls))
    assert len(set(declared)) == len(declared)


def test_walk_matches_a_scan_of_the_dataclass_fields(all_fixture_sources):
    for name, text in _sources(all_fixture_sources):
        tree = parse(text, name)
        for node in walk(tree):
            assert list(children(node)) == list(_reference_children(node)), name
        assert [id(n) for n in walk(tree)] == [id(n) for n in _reference_walk(tree)], name


def test_every_node_field_is_a_child_field(all_fixture_sources):
    # A node-valued field left out of the child fields would be skipped by
    # every traversal; the walk above would then miss it.
    for name, text in _sources(all_fixture_sources):
        for node in walk(parse(text, name)):
            for f in fields(node):
                value = getattr(node, f.name)
                items = value if isinstance(value, tuple) else (value,)
                if any(isinstance(item, Node) for item in items):
                    assert f.name in node._child_fields, (type(node).__name__, f.name)


def test_identifier_sites_skip_primitive_types_and_wildcard_tails():
    tree = parse("import java.util.*; import a.b.Widget; "
                 "class A { A(int n) { java.util.List x = new java.util.List(); } "
                 "int f(Widget w) { return w.size; } }")
    sites = [(name, role, kind, type(node).__name__) for name, role, kind, node in
             identifier_sites(tree)]
    assert sites == [
        ("Widget", "use", "class", "Import"),
        ("A", "decl", "class", "ClassDecl"),
        ("A", "use", "class", "MethodDecl"),  # a constructor's name
        ("n", "decl", "variable", "Param"),
        ("List", "use", "class", "LocalVarDecl"),
        ("x", "decl", "variable", "Declarator"),
        ("List", "use", "class", "New"),
        ("f", "decl", "function", "MethodDecl"),
        ("Widget", "use", "class", "Param"),
        ("w", "decl", "variable", "Param"),
        ("size", "use", "variable", "FieldAccess"),
        ("w", "use", "variable", "Name"),
    ]


def test_rebuild_shares_what_f_leaves_alone():
    tree = Binary("+", Name("a"), Name("b"))
    assert rebuild(tree, lambda n: n) is tree
    renamed = rebuild(tree, lambda n: Name("c") if n.id == "b" else n)
    assert renamed == Binary("+", Name("a"), Name("c"))
    assert renamed.left is tree.left


def test_registry_lists_every_node_class_once():
    defined = [v for v in vars(nodes).values() if isinstance(v, type) and issubclass(v, Node)]
    assert len(defined) == 31
    assert sorted(nodes.NODE_CLASSES, key=id) == sorted(defined, key=id)


def test_node_has_no_dict_and_rejects_assignment():
    node = Binary("+", Name("a"), Name("b"))
    assert not hasattr(node, "__dict__")
    with pytest.raises(FrozenInstanceError):
        node.op = "-"
    with pytest.raises(FrozenInstanceError):
        node.span = nodes.Span.synthetic()


@pytest.mark.parametrize("cls", nodes.NODE_CLASSES, ids=lambda cls: cls.__name__)
def test_replace_works_on_every_node_class(cls):
    position = ("span", "_pos")  # where the node is, not what it is
    node = cls(**{f.name: f"v{i}" for i, f in enumerate(fields(cls)) if f.name not in position})
    assert replace(node) == node
    if cls in (Node, nodes.Expr, nodes.Stmt):  # the bases hold no field
        return
    spanned = replace(node, span=nodes.Span("X.java", 1, 2, 3, 4))
    assert spanned == node and spanned.span == ("X.java", 1, 2, 3, 4)
    assert node.span == nodes.Span.synthetic()
    for f in fields(cls):
        if f.name not in position:
            assert replace(node, **{f.name: "other"}) != node


def test_span_is_a_tuple_of_atoms_without_a_dict():
    tree = parse("class A { static int f(int n) { return n + 1; } }", "A.java")
    for node in walk(tree):
        span = node.span
        assert isinstance(span, tuple) and not hasattr(span, "__dict__")
        assert [type(v) for v in span] == [str, int, int, int, int]
    # Every node left at the default span shares one.
    assert Name("a").span is Name("b").span


def test_a_parsed_node_holds_no_tracked_position_of_its_own(all_fixture_sources):
    """Past its fields' values, a parsed node refers to its class, an int and
    its file's line table, which all the file's nodes share: nothing the
    cyclic collector tracks per node."""
    for name, text in all_fixture_sources.items():
        tables = set()
        for node in walk(parse(text, name)):
            values = [getattr(node, f.name) for f in fields(node)
                      if f.name not in ("span", "_pos")]
            own = [r for r in gc.get_referents(node)
                   if r is not type(node) and not any(r is v for v in values)]
            assert not any(isinstance(r, Span) for r in own), (name, node)
            tables.update(id(r) for r in own if gc.is_tracked(r))
            assert all(isinstance(r, LineTable) for r in own if gc.is_tracked(r)), (name, node)
        assert len(tables) == 1, name


def test_evolve_copies_the_position_as_stored():
    tree = parse("class A {\n  int f() { return 1; }\n}\n", "A.java")
    m = tree.types[0].members[0]
    renamed = evolve(m, name="g")
    assert renamed.name == "g" and renamed.span == m.span
    # The only int and the only line table m holds are its position.
    position = lambda node: [r for r in gc.get_referents(node)  # noqa: E731
                             if isinstance(r, (LineTable, int))]
    assert position(renamed) == position(m)
    assert sorted(type(r).__name__ for r in position(m)) == ["LineTable", "int"]
    assert evolve(m, span=Span("B.java", 1, 1, 1, 1)).span == ("B.java", 1, 1, 1, 1)
    with pytest.raises(TypeError):
        evolve(m, nmae="g")


def test_a_node_survives_copy_and_pickle():
    tree = parse("class A { int f(int n) { return n + 1; } }", "A.java")
    for clone in (copy.copy(tree), copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert clone == tree and repr(clone) == repr(tree)


# ---------------------------------------------------------------------------
# The class builder: every vmorph dataclass behaves as the dataclass would
# ---------------------------------------------------------------------------


def _values(cls, k: int) -> dict:
    """Field values for an instance of cls; another k gives other values."""
    if cls is PromptSpec:  # both fields are checked
        return {"model_format": FORMATS[k], "max_window": k + 1}
    if cls is SynonymLexicon:
        return {"words": {f"w{k}": ("x",)}}
    position = {"span": Span(f"F{k}.java", 1, 2, 3, 4), "_pos": k}
    return {f.name: position.get(f.name, f"v{i}.{k}") for i, f in enumerate(fields(cls))}


# Every dataclass vmorph defines, in module order.
DATACLASSES = [v for module in (bench, identifiers, interp, nodes, prompts, rename, transforms)
               for v in vars(module).values()
               if isinstance(v, type) and is_dataclass(v) and v.__module__ == module.__name__]


def test_every_vmorph_dataclass_is_made_by_the_class_builder():
    assert len(DATACLASSES) == 49
    for cls in DATACLASSES:  # one function each, not one per class
        assert (cls.__eq__, cls.__repr__) == (nodes._eq, nodes._repr), cls


@pytest.mark.parametrize("cls", DATACLASSES, ids=lambda cls: cls.__name__)
def test_a_built_class_behaves_as_its_dataclass(cls):
    x = cls(**_values(cls, 0))
    compared = tuple(getattr(x, f.name) for f in fields(cls) if f.compare)
    shown = ", ".join(f"{f.name}={getattr(x, f.name)!r}" for f in fields(cls) if f.repr)
    assert repr(x) == f"{cls.__qualname__}({shown})"
    assert x == cls(**_values(cls, 0)) and x != object() and not x != x
    for f in fields(cls):  # a field left out of comparison changes no ==
        assert (replace(x, **{f.name: _values(cls, 1)[f.name]}) == x) is (not f.compare)
    frozen = cls.__hash__ is not None
    assert frozen == ("__slots__" in cls.__dict__)
    if frozen:
        try:
            expected = hash(compared)  # a 1-tuple for a class of one compared field
        except TypeError:  # a dict among the fields
            with pytest.raises(TypeError):
                hash(x)
        else:
            assert hash(x) == expected
        for field_name in ("__class__", *(f.name for f in fields(cls))):
            with pytest.raises(FrozenInstanceError):
                setattr(x, field_name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(x, field_name)
    else:
        with pytest.raises(TypeError):
            hash(x)
    for clone in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(clone) is cls and clone == x and repr(clone) == repr(x)


def test_the_builder_writes_no_signature_docstring(monkeypatch):
    """dataclasses writes a missing docstring from inspect.signature, a
    costly call at import; every built class has its own."""
    assert all(cls.__doc__ for cls in DATACLASSES)

    def no_signature(*args, **kwargs):
        raise AssertionError("inspect.signature called")
    monkeypatch.setattr(inspect, "signature", no_signature)
    for build in (nodes.frozen, nodes.mutable):
        built = build(type("Probe", (), {"__annotations__": {"a": "int"}}))
        assert built.__doc__ == "Probe(a)" and repr(built(1)) == "Probe(a=1)"


def test_a_node_field_that_declares_nothing_is_refused():
    class Bare(Node):
        x: int = 0

    with pytest.raises(TypeError, match=r"^Bare\.x declares no schema$"):
        nodes._node(Bare)


def test_with_method_keeps_the_file_when_the_method_is_its_own():
    ast = parse("class A { int f() { return 1; } }")
    assert nodes.with_method(ast, (0, 0), nodes.method_at(ast, (0, 0))) is ast


# Whether each statement shape of the subset cannot complete normally (JLS
# 14.22). A loop on the literal `true`, or a for with no condition, cannot
# unless a break leaves it; a switch cannot when it has a default, its last
# group ends in a jump and no break leaves it. A break inside a nested loop
# or switch leaves only that one. Only the literal `true` is a constant.
JUMPS = {
    "expression": ("k = 1;", False),
    "return": ("return k;", True),
    "throw": ("throw new IllegalStateException();", True),
    "break": ("break;", True),
    "continue": ("continue;", True),
    "empty block": ("{ }", False),
    "block that ends in a jump": ("{ k = 1; return k; }", True),
    "if without else": ("if (k > 0) { return 1; }", False),
    "if and else both jump": ("if (k > 0) { return 1; } else { return 2; }", True),
    "else completes": ("if (k > 0) { return 1; } else { k = 2; }", False),
    "while on a condition": ("while (k > 0) { return 1; }", False),
    "while on a constant that is no literal": ("while (1 < 2) { return 1; }", False),
    "while true": ("while (true) { k = k + 1; }", True),
    "for with no condition": ("for (;;) { k = k + 1; }", True),
    "for on true": ("for (; true; k = k + 1) { }", True),
    "while true that continues": ("while (true) { continue; }", True),
    "while true with a break": ("while (true) { if (k > 0) { break; } k = k + 1; }", False),
    "for with no condition and a break": ("for (;;) { break; }", False),
    "break in a switch in a loop": (
        "while (true) { switch (k) { case 1: break; default: return 2; } }", True),
    "break in a loop in a loop": ("for (;;) { while (k > 0) { break; } }", True),
    "switch with a default": ("switch (k) { case 1: return 1; default: return 2; }", True),
    "switch without a default": ("switch (k) { case 1: return 1; case 2: return 2; }", False),
    "empty switch": ("switch (k) { }", False),
    "last group without statements": ("switch (k) { case 1: return 1; default: }", False),
    "last group completes": ("switch (k) { case 1: return 1; default: k = 2; }", False),
    "default falls into a jump": ("switch (k) { default: k = 2; case 1: return 1; }", True),
    "break in a case": ("switch (k) { case 1: break; default: return 2; }", False),
    "break in an if in a case": (
        "switch (k) { case 1: if (k > 0) { break; } return 1; default: return 2; }", False),
    "break in a loop in a case": (
        "switch (k) { case 1: while (k > 0) { break; } return 1; default: return 2; }", True),
    "break in a switch in a case": (
        "switch (k) { default: switch (k) { case 1: break; } return 1; }", True),
}


@pytest.mark.parametrize("shape", JUMPS)
def test_jumps_follows_the_completion_rule(shape):
    code, expected = JUMPS[shape]
    method = parse(f"class A {{ int f(int k) {{ {code} }} }}").types[0].methods[0]
    assert jumps(method.body.stmts[0]) is expected
    assert jumps(None) is False
