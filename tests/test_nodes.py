"""The node schema: every field declares what it holds, and the table-driven
traversals agree with a scan of the dataclass fields. Nodes are slotted and
frozen, and spans are tuples."""

from dataclasses import FrozenInstanceError, fields, replace

import pytest

from vmorph import nodes
from vmorph.nodes import (
    Binary,
    Name,
    Node,
    children,
    identifier_sites,
    rebuild,
    walk,
)
from vmorph.parser import parse

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
    node = cls(**{f.name: f"v{i}" for i, f in enumerate(fields(cls)) if f.name != "span"})
    assert replace(node) == node
    if cls in (Node, nodes.Expr, nodes.Stmt):  # the bases hold no field
        return
    spanned = replace(node, span=nodes.Span("X.java", 1, 2, 3, 4))
    assert spanned == node and spanned.span == ("X.java", 1, 2, 3, 4)
    assert node.span == nodes.Span.synthetic()
    for f in fields(cls):
        if f.name != "span":
            assert replace(node, **{f.name: "other"}) != node


def test_span_is_a_tuple_of_atoms_without_a_dict():
    tree = parse("class A { static int f(int n) { return n + 1; } }", "A.java")
    for node in walk(tree):
        span = node.span
        assert isinstance(span, tuple) and not hasattr(span, "__dict__")
        assert [type(v) for v in span] == [str, int, int, int, int]
    # Every node left at the default span shares one.
    assert Name("a").span is Name("b").span
