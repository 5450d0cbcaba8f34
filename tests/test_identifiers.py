import pytest
from hypothesis import given, settings, strategies as st

from vmorph.identifiers import (
    EXTERNAL,
    PROJECT,
    classify_origin,
    collect_identifiers,
    convention,
    load_stdlib_index,
    project_imports,
    tokenize_identifier,
)
from vmorph.lexer import IDENT, tokenize
from vmorph.nodes import CLASS, FUNCTION, VARIABLE
from vmorph.parser import parse
from vmorph.rename import assemble_identifier


@pytest.fixture(scope="module")
def guard_project(fixtures_dir):
    files = ["PathGuard.java", "FileService.java"]
    return [
        parse((fixtures_dir / "project2" / f).read_text(), f) for f in files
    ]


@pytest.fixture(scope="module")
def guard_table(guard_project):
    table = collect_identifiers(guard_project)
    return classify_origin(table, project_imports(guard_project), load_stdlib_index())


def test_local_variable_is_project(guard_table):
    entry = guard_table.entries["pathToCheck"]
    assert entry.kind == VARIABLE
    assert entry.origin == PROJECT


def test_library_method_is_external(guard_table):
    entry = guard_table.entries["startsWith"]
    assert entry.kind == FUNCTION
    assert entry.origin == EXTERNAL
    assert entry.decl_sites == ()


def test_cross_file_helper_resolves(guard_table):
    # Oracle: the fixture's symbol table by hand. checkDirectoryTraversal is
    # declared in PathGuard.java and called from the buggy method.
    entry = guard_table.entries["checkDirectoryTraversal"]
    assert entry.origin == PROJECT
    assert entry.kind == FUNCTION
    assert len(entry.decl_sites) == 1
    assert entry.decl_sites[0].file == "PathGuard.java"
    assert len(entry.use_sites) == 1


def test_cross_file_class_use(guard_table):
    entry = guard_table.entries["PathGuard"]
    assert entry.origin == PROJECT
    assert entry.kind == CLASS
    assert {s.file for s in entry.use_sites} == {"FileService.java"}


def test_universal_object_method_external(guard_project):
    project = [parse("class A { boolean f(Object o, Object p) { return o.equals(p); } }", "A.java")]
    table = classify_origin(collect_identifiers(project), [], load_stdlib_index())
    assert table.entries["equals"].origin == EXTERNAL


def test_classify_is_idempotent(guard_project, guard_table):
    again = classify_origin(guard_table, project_imports(guard_project), load_stdlib_index())
    assert again.entries == guard_table.entries


def test_focus_restricts_to_method(guard_project):
    buggy = guard_project[0].types[0].methods[0]
    table = collect_identifiers(guard_project, focus=buggy)
    assert "isInsideParent" in table.entries
    assert "pathToCheck" in table.entries
    assert "checkDirectoryTraversal" in table.entries
    # Declared in the other method only; never occurs in the focus method.
    assert "probe" not in table.entries
    # Sites still resolved project-wide: the cross-file use is attributed.
    assert len(table.entries["isInsideParent"].use_sites) == 1


def test_unresolved_identifier_warning():
    project = [parse("class A { void f() { mystery(); } }", "A.java")]
    table = classify_origin(collect_identifiers(project), [], load_stdlib_index())
    assert table.entries["mystery"].origin == EXTERNAL
    assert [d.name for d in table.diagnostics] == ["mystery"]


def test_import_explains_use():
    project = [parse(
        "import com.vendor.Widget;\nclass A { void f() { Widget.run(); } }", "A.java")]
    table = classify_origin(collect_identifiers(project), project_imports(project),
                            load_stdlib_index())
    assert table.entries["Widget"].origin == EXTERNAL
    assert all(d.name != "Widget" for d in table.diagnostics)


def test_attribution_totality(guard_project):
    """Every identifier token in the sources is attributed to exactly one entry."""
    table = collect_identifiers(guard_project)
    site_counts: dict[str, int] = {}
    for entry in table.entries.values():
        site_counts[entry.name] = len(entry.decl_sites) + len(entry.use_sites)
    from vmorph.nodes import PRIMITIVE_TYPES
    from pathlib import Path

    token_counts: dict[str, int] = {}
    import conftest

    for name in ("PathGuard.java", "FileService.java"):
        text = (conftest.FIXTURES / "project2" / name).read_text()
        # Package and import statements carry dotted names the table does not
        # track (imports contribute only their class-name tail, absent here).
        body = "\n".join(
            line for line in text.splitlines()
            if not line.startswith(("package ", "import "))
        )
        tokens = tokenize(body, name)
        for kind, tok in zip(tokens.kinds, tokens.texts):
            if kind == IDENT and tok not in PRIMITIVE_TYPES:
                token_counts[tok] = token_counts.get(tok, 0) + 1
    assert token_counts == site_counts


# ---------------------------------------------------------------------------
# Tokenization
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name, tokens",
    [
        ("parentPath", ["parent", "path"]),
        ("node_count", ["node", "count"]),
        ("parseXMLHeader", ["parse", "xml", "header"]),
        ("XMLParser", ["xml", "parser"]),
        ("value", ["value"]),
        ("FileService", ["file", "service"]),
        ("itemTally2", ["item", "tally2"]),
    ],
)
def test_tokenize_identifier(name, tokens):
    assert tokenize_identifier(name) == tokens


@pytest.mark.parametrize(
    "name, conv",
    [("parentPath", "camel"), ("node_count", "snake"), ("FileService", "pascal")],
)
def test_convention(name, conv):
    assert convention(name) == conv


# Words of length >= 2: adjacent single-letter words would reassemble into an
# acronym run, which deliberately tokenizes as one word.
_WORDS = st.lists(
    st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=2, max_size=6),
    min_size=1,
    max_size=4,
)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(words=_WORDS, conv=st.sampled_from(["camel", "snake", "pascal"]))
def test_tokenize_assemble_inverse(words, conv):
    """assemble(tokenize(n), convention(n)) == n for convention-regular names."""
    name = assemble_identifier(words, conv)
    assert convention(name) == conv or len(words) == 1
    assert tokenize_identifier(name) == words
    assert assemble_identifier(tokenize_identifier(name), convention(name)) == name


def test_stdlib_index_env_override(tmp_path, monkeypatch):
    custom = tmp_path / "names.txt"
    custom.write_text("# comment\nonlyName\n")
    monkeypatch.setenv("VMORPH_STDLIB_INDEX", str(custom))
    assert load_stdlib_index() == frozenset({"onlyName"})


def test_focus_table_is_the_full_table_filtered_to_the_focus_names(guard_project):
    classify = lambda table: classify_origin(  # noqa: E731
        table, project_imports(guard_project), load_stdlib_index())
    full = collect_identifiers(guard_project)
    for focus in (m for src in guard_project for cls in src.types for m in cls.methods):
        # The focus names, found independently of the walk: every entry with
        # a site inside the method's span.
        names = {name for name, e in full.entries.items()
                 if any(focus.span.contains(s) for s in e.decl_sites + e.use_sites)}
        table = collect_identifiers(guard_project, focus=focus)
        assert list(table.entries.items()) == [
            (name, e) for name, e in full.entries.items() if name in names]
        assert [(d.name, d.span) for d in classify(table).diagnostics] == [
            (d.name, d.span) for d in classify(full).diagnostics if d.name in names]
        assert table.names == full.names == set(full.entries)
