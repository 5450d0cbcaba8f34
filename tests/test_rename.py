import gc
import inspect
import json
from importlib import resources

import pytest

from vmorph.errors import JavaSyntaxError, StaleDictionary, VmorphError
from vmorph.identifiers import (
    classify_origin,
    collect_identifiers,
    load_stdlib_index,
    project_imports,
)
from vmorph.lexer import IDENT, tokenize
from vmorph.nodes import structurally_equal
from vmorph.parser import parse
from vmorph.printer import print_source
from vmorph.rename import (
    RenameDictionary,
    SynonymLexicon,
    apply_rename,
    assemble_identifier,
    build_rename_plan,
    propose_synonyms,
    recover_patch,
)

FIXTURE_LEXICON = SynonymLexicon(
    {
        "parent": ("progenitor",),
        "path": ("route",),
        "check": ("verify", "inspect"),
        "item": ("entry",),
        "tally": ("count",),
    }
)


def _classified_table(project):
    table = collect_identifiers(project)
    return classify_origin(table, project_imports(project), load_stdlib_index())


@pytest.fixture(scope="module")
def guard_project(fixtures_dir):
    return [
        parse((fixtures_dir / "project2" / f).read_text(), f)
        for f in ("PathGuard.java", "FileService.java")
    ]


def test_propose_synonyms_lookup():
    assert propose_synonyms(["parent", "path"], FIXTURE_LEXICON) == [["progenitor"], ["route"]]
    assert propose_synonyms(["xml"], FIXTURE_LEXICON) == [["xml"]]
    assert propose_synonyms(["check"], FIXTURE_LEXICON) == [["verify", "inspect"]]


def test_the_bundled_lexicon_loads_the_same_through_its_path():
    path = resources.files("vmorph.data").joinpath("synonyms.tsv")
    assert SynonymLexicon.load(str(path)) == SynonymLexicon.load()


def test_assemble_identifier():
    assert assemble_identifier(["progenitor", "route"], "camel") == "progenitorRoute"
    assert assemble_identifier(["node", "tally"], "snake") == "node_tally"
    assert assemble_identifier(["file", "service"], "pascal") == "FileService"


@pytest.mark.parametrize("tokens, convention, message", [
    ([], "camel", "cannot assemble an identifier from no tokens"),
    (["node"], "kebab", "unknown convention 'kebab'"),
])
def test_an_identifier_cannot_be_assembled(tokens, convention, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        assemble_identifier(tokens, convention)


def test_plan_uses_first_ranked_synonyms():
    project = [parse("class A { void f() { int parentPath = 0; mark(parentPath); } }", "A.java")]
    plan = build_rename_plan(_classified_table(project), FIXTURE_LEXICON)
    assert plan.forward["parentPath"] == "progenitorRoute"


def test_external_names_absent_from_plan(guard_project):
    plan = build_rename_plan(_classified_table(guard_project), SynonymLexicon.load())
    assert "startsWith" not in plan.forward
    assert "normalize" not in plan.forward
    assert "String" not in plan.forward


@pytest.mark.parametrize("method", ["equals", "hashCode", "toString", "clone", "finalize"])
def test_an_override_of_an_object_method_keeps_its_name(method):
    """`"" + box` calls Box.toString, and a HashMap calls equals and hashCode:
    a project method that overrides a method of Object is called by name from
    outside the project, so renaming it would change what those calls run."""
    source = (f"class Box {{ public String {method}() {{ return \"box\"; }} "
              "String label() { return \"\" + this; } }")
    project = [parse(source, "Box.java")]
    table = _classified_table(project)
    assert table.entries[method].origin == "external"
    plan = build_rename_plan(table, SynonymLexicon.load())
    assert method not in plan.forward
    assert "label" in plan.forward


def test_collision_gets_numeric_suffix():
    source = (
        "class A { void f() { int itemTally = 0; mark(itemTally); } "
        "void g() { int item_tally = 0; mark(item_tally); } }"
    )
    project = [parse(source, "A.java")]
    plan = build_rename_plan(_classified_table(project), FIXTURE_LEXICON)
    new_names = {plan.forward["itemTally"], plan.forward["item_tally"]}
    assert len(new_names) == 2  # injective
    assert "entryCount" in new_names
    assert "entryCount2" in new_names or "entry_count" in new_names


@pytest.mark.parametrize("name, lexicon, new", [
    # `_2x`'s one word is `2x`, which assembles to `2x`
    ("_2x", SynonymLexicon.load(), None),
    ("treat", SynonymLexicon({"treat": ("ice cream",)}), None),
    ("treat", SynonymLexicon({"treat": ("ice cream", "sweet")}), "sweet"),
], ids=["digit-word", "spaced-candidate", "next-candidate"])
def test_the_plan_proposes_only_identifiers(name, lexicon, new):
    project = [parse(f"class A {{ int f() {{ int {name} = 0; return {name}; }} }}", "A.java")]
    plan = build_rename_plan(_classified_table(project), lexicon)
    assert plan.forward.get(name) == new
    assert "f" in plan.forward


def test_review_hook_accept_edit_skip():
    source = "class A { void f() { int parentPath = 0; int checkPath = 1; mark(parentPath + checkPath); } }"
    project = [parse(source, "A.java")]

    def review(original, proposed):
        if original == "parentPath":
            return None  # skip
        if original == "checkPath":
            return "auditTrail"  # edit
        return proposed  # accept

    plan = build_rename_plan(_classified_table(project), FIXTURE_LEXICON, review=review)
    assert "parentPath" not in plan.forward
    assert plan.forward["checkPath"] == "auditTrail"


def test_dictionary_json_schema(tmp_path):
    forward = {"parentPath": "progenitorRoute", "checkPath": "verifyRoute"}
    kinds = {"parentPath": "variable", "checkPath": "variable"}
    dct = RenameDictionary.build(forward, kinds)
    data = json.loads(dct.dumps())
    assert set(data) == {"forward", "kinds"}
    assert data["forward"] == forward
    restored = RenameDictionary.loads(dct.dumps())
    assert restored.forward == forward
    assert restored.backward == {v: k for k, v in forward.items()}


def test_dictionary_rejects_non_injective():
    with pytest.raises(ValueError):
        RenameDictionary.build({"a": "same", "b": "same"}, {})


def test_dictionary_rejects_reserved_word():
    with pytest.raises(ValueError):
        RenameDictionary.build({"a": "while"}, {})


@pytest.mark.parametrize("forward, bad", [
    ({"count": "a b"}, "a b"),
    ({"a b": "count"}, "a b"),
    ({"count": "tally1;"}, "tally1;"),
    ({"count": " tally"}, " tally"),
    ({"count": "7up"}, "7up"),
    ({"count": ""}, ""),
])
def test_dictionary_loads_only_identifiers(forward, bad):
    """A name that is not one identifier token could never be mapped back
    by recover_patch, which substitutes whole identifier tokens."""
    with pytest.raises(VmorphError) as exc:
        RenameDictionary.loads(json.dumps({"forward": forward}))
    assert str(exc.value) == f"field 'forward': {bad!r} is not an identifier"


def test_apply_rename_round_trip_bytes(guard_project):
    plan = build_rename_plan(_classified_table(guard_project), SynonymLexicon.load())
    renamed = apply_rename(guard_project, plan)
    restored = apply_rename(renamed, plan.inverted())
    for original, back in zip(guard_project, restored):
        assert print_source(back) == print_source(original)


def test_apply_rename_keeps_stdlib_names(guard_project):
    plan = build_rename_plan(_classified_table(guard_project), SynonymLexicon.load())
    renamed = apply_rename(guard_project, plan)
    for original, out in zip(guard_project, renamed):
        before, after = print_source(original), print_source(out)
        for library_name in ("startsWith", "normalize", "concat", "String"):
            assert before.count(library_name) == after.count(library_name)


def test_a_rename_leaves_no_reference_cycle_of_its_walk(guard_project):
    """The walk passes itself on as a partial, not as a closure that calls
    itself: with the collector off, such a closure and its cell would stay
    behind after every rename."""
    plan = build_rename_plan(_classified_table(guard_project), SynonymLexicon.load())
    gc.collect()
    gc.disable()
    try:
        apply_rename(guard_project, plan)
        left = [f for f in gc.get_objects()
                if inspect.isfunction(f) and "rename_identifiers.<locals>" in f.__qualname__]
    finally:
        gc.enable()
    assert left == []


def test_empty_dictionary_is_identity(guard_project):
    empty = RenameDictionary.build({}, {})
    renamed = apply_rename(guard_project, empty)
    for original, out in zip(guard_project, renamed):
        assert structurally_equal(original, out)


def test_stale_dictionary_detected(guard_project):
    ghost = RenameDictionary.build({"noSuchName": "other"}, {"noSuchName": "variable"})
    with pytest.raises(StaleDictionary):
        apply_rename(guard_project, ghost)


def test_file_without_a_mapped_name_comes_back_as_the_same_object():
    a = parse("class A { int f(int count) { return count; } int g(int v) { return v; } }",
              "A.java")
    b = parse("import java.util.*; class B { int h(int v) { return v + 1; } }", "B.java")
    dct = RenameDictionary.build({"count": "tally"}, {"count": "variable"})
    out = apply_rename([a, b], dct)
    assert out[1] is b
    assert "tally" in print_source(out[0]) and "count" not in print_source(out[0])
    # Inside a changed file, a method with no mapped name is shared too.
    assert out[0].types[0].members[1] is a.types[0].members[1]


def test_wildcard_tail_and_primitive_type_name_are_occurrences():
    """Neither is renamed, but neither makes the key stale."""
    b = parse("import java.util.*; class B { int h(int v) { return v + 1; } }", "B.java")
    for key in ("util", "int"):
        assert apply_rename([b], RenameDictionary.build({key: "other"}, {})) == [b]


def test_shape_preserved(guard_project):
    """Renaming changes identifier payloads only, never the tree shape."""
    from vmorph.nodes import walk

    plan = build_rename_plan(_classified_table(guard_project), SynonymLexicon.load())
    renamed = apply_rename(guard_project, plan)
    for original, out in zip(guard_project, renamed):
        kinds_in = [type(n).__name__ for n in walk(original)]
        kinds_out = [type(n).__name__ for n in walk(out)]
        assert kinds_in == kinds_out


def test_cross_file_rename_consistency(guard_project):
    plan = build_rename_plan(_classified_table(guard_project), SynonymLexicon.load())
    renamed = apply_rename(guard_project, plan)
    caller = print_source(renamed[1])
    new_method = plan.forward["isInsideParent"]
    assert new_method in caller
    assert "isInsideParent" not in caller


# ---------------------------------------------------------------------------
# Patch recovery
# ---------------------------------------------------------------------------


def test_recover_patch_substitutes_tokens():
    dct = RenameDictionary.build(
        {"parentPath": "progenitorRoute"}, {"parentPath": "variable"})
    assert recover_patch("progenitorRoute.normalize()", dct) == "parentPath.normalize()"


def test_recover_patch_ignores_unknown_tokens():
    dct = RenameDictionary.build({"a": "b"}, {"a": "variable"})
    patch = "return c + d;  // untouched"
    assert recover_patch(patch, dct) == patch


def test_recover_patch_leaves_strings_and_comments():
    dct = RenameDictionary.build({"alpha": "beta"}, {"alpha": "variable"})
    patch = 'beta = beta + "beta"; // beta'
    assert recover_patch(patch, dct) == 'alpha = alpha + "beta"; // beta'


def test_recover_patch_rejects_a_huge_int_literal_as_a_syntax_error():
    dct = RenameDictionary.build({"alpha": "beta"}, {"alpha": "variable"})
    with pytest.raises(JavaSyntaxError, match="integer literal out of 32-bit range"):
        recover_patch("beta = " + "9" * 5000 + ";", dct)


def test_class_rename_includes_constructor():
    source = (
        "class FileService { FileService(int size) { mark(size); } "
        "void touch() { x = new FileService(1); } }"
    )
    project = [parse(source, "FileService.java")]
    plan = build_rename_plan(_classified_table(project), SynonymLexicon.load())
    new_class = plan.forward["FileService"]
    renamed = print_source(apply_rename(project, plan)[0])
    assert f"class {new_class} {{" in renamed
    assert f"{new_class}(int" in renamed  # constructor follows the class
    assert f"new {new_class}(" in renamed
    assert "FileService" not in renamed


def test_rename_preserves_interpreter_outcomes(corpus_files):
    """Alpha-equivalence: renaming never changes evaluation results."""
    from vmorph.interp import check_equivalence

    ast = corpus_files["CorpusArgs.java"]
    project = [ast]
    plan = build_rename_plan(_classified_table(project), SynonymLexicon.load())
    renamed = apply_rename(project, plan)[0]
    for original in ast.types[0].methods:
        new_name = plan.forward.get(original.name, original.name)
        twin = next(m for m in renamed.types[0].methods if m.name == new_name)
        verdict = check_equivalence(original, twin, trials=60, seed=4,
                                    context1=ast, context2=renamed)
        assert verdict.verdict == "equivalent", original.name


def _identifier_texts(text):
    tokens = tokenize(text)
    return [tok for kind, tok in zip(tokens.kinds, tokens.texts) if kind == IDENT]


def test_recover_inverts_rename_token_stream(guard_project):
    plan = build_rename_plan(_classified_table(guard_project), SynonymLexicon.load())
    renamed = apply_rename(guard_project, plan)
    for original, out in zip(guard_project, renamed):
        recovered = recover_patch(print_source(out), plan)
        assert _identifier_texts(print_source(original)) == _identifier_texts(recovered)


def test_data_files_skip_blank_lines_and_indented_comments_alike(tmp_path, monkeypatch):
    # The lexicon reads its lines as the stdlib index and the purity
    # whitelist do: stripped, so a `#` after leading blanks starts a comment.
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("  # an indented comment\n\nword\t syn , alt\n")
    assert SynonymLexicon.load(str(lexicon)).words == {"word": ("syn", "alt")}
    index = tmp_path / "index.txt"
    index.write_text("  # an indented comment\n\n  String \n")
    monkeypatch.setenv("VMORPH_STDLIB_INDEX", str(index))
    assert load_stdlib_index() == frozenset({"String"})


def test_a_malformed_lexicon_line_is_named_by_its_line_number(tmp_path):
    lexicon = tmp_path / "lexicon.tsv"
    lexicon.write_text("# header\n\nword\tsyn\nno tab here\n")
    with pytest.raises(VmorphError, match=f"^{lexicon}: lexicon line 4: expected word<TAB>"):
        SynonymLexicon.load(str(lexicon))


@pytest.mark.parametrize("words, message", [
    ({"word": ()}, "lexicon word 'word' has no candidates"),
    ({"word": ("word", "syn")}, "lexicon word 'word' maps to itself first"),
    ({"word": ("syn", "Alt")}, "candidate 'Alt' for 'word' is not lowercase"),
], ids=["no-candidates", "itself-first", "capitalised-candidate"])
def test_a_lexicon_entry_is_checked(words, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        SynonymLexicon(words)


def test_dictionary_fields_are_checked_by_name():
    with pytest.raises(VmorphError, match=r"^field 'kinds' must be a map of names to names"):
        RenameDictionary.loads(json.dumps({"forward": {"a": "b"}, "kinds": {"a": 1}}))
    with pytest.raises(VmorphError, match=r"^expected a JSON object"):
        RenameDictionary.loads("[]")
