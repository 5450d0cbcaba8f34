import dataclasses
import json
import os
import re
import shutil
import stat
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from vmorph.bench import (
    ALL_VARIANTS,
    BenchmarkManifest,
    EXTERNAL_PENDING,
    VariantKind,
    VulnRecord,
    external_validate,
    generate_variants,
    load_record,
)
from vmorph import bench
from vmorph.cli import main as cli_main
from vmorph.errors import RunnerNotFound, StaleDictionary
from vmorph.identifiers import collect_identifiers
from vmorph.lexer import IDENT, tokenize
from vmorph.nodes import Declarator, Name, Span, walk
from vmorph.parser import parse
from vmorph.printer import print_source
from vmorph.rename import RenameDictionary, SynonymLexicon, recover_patch


@pytest.fixture(scope="module")
def lexicon():
    return SynonymLexicon.load()


@pytest.fixture()
def guard_record(fixtures_dir, tmp_path):
    src = fixtures_dir / "project2"
    root = tmp_path / "project"
    shutil.copytree(src, root)
    return load_record(root)


def test_load_record(guard_record):
    assert guard_record.id == "Halo-1"
    assert guard_record.buggy_file == "PathGuard.java"
    assert guard_record.buggy_lines.start_line == 9
    assert guard_record.cwe == "CWE-22"


def test_single_record_three_entries(guard_record, lexicon, tmp_path):
    manifest = generate_variants([guard_record], lexicon, tmp_path / "out", seed=1)
    assert len(manifest.entries) == 3
    assert [e.variant for e in manifest.entries] == list(ALL_VARIANTS)
    for entry in manifest.entries:
        assert entry.error is None


def test_zero_records_empty_manifest(lexicon, tmp_path):
    manifest = generate_variants([], lexicon, tmp_path / "out", seed=1)
    assert manifest.entries == []


def test_generated_paths_exist_and_are_relative(guard_record, lexicon, tmp_path):
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    base = manifest.path.parent
    for entry in manifest.entries:
        assert not Path(entry.output_root).is_absolute()
        assert (base / entry.output_root).is_dir()
        assert (base / entry.report).is_file()
        if entry.variant is not VariantKind.STRUCTURE_ONLY:
            assert (base / entry.dictionary).is_file()
        else:
            assert entry.dictionary is None


def test_rename_variant_renames_and_recovers(guard_record, lexicon, tmp_path):
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    entry = manifest.entries[0]
    renamed_file = out / entry.output_root / "PathGuard.java"
    text = renamed_file.read_text()
    assert "pathToCheck" not in text
    assert "startsWith" in text  # library names intact
    dictionary = json.loads((out / entry.dictionary).read_text())
    assert "pathToCheck" in dictionary["forward"]
    assert dictionary["kinds"]["pathToCheck"] == "variable"


def test_structure_variant_touches_only_buggy_function(guard_record, lexicon, tmp_path):
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    entry = manifest.entries[1]
    assert entry.variant is VariantKind.STRUCTURE_ONLY
    text = (out / entry.output_root / "PathGuard.java").read_text()
    # The buggy method's if-else is flipped and the normalize() argument
    # extracted into a named local...
    assert "if (!pathToCheck.startsWith(parentPath))" in text
    assert "var normalizedParentPath = parentPath.normalize();" in text
    # ...while the helper method's body is untouched and identifiers keep
    # their names.
    assert 'String probe = candidatePath.concat("/");' in text
    report = json.loads((out / entry.report).read_text())
    assert report["applied"]


def test_both_variant_uses_same_dictionary(guard_record, lexicon, tmp_path):
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    rename_entry, _, both_entry = manifest.entries
    assert rename_entry.dictionary == both_entry.dictionary
    both_text = (out / both_entry.output_root / "PathGuard.java").read_text()
    dictionary = json.loads((out / both_entry.dictionary).read_text())
    renamed_path_var = dictionary["forward"]["pathToCheck"]
    assert renamed_path_var in both_text


def test_suggested_filenames_follow_class_renames(guard_record, lexicon, tmp_path):
    manifest = generate_variants([guard_record], lexicon, tmp_path / "out", seed=1)
    entry = manifest.entries[0]
    # Class names occur in the buggy method's project-wide identifier set only
    # when referenced there; PathGuard itself is not, so no suggestion for it.
    assert isinstance(entry.suggested_filenames, dict)


def test_manifest_round_trips(guard_record, lexicon, tmp_path):
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    loaded = BenchmarkManifest.load(manifest.path)
    assert loaded.to_json_dict() == manifest.to_json_dict()


def test_generation_failure_recorded(lexicon, tmp_path):
    root = tmp_path / "broken"
    root.mkdir()
    (root / "Broken.java").write_text("class Broken { void f() { } }")
    record = VulnRecord("Broken-1", str(root), "Missing.java", Span("Missing.java", 1, 1, 1, 1))
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert len(manifest.entries) == 3
    for entry in manifest.entries:
        assert entry.error is not None


def test_unparseable_extra_file_copied_verbatim(guard_record, lexicon, tmp_path):
    exotic = Path(guard_record.project_root) / "Exotic.java"
    exotic.write_text("class Exotic { void f() { list.forEach(x -> use(x)); } }")
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    entry = manifest.entries[0]
    assert entry.error is None
    assert any("Exotic.java" in note for note in entry.notes)
    copied = (out / entry.output_root / "Exotic.java").read_text()
    assert copied == exotic.read_text()


def test_equivalence_external_pending_for_unsupported(guard_record, lexicon, tmp_path):
    # The fixture's buggy method calls normalize(), outside the oracle subset.
    manifest = generate_variants([guard_record], lexicon, tmp_path / "out", seed=1)
    for entry in manifest.entries:
        assert entry.equivalence == EXTERNAL_PENDING


def test_equivalence_verdict_for_supported(lexicon, tmp_path):
    root = tmp_path / "mini"
    root.mkdir()
    (root / "Mini.java").write_text(
        "public class Mini {\n"
        "    static int pick(int a, int b) {\n"
        "        if (a > b) {\n"
        "            return a;\n"
        "        } else {\n"
        "            return b;\n"
        "        }\n"
        "    }\n"
        "}\n"
    )
    record = VulnRecord("Mini-1", str(root), "Mini.java", Span("Mini.java", 3, 1, 7, 1))
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=3)
    for entry in manifest.entries:
        assert entry.error is None
        assert isinstance(entry.equivalence, dict)
        assert entry.equivalence["verdict"] == "equivalent"


def test_deterministic_across_runs(guard_record, lexicon, tmp_path):
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    generate_variants([guard_record], lexicon, out1, seed=5)
    generate_variants([guard_record], lexicon, out2, seed=5)
    files1 = sorted(p.relative_to(out1).as_posix() for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2).as_posix() for p in out2.rglob("*") if p.is_file())
    assert files1 == files2
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel


# ---------------------------------------------------------------------------
# External validation
# ---------------------------------------------------------------------------


def _runner_script(tmp_path, exit_code: int) -> str:
    script = tmp_path / f"runner{exit_code}.sh"
    script.write_text(f"#!/bin/sh\nexit {exit_code}\n")
    script.chmod(script.stat().st_mode | stat.S_IXUSR)
    return str(script)


def test_external_validate_exit_codes(guard_record, lexicon, tmp_path):
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    entry = manifest.entries[0]
    base = manifest.path.parent

    passing = _runner_script(tmp_path, 0)
    result = external_validate(entry, passing + " {project} {report}", base)
    assert result == {"external": "passed", "exit_code": 0}
    assert entry.equivalence == result

    failing = _runner_script(tmp_path, 1)
    assert external_validate(entry, failing + " {project} {report}", base)["external"] == "failed"

    erroring = _runner_script(tmp_path, 3)
    assert external_validate(entry, erroring + " {project} {report}", base)["external"] == "error"


def test_external_validate_passes_a_path_with_a_space_as_one_word(guard_record, lexicon,
                                                                  tmp_path):
    manifest = generate_variants([guard_record], lexicon, tmp_path / "out dir", seed=1)
    runner = "sh -c 'test $# -eq 2 && test -d \"$1\"' runner {project} {report}"
    result = external_validate(manifest.entries[0], runner, manifest.path.parent)
    assert result == {"external": "passed", "exit_code": 0}


def test_external_validate_missing_runner(guard_record, lexicon, tmp_path):
    out = tmp_path / "out"
    manifest = generate_variants([guard_record], lexicon, out, seed=1)
    with pytest.raises(RunnerNotFound):
        external_validate(manifest.entries[0], "/no/such/binary {project} {report}",
                          manifest.path.parent)


def test_external_validate_requires_placeholders(guard_record, lexicon, tmp_path):
    manifest = generate_variants([guard_record], lexicon, tmp_path / "out", seed=1)
    with pytest.raises(ValueError):
        external_validate(manifest.entries[0], "true", tmp_path / "out")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_transform_and_recover(guard_record, tmp_path, capsys):
    out = tmp_path / "cli-out"
    rc = cli_main([
        "transform", "--mode", "all", "--project", guard_record.project_root,
        "--out", str(out), "--seed", "7",
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "Halo-1/rename: ok" in captured.out
    manifest = BenchmarkManifest.load(out / "manifest.json")
    assert len(manifest.entries) == 3

    # recover a patch written against the renamed code
    dictionary = json.loads((out / manifest.entries[0].dictionary).read_text())
    renamed = dictionary["forward"]["pathToCheck"]
    patch = tmp_path / "patch.java"
    patch.write_text(f"return {renamed}.normalize();")
    rc = cli_main(["recover", "--dict", str(out / manifest.entries[0].dictionary),
                   "--patch", str(patch)])
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.out == "return pathToCheck.normalize();"


def test_cli_transform_names_a_failed_entry_once(tmp_path, capsys):
    root = tmp_path / "broken"
    root.mkdir()
    (root / "Broken.java").write_text("class Broken { void f() { } }")
    (root / "vuln.json").write_text(json.dumps(
        {"id": "Broken-1", "buggy_file": "Missing.java", "buggy_lines": [1, 1]}))
    out = tmp_path / "out"
    rc = cli_main(["transform", "--mode", "rename", "--project", str(root), "--out", str(out)])
    assert rc == 1
    error = BenchmarkManifest.load(out / "manifest.json").entries[0].error
    assert error.startswith("Broken-1/rename: ")
    assert capsys.readouterr().out.splitlines()[0] == error


def test_cli_reports_a_missing_project_descriptor(tmp_path, capsys):
    root = tmp_path / "empty"
    root.mkdir()
    rc = cli_main(["transform", "--mode", "all", "--project", str(root),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("vmorph: error: ") and "vuln.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("missing", ["dict", "patch"])
def test_cli_recover_reports_a_missing_file(tmp_path, capsys, missing):
    files = {"dict": tmp_path / "dictionary.json", "patch": tmp_path / "patch.java"}
    files["dict"].write_text(json.dumps({"forward": {}, "kinds": {}}))
    files["patch"].write_text("return x;")
    files[missing] = tmp_path / "absent"
    rc = cli_main(["recover", "--dict", str(files["dict"]), "--patch", str(files["patch"])])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("vmorph: error: ") and "absent" in err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_cli_rejects_fewer_than_one_trial(guard_record, tmp_path, capsys, trials):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        cli_main(["transform", "--mode", "all", "--project", guard_record.project_root,
                  "--out", str(out), "--trials", trials])
    assert exc.value.code == 2
    assert "--trials" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flag, value", [
    ("transform", "--fuel", "0"), ("transform", "--fuel", "-5"), ("prompt", "--max-window", "0"),
])
def test_cli_rejects_a_budget_below_one(guard_record, fixtures_dir, tmp_path, capsys,
                                        command, flag, value):
    out = tmp_path / "out"
    argv = {"transform": ["transform", "--mode", "all", "--project", guard_record.project_root,
                          "--out", str(out)],
            "prompt": ["prompt", "--format", "codet5-mask", "--lines", "6:6",
                       "--file", str(fixtures_dir / "golden" / "Sample.java")]}[command]
    with pytest.raises(SystemExit) as exc:
        cli_main(argv + [flag, value])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: expected at least 1, got {value}" in err
    assert not out.exists()


@pytest.mark.parametrize("confidence, stdin, detail", [
    ("1.5", "9 10 11", "confidence must lie strictly between 0 and 1"),
    ("0.95", "9 ten 11", "could not convert string to float: 'ten'"),
    ("0.95", "9 inf 11", "samples must be finite numbers"),
], ids=["confidence", "sample", "infinite-sample"])
def test_cli_stats_moe_reports_bad_input(monkeypatch, capsys, confidence, stdin, detail):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
    rc = cli_main(["stats", "moe", "--confidence", confidence])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.err == f"vmorph: error: stats moe: {detail}\n"
    assert captured.out == ""


def test_cli_prompt(fixtures_dir, capsys):
    sample = fixtures_dir / "golden" / "Sample.java"
    rc = cli_main(["prompt", "--format", "codet5-mask", "--file", str(sample),
                   "--lines", "6:6"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["format"] == "codet5-mask"
    assert data["text"].count("<extra_id_0>") == 1


def test_cli_stats_moe(monkeypatch, capsys):
    import io

    monkeypatch.setattr(sys, "stdin", io.StringIO("9\n10\n11\n"))
    rc = cli_main(["stats", "moe", "--confidence", "0.95"])
    assert rc == 0
    value = float(capsys.readouterr().out.strip())
    assert abs(value - 2.484137711750331071) < 1e-9


def test_cli_validate(guard_record, tmp_path, capsys):
    out = tmp_path / "cli-out"
    cli_main(["transform", "--mode", "rename", "--project", guard_record.project_root,
              "--out", str(out), "--seed", "7"])
    capsys.readouterr()
    runner = _runner_script(tmp_path, 0)
    rc = cli_main(["validate", "--manifest", str(out / "manifest.json"),
                   "--runner", runner + " {project} {report}"])
    assert rc == 0
    assert "Halo-1/rename: passed" in capsys.readouterr().out
    manifest = BenchmarkManifest.load(out / "manifest.json")
    assert manifest.entries[0].equivalence == {"external": "passed", "exit_code": 0}


def test_cli_mode_filters_variants(guard_record, tmp_path, capsys):
    out = tmp_path / "only-structure"
    rc = cli_main(["transform", "--mode", "structure", "--project",
                   guard_record.project_root, "--out", str(out)])
    assert rc == 0
    capsys.readouterr()
    manifest = BenchmarkManifest.load(out / "manifest.json")
    assert [e.variant for e in manifest.entries] == [VariantKind.STRUCTURE_ONLY]


def _one_file_record(root: Path, rid: str, source: str, first: int, last: int) -> VulnRecord:
    root.mkdir(parents=True)
    (root / "A.java").write_text(source)
    return VulnRecord(rid, str(root), "A.java", Span("A.java", first, 1, last, 1))


def test_static_field_method_is_external_pending(lexicon, tmp_path):
    source = (
        "class A {\n"
        "    static int count;\n"
        "    static int run(int n) {\n"
        "        if (n > 100) {\n"
        "            return count;\n"
        "        }\n"
        "        return n;\n"
        "    }\n"
        "}\n"
    )
    record = _one_file_record(tmp_path / "field", "Field-1", source, 4, 7)
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert len(manifest.entries) == 3
    for entry in manifest.entries:
        assert entry.error is None
        assert entry.equivalence == EXTERNAL_PENDING


def test_deep_expression_record_does_not_depend_on_record_order(lexicon, tmp_path):
    chain = " + ".join(["n"] * 500)
    deep = _one_file_record(tmp_path / "deep", "Deep-1",
                            f"class A {{\n    static int run(int n) {{\n        return {chain};\n"
                            "    }\n}\n", 3, 3)
    plain = _one_file_record(tmp_path / "plain", "Plain-1",
                             "class A {\n    static int run(int n) {\n        return n + 1;\n"
                             "    }\n}\n", 3, 3)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # as in a fresh process
    try:
        runs = []
        for i, records in enumerate(([deep, plain], [plain, deep])):
            manifest = generate_variants(records, lexicon, tmp_path / f"out{i}", seed=1)
            runs.append({(e.record.id, e.variant): e.to_json_dict() for e in manifest.entries})
    finally:
        sys.setrecursionlimit(old)
    assert runs[0] == runs[1]
    assert all(entry["error"] for (rid, _), entry in runs[0].items() if rid == "Deep-1")
    assert all(entry["equivalence"]["verdict"] == "equivalent"
               for (rid, _), entry in runs[0].items() if rid == "Plain-1")


def test_oracle_compiles_each_method_once_per_record(lexicon, tmp_path, monkeypatch):
    from vmorph import interp

    compiled = []
    compile_method = interp._Compiler.compile
    monkeypatch.setattr(interp._Compiler, "compile",
                        lambda self, m: compiled.append(m) or compile_method(self, m))
    record = _one_file_record(tmp_path / "mini", "Mini-2",
                              "class A {\n    static int run(int n) {\n        return n + 1;\n"
                              "    }\n}\n", 3, 3)
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert all(isinstance(e.equivalence, dict) for e in manifest.entries)
    # The original and the three variants, across is_supported, check_equivalence
    # and every trial.
    assert len(compiled) == 4


def test_overloaded_target_method_is_found_by_position(lexicon, tmp_path):
    source = (
        "class A {\n"
        "    static int run(int n) {\n"
        "        return n;\n"
        "    }\n"
        "    static int run(int n, int m) {\n"
        "        int total = 0;\n"
        "        for (int i = 0; i < 3; i = i + 1) {\n"
        "            total = total + n;\n"
        "        }\n"
        "        return total + m;\n"
        "    }\n"
        "}\n"
    )
    record = _one_file_record(tmp_path / "overload", "Over-1", source, 6, 10)
    out = tmp_path / "out"
    manifest = generate_variants([record], lexicon, out, seed=1)
    assert [e.equivalence["verdict"] for e in manifest.entries] == ["equivalent"] * 3
    applied = {e.variant: [row["rule"] for row in
                           json.loads((out / e.report).read_text())["applied"]]
               for e in manifest.entries}
    assert applied[VariantKind.STRUCTURE_ONLY]
    assert applied[VariantKind.BOTH] == applied[VariantKind.STRUCTURE_ONLY]


def test_target_calling_a_later_overload_gets_a_verdict(lexicon, tmp_path):
    source = (
        "class A {\n"
        "    static int run(int n) {\n"
        "        return n;\n"
        "    }\n"
        "    static int run(int n, int m) {\n"
        "        return n + m;\n"
        "    }\n"
        "    static int go(int a) {\n"
        "        int b = a + 1;\n"
        "        return run(b, 1);\n"
        "    }\n"
        "}\n"
    )
    record = _one_file_record(tmp_path / "later", "Later-1", source, 9, 10)
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert [e.equivalence["verdict"] for e in manifest.entries] == ["equivalent"] * 3


def test_constructor_target_gets_every_variant(lexicon, tmp_path):
    source = (
        "class A {\n"
        "    int total;\n"
        "    A(int n) {\n"
        "        total = n;\n"
        "    }\n"
        "}\n"
    )
    record = _one_file_record(tmp_path / "ctor", "Ctor-1", source, 4, 4)
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert [e.error for e in manifest.entries] == [None] * 3


def test_runtime_rejection_is_external_pending(lexicon, tmp_path):
    source = (
        "class A {\n"
        "    static int run(String s) {\n"
        "        String t = s.substring(1);\n"
        "        return t.length();\n"
        "    }\n"
        "}\n"
    )
    record = _one_file_record(tmp_path / "substring", "Sub-1", source, 3, 4)
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert len(manifest.entries) == 3
    for entry in manifest.entries:
        assert entry.error is None
        assert entry.equivalence == EXTERNAL_PENDING


def test_record_nested_past_the_parser_bound_fails_alone(lexicon, tmp_path):
    deep = _one_file_record(tmp_path / "deep", "Parens-1",
                            "class A {\n    static int run(int n) {\n        return "
                            + "(" * 100 + "n" + ")" * 100 + ";\n    }\n}\n", 3, 3)
    plain = _one_file_record(tmp_path / "plain", "Plain-2",
                             "class A {\n    static int run(int n) {\n        return n + 1;\n"
                             "    }\n}\n", 3, 3)
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # as in a fresh process
    try:
        manifest = generate_variants([deep, plain], lexicon, tmp_path / "out", seed=1)
    finally:
        sys.setrecursionlimit(old)
    assert (tmp_path / "out" / "manifest.json").is_file()
    by_record = {}
    for entry in manifest.entries:
        by_record.setdefault(entry.record.id, []).append(entry)
    assert all(e.error and "did not parse" in e.error for e in by_record["Parens-1"])
    assert all(e.error is None for e in by_record["Plain-2"])


def test_unparsed_buggy_file_entries_name_the_reason(lexicon, tmp_path):
    deep = _one_file_record(tmp_path / "deep", "Parens-1",
                            "class A {\n    static int run(int n) {\n        return "
                            + "(" * 100 + "n" + ")" * 100 + ";\n    }\n}\n", 3, 3)
    manifest = generate_variants([deep], lexicon, tmp_path / "out", seed=1)
    assert len(manifest.entries) == 3
    for entry in manifest.entries:
        assert entry.error.startswith("Parens-1/")
        assert "buggy file 'A.java' did not parse: A.java:3:" in entry.error
        assert entry.error.endswith("unsupported construct: nesting deeper than 50")


def test_generate_variants_leaves_process_global_state_alone(lexicon, tmp_path):
    import gc

    good = _one_file_record(tmp_path / "good", "Good-1", (
        "class A {\n    static int run(int n) {\n        int k = n + 1;\n"
        "        return k * 2;\n    }\n}\n"), 3, 4)
    bad = _one_file_record(tmp_path / "bad", "Bad-2",
                           "class A {\n    static int run(int n) {\n        return n +;\n"
                           "    }\n}\n", 3, 3)
    before = (gc.isenabled(), gc.get_threshold(), sys.getrecursionlimit())
    manifest = generate_variants([good, bad], lexicon, tmp_path / "out", seed=1)
    assert (gc.isenabled(), gc.get_threshold(), sys.getrecursionlimit()) == before
    errors = {e.record.id: e.error for e in manifest.entries}
    assert errors["Good-1"] is None and "did not parse" in errors["Bad-2"]


def test_each_distinct_tree_is_printed_once_per_record(lexicon, tmp_path, monkeypatch):
    from vmorph import bench

    record = _one_file_record(tmp_path / "proj", "Three-1", (
        "class A {\n"
        "    static int run(int count, int limit) {\n"
        "        int total = count + limit;\n"
        "        return total;\n"
        "    }\n"
        "}\n"), 3, 4)
    (tmp_path / "proj" / "B.java").write_text("class B { static int twice(int v) { return v + v; } }\n")
    (tmp_path / "proj" / "C.java").write_text("class C { static int zero() { return 0; } }\n")
    printed = []
    print_source = bench.print_source
    monkeypatch.setattr(bench, "print_source", lambda ast: printed.append(ast) or print_source(ast))
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert [e.error for e in manifest.entries] == [None] * 3
    # B and C are the same trees in all three variants; A differs in each.
    assert len(printed) == len({id(ast) for ast in printed}) == 5
    for name in ("B.java", "C.java"):
        texts = {(tmp_path / "out" / "Three-1" / kind / name).read_text()
                 for kind in ("rename", "structure", "both")}
        assert len(texts) == 1


def test_original_runs_once_per_trial_per_record(lexicon, tmp_path, monkeypatch):
    from vmorph import interp

    compiled, runs = [], {}
    compile_method, run = interp._Compiler.compile, interp._run

    def compile_and_record(self, m):
        compiled.append(compile_method(self, m))
        return compiled[-1]

    def counting_run(program, args, fuel):
        runs[program] = runs.get(program, 0) + 1
        return run(program, args, fuel)

    monkeypatch.setattr(interp._Compiler, "compile", compile_and_record)
    monkeypatch.setattr(interp, "_run", counting_run)
    source = (
        "class A {\n"
        "    static int run(int n, String s) {\n"
        "        int total = 0;\n"
        "        for (int i = 0; i < 5; i = i + 1) {\n"
        "            total = total + n;\n"
        "        }\n"
        "        return total + s.length();\n"
        "    }\n"
        "}\n"
    )
    record = _one_file_record(tmp_path / "loop", "Loop-1", source, 3, 7)
    trials = 12
    params = parse(source).types[0].methods[0].params
    vectors = {tuple((type(a), a) for a in interp.generate_args(params, 1, t))
               for t in range(trials)}
    assert len(vectors) == trials  # no trial repeats another's arguments
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1, trials=trials)
    assert all(isinstance(e.equivalence, dict) for e in manifest.entries)
    original, rename, structure, both = compiled
    assert runs[original] == trials
    # The rename variant is the original up to names, and both is structure up
    # to names: each reuses the outcomes of the program it renames.
    assert runs.get(rename, 0) == 0
    assert runs.get(both, 0) == 0
    assert runs.get(structure, 0) <= trials


@pytest.fixture(scope="module")
def mixed_records(tmp_path_factory):
    """Two records that generate and two that fail, each in its own way."""
    root = tmp_path_factory.mktemp("mixed")
    method = "class A {\n    static int run(int n) {\n        %s\n    }\n}\n"
    return [
        _one_file_record(root / "plain", "Plain-3", method % "return n + 1;", 3, 3),
        _one_file_record(root / "loop", "Loop-2", method % (
            "int t = 0; for (int i = 0; i < 3; i = i + 1) { t = t + n; } return t;"), 3, 3),
        _one_file_record(root / "parens", "Parens-2",
                         method % ("return " + "(" * 100 + "n" + ")" * 100 + ";"), 3, 3),
        _one_file_record(root / "huge", "Huge-1", method % ("return " + "7" * 5000 + ";"), 3, 3),
    ]


def _entry_bytes(manifest, out: Path) -> dict:
    """Each entry's JSON and the bytes of every file it wrote, by (record, variant)."""
    found = {}
    for e in manifest.entries:
        written = {}
        if e.output_root:
            for path in sorted((out / e.output_root).rglob("*")):
                if path.is_file():
                    written[str(path.relative_to(out))] = path.read_bytes()
        found[(e.record.id, e.variant)] = (json.dumps(e.to_json_dict(), sort_keys=True), written)
    return found


@settings(derandomize=True, max_examples=6, deadline=None)
@given(order=st.permutations(range(4)), size=st.integers(3, 4))
def test_entries_do_not_depend_on_record_order(mixed_records, lexicon, order, size):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)  # as in a fresh process
    try:
        with tempfile.TemporaryDirectory() as tmp:
            runs = []
            for i, records in enumerate((mixed_records, [mixed_records[k] for k in order[:size]])):
                out = Path(tmp) / f"out{i}"
                runs.append(_entry_bytes(generate_variants(records, lexicon, out, seed=1), out))
    finally:
        sys.setrecursionlimit(old)
    reference, permuted = runs
    assert permuted and all(permuted[key] == reference[key] for key in permuted)
    failed = {rid for (rid, _), (entry, _) in reference.items() if json.loads(entry)["error"]}
    assert failed == {"Parens-2", "Huge-1"}


def test_perfbench_tracer_finds_a_span_for_every_wrapped_attribute(lexicon, tmp_path,
                                                                  monkeypatch):
    """perfbench's traced run (`perfbench/run.py --trace 1`) wraps the module
    attributes in its `tracing.WRAPPED` and fails when one of them is never
    called. The pipeline must keep calling each through its module."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen
    import tracing

    record = load_record(gen.WORKLOADS["small-records"](1)[0].write(tmp_path / "in"))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.begin_record(record.id)
        generate_variants([record], lexicon, tmp_path / "out", seed=0, trials=10)
        tracer.end_record()
        tracer.set_bytes_written(0)
    finally:
        tracer.uninstall()
    tracing.layer_metrics(tracer.spans, 10_000)  # raises for an attribute without a span
    called = {span[0] for span in tracer.spans}
    assert [a for attrs in tracing.WRAPPED.values() for a in attrs if a not in called] == []


# ---------------------------------------------------------------------------
# Input that is not UTF-8, and malformed descriptors
# ---------------------------------------------------------------------------

LATIN_1 = b"class Latin { // caf\xe9\n}\n"


def test_a_file_that_is_not_utf8_is_copied_and_stays_in_its_record(fixtures_dir, lexicon,
                                                                    tmp_path):
    shutil.copytree(fixtures_dir / "project2", tmp_path / "latin")
    (tmp_path / "latin" / "Latin.java").write_bytes(LATIN_1)
    shutil.copytree(fixtures_dir / "project2", tmp_path / "plain")
    latin = load_record(tmp_path / "latin")
    plain = dataclasses.replace(load_record(tmp_path / "plain"), id="Halo-2")
    alone = _entry_bytes(generate_variants([plain], lexicon, tmp_path / "alone", seed=1),
                         tmp_path / "alone")
    out = tmp_path / "out"
    manifest = generate_variants([latin, plain], lexicon, out, seed=1)
    entries = [e for e in manifest.entries if e.record.id == "Halo-1"]
    assert len(entries) == 3
    for entry in entries:
        assert entry.error is None
        assert ("Latin.java: copied verbatim (not UTF-8: invalid continuation byte at byte 20)"
                in entry.notes)
        assert (out / entry.output_root / "Latin.java").read_bytes() == LATIN_1
    both = _entry_bytes(manifest, out)
    assert {key: both[key] for key in alone} == alone


def test_a_buggy_file_that_is_not_utf8_fails_only_its_record(lexicon, tmp_path):
    source = "class A {\n    static int run(int n) {\n        return n + 1;\n    }\n}\n"
    latin = _one_file_record(tmp_path / "latin", "Latin-1", source, 3, 3)
    (tmp_path / "latin" / "A.java").write_bytes(source.replace("n + 1", "n /* \xe9 */")
                                                .encode("latin-1"))
    plain = _one_file_record(tmp_path / "plain", "Plain-1", source, 3, 3)
    manifest = generate_variants([latin, plain], lexicon, tmp_path / "out", seed=1)
    errors = [(e.record.id, e.error) for e in manifest.entries]
    assert errors == [
        ("Latin-1", f"Latin-1/{kind.value}: buggy file 'A.java' did not parse: "
                    "not UTF-8: invalid continuation byte at byte 58")
        for kind in ALL_VARIANTS] + [("Plain-1", None)] * 3


@pytest.mark.parametrize("content, detail", [
    (b"{\"id\": \"X-1\",", "not JSON: Expecting property name enclosed in double quotes"),
    (b"[1, 2]", "expected a JSON object"),
    (json.dumps({"id": "X-1", "buggy_file": "A.java"}).encode(),
     "missing field 'buggy_lines'"),
    (json.dumps({"id": "X-1", "buggy_file": "A.java", "buggy_lines": "3"}).encode(),
     "field 'buggy_lines' must be a non-empty list of line numbers, not '3'"),
    (json.dumps({"id": 7, "buggy_file": "A.java", "buggy_lines": [3]}).encode(),
     "field 'id' must be a string, not 7"),
    (b"{\"id\": \"caf\xe9\"}", "not UTF-8: invalid continuation byte at byte 11"),
], ids=["not-json", "not-an-object", "missing-lines", "bad-lines", "bad-id", "not-utf8"])
def test_cli_transform_reports_a_malformed_descriptor(tmp_path, capsys, content, detail):
    root = tmp_path / "project"
    root.mkdir()
    (root / "vuln.json").write_bytes(content)
    rc = cli_main(["transform", "--mode", "all", "--project", str(root),
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vmorph: error: {root / 'vuln.json'}: {detail}")
    assert "Traceback" not in err


def test_cli_recover_reports_a_patch_that_is_not_utf8(tmp_path, capsys):
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(json.dumps({"forward": {}, "kinds": {}}))
    patch = tmp_path / "patch.java"
    patch.write_bytes(b"return caf\xe9;")
    rc = cli_main(["recover", "--dict", str(dictionary), "--patch", str(patch)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"vmorph: error: {patch}: not UTF-8: invalid continuation byte at byte 10\n")


# ---------------------------------------------------------------------------
# Renaming only the files that hold a site of a key
# ---------------------------------------------------------------------------

RENAME_FILES = {
    "A.java": "class A {\n    static int run(int count) {\n        return count + 1;\n    }\n}\n",
    "B.java": "import java.util.*;\nclass B {\n    int total;\n    int counter;\n}\n",
    "C.java": "class C {\n    static String twice(String v) {\n        return v + v;\n    }\n}\n",
}


@pytest.fixture()
def rename_project(tmp_path):
    root = tmp_path / "project"
    root.mkdir()
    for rel, text in RENAME_FILES.items():
        (root / rel).write_text(text)
    return bench._load_project(root)


def _renamed(project, forward):
    table = collect_identifiers(list(project.asts.values()))
    return bench._rename_project(project.asts, table, RenameDictionary.build(forward, {}))


def test_a_key_only_in_another_file_renames_that_file_alone(rename_project):
    renamed = _renamed(rename_project, {"total": "sum"})
    assert "int sum;" in print_source(renamed["B.java"])
    assert renamed["A.java"] is rename_project.asts["A.java"]
    assert renamed["C.java"] is rename_project.asts["C.java"]


@pytest.mark.parametrize("key", ["int", "util"], ids=["primitive", "wildcard-import-tail"])
def test_a_key_met_but_never_renamed_is_not_stale(rename_project, key):
    renamed = _renamed(rename_project, {key: "renamedKey"})
    assert renamed == rename_project.asts
    assert renamed["C.java"] is rename_project.asts["C.java"]


def test_a_key_found_only_inside_a_longer_name_changes_nothing_there(rename_project):
    renamed = _renamed(rename_project, {"count": "tally"})
    assert "tally + 1" in print_source(renamed["A.java"])
    assert renamed["B.java"] == rename_project.asts["B.java"]  # holds `counter` only
    assert renamed["C.java"] is rename_project.asts["C.java"]


def test_a_key_in_no_tree_is_still_stale(rename_project):
    with pytest.raises(StaleDictionary):
        _renamed(rename_project, {"java": "jvm"})  # a substring of B, in no identifier
    with pytest.raises(StaleDictionary):
        _renamed(rename_project, {"absent": "present"})


def test_files_without_a_key_keep_their_trees_across_variants(rename_project, lexicon,
                                                               tmp_path):
    record = VulnRecord("Keys-1", str(tmp_path / "project"), "A.java", Span("A.java", 3, 1, 3, 1))
    renamed = []
    apply_rename = bench.apply_rename
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bench, "apply_rename",
                   lambda project, dct: renamed.append(project) or apply_rename(project, dct))
        manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1)
    assert [e.error for e in manifest.entries] == [None] * 3
    dictionary = json.loads((tmp_path / "out" / manifest.entries[0].dictionary).read_text())
    assert "count" in dictionary["forward"]
    # Only A holds a site of `count`; B's `counter` merely contains it.
    assert [len(project) for project in renamed] == [1]
    for kind in ("rename", "structure", "both"):
        assert ((tmp_path / "out" / "Keys-1" / kind / "C.java").read_text()
                == print_source(rename_project.asts["C.java"]))


# ---------------------------------------------------------------------------
# A rename must not capture a name the focus method does not hold
# ---------------------------------------------------------------------------

# `f` is the buggy method; the lexicon's first synonym of `count` is `tally`,
# a name that only `g` holds: a field read in one project, a parameter in the
# other.
CAPTURE_PROJECTS = {
    "field-shadowing": {
        "A.java": "class A {\n    static int tally = 5;\n"
                  "    static int f(int count) {\n        return count + 1;\n    }\n"
                  "    static int g() {\n        int count = 2;\n        return tally + count;\n"
                  "    }\n}\n",
    },
    "redeclaration": {
        "A.java": "class A {\n    static int f(int count) {\n        return count + 1;\n"
                  "    }\n}\n",
        "B.java": "class B {\n    static int g(int tally) {\n        int count = 2;\n"
                  "        return tally + count;\n    }\n}\n",
    },
}


def _rename_variant(files, lexicon, tmp_path):
    root = tmp_path / "project"
    root.mkdir()
    for rel, text in files.items():
        (root / rel).write_text(text)
    line = files["A.java"].splitlines().index("    static int f(int count) {") + 1
    record = VulnRecord("Capture-1", str(root), "A.java", Span("A.java", line, 1, line, 1))
    manifest = generate_variants([record], lexicon, tmp_path / "out", seed=1,
                                 kinds=(VariantKind.RENAME_ONLY,), trials=10)
    [entry] = manifest.entries
    assert entry.error is None
    out = tmp_path / "out"
    dct = RenameDictionary.loads((out / entry.dictionary).read_text())
    return dct, {rel: (out / entry.output_root / rel).read_text() for rel in files}


def _method(text, name):
    return next(m for cls in parse(text).types for m in cls.methods if m.name == name)


@pytest.mark.parametrize("files", CAPTURE_PROJECTS.values(), ids=CAPTURE_PROJECTS)
def test_no_new_name_is_a_name_of_the_project(files, lexicon, tmp_path):
    dct, _ = _rename_variant(files, lexicon, tmp_path)
    assert "count" in dct.forward
    tokens = [tokenize(text, rel) for rel, text in files.items()]
    names = {tok for ts in tokens for kind, tok in zip(ts.kinds, ts.texts) if kind == IDENT}
    assert sorted(set(dct.forward.values()) & names) == []


@pytest.mark.parametrize("files", CAPTURE_PROJECTS.values(), ids=CAPTURE_PROJECTS)
def test_recovery_gives_back_every_file_of_the_rename_variant(files, lexicon, tmp_path):
    dct, variant = _rename_variant(files, lexicon, tmp_path)
    assert {rel: recover_patch(text, dct) for rel, text in variant.items()} == {
        rel: print_source(parse(text, rel)) for rel, text in files.items()}


def test_a_rename_keeps_a_field_read_in_another_method(lexicon, tmp_path):
    dct, variant = _rename_variant(CAPTURE_PROJECTS["field-shadowing"], lexicon, tmp_path)
    g = _method(variant["A.java"], dct.forward.get("g", "g"))
    field = dct.forward.get("tally", "tally")
    assert field not in {d.name for d in walk(g.body) if isinstance(d, Declarator)}
    assert [n.id for n in walk(g.body) if isinstance(n, Name)] == [field, dct.forward["count"]]


def test_a_rename_declares_no_name_twice_in_another_method(lexicon, tmp_path):
    dct, variant = _rename_variant(CAPTURE_PROJECTS["redeclaration"], lexicon, tmp_path)
    g = _method(variant["B.java"], dct.forward.get("g", "g"))
    declared = [p.name for p in g.params] + [
        d.name for d in walk(g.body) if isinstance(d, Declarator)]
    assert declared == [dct.forward.get("tally", "tally"), dct.forward["count"]]
    assert len(set(declared)) == 2


# ---------------------------------------------------------------------------
# Malformed dictionaries, manifests, lexicons, stdlib indexes and runners end
# in an error line, not a traceback
# ---------------------------------------------------------------------------

_MANIFEST_RECORD = {"id": "X-1", "project_root": "p", "buggy_file": "A.java",
                    "buggy_lines": [1]}


@pytest.mark.parametrize("content, detail", [
    ("{bad", "not JSON: "),
    (json.dumps({"kinds": {}}), "missing field 'forward'"),
    (json.dumps({"forward": {"a": "x", "b": "x"}}),
     "field 'forward': forward map is not injective at 'x'"),
    (json.dumps({"forward": {"count": "a b"}}), "field 'forward': 'a b' is not an identifier"),
], ids=["not-json", "no-forward", "not-injective", "not-an-identifier"])
def test_cli_recover_reports_a_malformed_dictionary(tmp_path, capsys, content, detail):
    dictionary = tmp_path / "dictionary.json"
    dictionary.write_text(content)
    patch = tmp_path / "patch.java"
    patch.write_text("return x;")
    rc = cli_main(["recover", "--dict", str(dictionary), "--patch", str(patch)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vmorph: error: {dictionary}: {detail}")
    assert "Traceback" not in err


@pytest.mark.parametrize("content, detail", [
    ("{bad", "not JSON: "),
    (json.dumps({"entries": []}), "missing field 'source_benchmark'"),
    (json.dumps({"source_benchmark": "b", "entries": [
        {"record": _MANIFEST_RECORD, "variant": "sideways"}]}),
     "entries[0]: field 'variant' must be one of rename, structure, both, not 'sideways'"),
    (json.dumps({"source_benchmark": "b", "entries": [
        {"record": _MANIFEST_RECORD, "variant": "rename", "output_root": 5}]}),
     "entries[0]: field 'output_root' must be a string or null, not 5"),
    (json.dumps({"source_benchmark": "b", "entries": [
        {"record": _MANIFEST_RECORD, "variant": "rename", "error": 5}]}),
     "entries[0]: field 'error' must be a string or null, not 5"),
    (json.dumps({"source_benchmark": "b", "entries": [
        {"record": _MANIFEST_RECORD, "variant": "rename", "suggested_filenames": [1]}]}),
     "entries[0]: field 'suggested_filenames' must be an object of strings, not [1]"),
    (json.dumps({"source_benchmark": "b", "entries": [
        {"record": _MANIFEST_RECORD, "variant": "rename",
         "suggested_filenames": {"A.java": 3}}]}),
     "entries[0]: field 'suggested_filenames' must be an object of strings, not {'A.java': 3}"),
    (json.dumps({"source_benchmark": "b", "entries": [
        {"record": _MANIFEST_RECORD, "variant": "rename", "notes": ["ok", 2]}]}),
     "entries[0]: field 'notes' must be a list of strings, not ['ok', 2]"),
], ids=["not-json", "no-source-benchmark", "unknown-variant", "output-root", "error",
        "filenames-list", "filenames-value", "notes"])
def test_cli_validate_reports_a_malformed_manifest(tmp_path, capsys, content, detail):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(content)
    rc = cli_main(["validate", "--manifest", str(manifest), "--runner", "true {project} {report}"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"vmorph: error: {manifest}: {detail}")
    assert "Traceback" not in err
    assert manifest.read_text() == content


@pytest.mark.parametrize("runner, detail", [
    ("true", "expected the {project} and {report} placeholders"),
    ("true {project}", "expected the {project} and {report} placeholders"),
    ("true {project} {report} {x}", "unknown placeholder {x}"),
    ("true {project} {report} {}", "unknown placeholder {}"),
    ("true {project} {report", "expected '}' before end of string"),
    ("true '{project} {report}", "No closing quotation"),
], ids=["no-placeholders", "no-report", "unknown-field", "positional-field",
        "unbalanced-brace", "unbalanced-quote"])
def test_cli_validate_rejects_a_bad_runner_before_any_entry_runs(tmp_path, capsys, runner,
                                                                  detail):
    manifest = tmp_path / "manifest.json"
    content = json.dumps({"source_benchmark": "b", "entries": [
        {"record": _MANIFEST_RECORD, "variant": "rename", "output_root": "p",
         "report": "p.json"}]})
    manifest.write_text(content)
    with pytest.raises(SystemExit) as exc:
        cli_main(["validate", "--manifest", str(manifest), "--runner", runner, "--all"])
    assert exc.value.code == 2
    assert f"argument --runner: {detail}" in capsys.readouterr().err
    assert manifest.read_text() == content
    with pytest.raises(ValueError, match=re.escape(detail)):
        external_validate(BenchmarkManifest.load(manifest).entries[0], runner, tmp_path)


@pytest.mark.parametrize("content, detail", [
    (b"word synonyms\n", "lexicon line 1: expected word<TAB>synonyms"),
    (b"# ranked\nWord\tsyn\n", "lexicon word 'Word' is not lowercase"),
    (b"caf\xe9\tcoffee\n", "not UTF-8: invalid continuation byte at byte 3"),
], ids=["no-tab", "not-lowercase", "not-utf8"])
def test_cli_transform_reports_a_malformed_lexicon(guard_record, tmp_path, capsys, content,
                                                   detail):
    lexicon = tmp_path / "bad.tsv"
    lexicon.write_bytes(content)
    out = tmp_path / "out"
    rc = cli_main(["transform", "--mode", "all", "--project", guard_record.project_root,
                   "--out", str(out), "--lexicon", str(lexicon)])
    assert rc == 1
    assert capsys.readouterr().err == f"vmorph: error: {lexicon}: {detail}\n"
    assert not out.exists()


def test_cli_transform_reports_a_stdlib_index_that_is_not_utf8(guard_record, tmp_path, capsys,
                                                               monkeypatch):
    index = tmp_path / "names.txt"
    index.write_bytes(b"String\ncaf\xe9\n")
    monkeypatch.setenv("VMORPH_STDLIB_INDEX", str(index))
    rc = cli_main(["transform", "--mode", "all", "--project", guard_record.project_root,
                   "--out", str(tmp_path / "out")])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"vmorph: error: {index}: not UTF-8: invalid continuation byte at byte 10\n")


# ---------------------------------------------------------------------------
# perfbench's own output checks pass on a slice of every workload
# ---------------------------------------------------------------------------


def test_perfbench_output_checks_pass_on_every_workload(lexicon, tmp_path, monkeypatch):
    """The checks `perfbench/run.py` makes on its output (every emitted file
    re-prints to itself, every file of a rename variant recovers, no verdict
    is diverged) hold on the first four records of seed 1 of each workload."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import gen
    import run

    for name, workload in gen.WORKLOADS.items():
        records = [load_record(r.write(tmp_path / name / "in")) for r in workload(1)[:4]]
        _, manifests = run.run_pass(records, tmp_path / name / "out", lexicon, [])
        failures, _, _ = run.check_outputs(manifests)
        assert failures == [], name
        assert [e.record.id for m in manifests for e in m.entries
                if run.verdict_of(e) == "diverged"] == [], name


def test_perfbench_setup_script_runs(monkeypatch):
    """perfbench's setup script (`run.SETUP_CHILD`) imports vmorph and loads
    the three bundled data files by their no-argument calls, then prints two
    timings; renaming a loader or giving it a required argument breaks every
    untraced benchmark run."""
    monkeypatch.syspath_prepend(str(Path(__file__).parent.parent / "perfbench"))
    import run

    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
    env.pop("VMORPH_STDLIB_INDEX", None)
    proc = subprocess.run([sys.executable, "-c", run.SETUP_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    words = proc.stdout.split()
    assert len(words) == 2
    assert all(float(word) >= 0 for word in words)


# ---------------------------------------------------------------------------
# Output bytes pinned by a golden
# ---------------------------------------------------------------------------

GOLDEN_TRANSFORM = Path(__file__).parent / "fixtures" / "golden" / "transform_project2.txt"
PROJECT_ROOT_PLACEHOLDER = "<project_root>"


def transform_snapshot() -> str:
    """Every file `vmorph transform --mode all --seed 11` writes for the
    project2 fixture, in path order, each as a header line with its path and
    size in bytes followed by its text; the manifest's absolute
    `project_root` is replaced by a placeholder.

    Regenerate the golden file (only when an output change is intended) with
    `PYTHONPATH=src:tests python -c "import test_bench as t;
    t.GOLDEN_TRANSFORM.write_text(t.transform_snapshot(), encoding='utf-8')"`.
    """
    project = Path(__file__).parent / "fixtures" / "project2"
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch)
        rc = cli_main(["transform", "--mode", "all", "--project", str(project),
                       "--out", str(out), "--seed", "11"])
        assert rc == 0
        parts = []
        for path in sorted(p for p in out.rglob("*") if p.is_file()):
            text = path.read_bytes().decode("utf-8")
            if path.name == "manifest.json":
                text = text.replace(json.dumps(str(project))[1:-1], PROJECT_ROOT_PLACEHOLDER)
            parts.append(f"=== {path.relative_to(out).as_posix()} "
                         f"({len(text.encode('utf-8'))} bytes)\n{text}")
    return "".join(parts)


def test_transform_output_matches_golden(capsys):
    """The bytes of every transform output file (key order, indent, trailing
    newlines, reprinted sources) stay as they are."""
    snapshot = transform_snapshot()
    capsys.readouterr()
    assert snapshot.encode("utf-8") == GOLDEN_TRANSFORM.read_bytes()
