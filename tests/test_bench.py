import json
import os
import shutil
import stat
import subprocess
import sys
from pathlib import Path

import pytest

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
from vmorph.cli import main as cli_main
from vmorph.errors import RunnerNotFound
from vmorph.nodes import Span
from vmorph.parser import parse
from vmorph.rename import SynonymLexicon


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


def test_original_runs_once_per_trial_per_record(lexicon, tmp_path, monkeypatch):
    from vmorph import interp

    compiled, runs = [], {}
    compile_method, invoke = interp._Compiler.compile, interp._invoke

    def compile_and_record(self, m):
        compiled.append(compile_method(self, m))
        return compiled[-1]

    def counting_invoke(method, run, args):
        if run[1] == 0:  # a run's top call, not a call it makes
            runs[method] = runs.get(method, 0) + 1
        return invoke(method, run, args)

    monkeypatch.setattr(interp._Compiler, "compile", compile_and_record)
    monkeypatch.setattr(interp, "_invoke", counting_invoke)
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
    original, *variants = compiled
    assert len(variants) == 3
    assert runs[original] == trials
    assert all(runs[v] <= trials for v in variants)
