"""Benchmark plumbing: generate the three transformed variants per
vulnerability, write manifests, dictionaries, and reports, and shell out to
external validators.

Layout under the output directory (paths in the manifest are relative to the
manifest file):

    manifest.json
    <vuln-id>/
        dictionary.json          rename dictionary (rename and both variants)
        rename/ | structure/ | both/
            report.json          transform report + equivalence verdict
            <project tree>       reprinted .java files
"""

from __future__ import annotations

import enum
from dataclasses import field
from pathlib import Path
from typing import Optional

from .errors import (
    GenerationFailure,
    JavaSyntaxError,
    RunnerNotFound,
    UnsupportedConstruct,
    UnsupportedForEvaluation,
    VmorphError,
    check_fields,
    dump_json,
    load_json,
    not_utf8,
)
from .identifiers import (
    IdentifierTable,
    classify_origin,
    collect_identifiers,
    load_stdlib_index,
    project_imports,
)
from .interp import DEFAULT_FUEL, DEFAULT_TRIALS, check_equivalence, is_supported
from .nodes import (MethodDecl, SourceFile, Span, frozen, method_at, method_position, mutable,
                    with_method)
from .parser import parse
from .printer import print_source
from .prompts import find_method_at
from .rename import RenameDictionary, SynonymLexicon, apply_rename, build_rename_plan
from .transforms import TransformReport, apply_all


class VariantKind(enum.Enum):
    """The variants of a record, in the order they are generated."""
    RENAME_ONLY = "rename"
    STRUCTURE_ONLY = "structure"
    BOTH = "both"


ALL_VARIANTS = tuple(VariantKind)

EXTERNAL_PENDING = "external-pending"

RENAME_NOTE = "identifier renaming leaves string literals untouched"


@frozen
class VulnRecord:
    id: str
    project_root: str
    buggy_file: str  # relative to project_root
    buggy_lines: Span
    cwe: Optional[str] = None
    developer_patch: Optional[str] = None

    def __post_init__(self):
        # The id names the record's output directory, so it may not leave --out.
        if self.id in ("", ".", "..") or any(c in self.id for c in "/\\\0"):
            raise VmorphError(f"field 'id' must be one path segment, not {self.id!r}")

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "project_root": self.project_root,
            "buggy_file": self.buggy_file,
            "buggy_lines": [self.buggy_lines.start_line, self.buggy_lines.end_line],
            "cwe": self.cwe,
            "developer_patch": self.developer_patch,
        }

    @classmethod
    def from_json_dict(cls, data: dict, project_root: str | None = None) -> "VulnRecord":
        """The record `data` describes; a VmorphError naming the first field
        that is missing or malformed."""
        check_fields(data, [f for f in _RECORD_FIELDS
                            if f[0] != "project_root" or project_root is None])
        root = project_root if project_root is not None else data["project_root"]
        lines = data["buggy_lines"]
        span = Span(data["buggy_file"], lines[0], 1, lines[-1], 1)
        return cls(data["id"], root, data["buggy_file"], span,
                   data.get("cwe"), data.get("developer_patch"))


# The required fields of a record's JSON: key, check, what the check wants.
_RECORD_FIELDS = (
    *((key, lambda v: isinstance(v, str), "a string")
      for key in ("id", "project_root", "buggy_file")),
    ("buggy_lines", lambda v: isinstance(v, list) and len(v) > 0
     and all(type(n) is int for n in v), "a non-empty list of line numbers"),
)


def load_record(project_root: str | Path) -> VulnRecord:
    """Read a project's vuln.json descriptor (see README for the schema)."""
    root = Path(project_root)
    return load_json(root / "vuln.json",
                     lambda data: VulnRecord.from_json_dict(data, project_root=str(root)))


@mutable
class ManifestEntry:
    record: VulnRecord
    variant: VariantKind
    output_root: Optional[str] = None  # relative to the manifest file
    dictionary: Optional[str] = None
    report: Optional[str] = None
    equivalence: object = EXTERNAL_PENDING  # verdict dict | "external-pending" | external result
    suggested_filenames: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)
    error: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {
            "record": self.record.to_json_dict(),
            "variant": self.variant.value,
            "output_root": self.output_root,
            "dictionary": self.dictionary,
            "report": self.report,
            "equivalence": self.equivalence,
            "suggested_filenames": dict(sorted(self.suggested_filenames.items())),
            "notes": list(self.notes),
            "error": self.error,
        }


@mutable
class BenchmarkManifest:
    source_benchmark: str
    entries: list[ManifestEntry]
    path: Optional[Path] = None

    def to_json_dict(self) -> dict:
        return {
            "source_benchmark": self.source_benchmark,
            "entries": [e.to_json_dict() for e in self.entries],
        }

    def save(self, path: str | Path) -> None:
        p = Path(path)
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(dump_json(self.to_json_dict()), encoding="utf-8")
        self.path = p

    @classmethod
    def load(cls, path: str | Path) -> "BenchmarkManifest":
        """The manifest at `path`; a VmorphError naming the file and the first
        field that is missing or malformed."""
        p = Path(path)

        def build(data) -> "BenchmarkManifest":
            check_fields(data, _MANIFEST_FIELDS)
            entries = [_load_entry(raw, i) for i, raw in enumerate(data["entries"])]
            return cls(data["source_benchmark"], entries, p)

        return load_json(p, build)


_MANIFEST_FIELDS = (
    ("source_benchmark", lambda v: isinstance(v, str), "a string"),
    ("entries", lambda v: isinstance(v, list), "a list"),
)
_VARIANT_NAMES = tuple(kind.value for kind in VariantKind)
_ENTRY_FIELDS = (
    ("record", lambda v: isinstance(v, dict), "an object"),
    ("variant", lambda v: v in _VARIANT_NAMES, f"one of {', '.join(_VARIANT_NAMES)}"),
)
_ENTRY_OPTIONAL_FIELDS = (
    *((key, lambda v: v is None or isinstance(v, str), "a string or null")
      for key in ("output_root", "dictionary", "report", "error")),
    ("suggested_filenames", lambda v: isinstance(v, dict)
     and all(isinstance(name, str) for name in v.values()), "an object of strings"),
    ("notes", lambda v: isinstance(v, list) and all(isinstance(note, str) for note in v),
     "a list of strings"),
)


def _load_entry(raw, i: int) -> ManifestEntry:
    try:
        check_fields(raw, _ENTRY_FIELDS, _ENTRY_OPTIONAL_FIELDS)
        record = VulnRecord.from_json_dict(raw["record"])
    except VmorphError as e:
        raise VmorphError(f"entries[{i}]: {e}") from e
    optional = {key: raw[key] for key, _, _ in _ENTRY_OPTIONAL_FIELDS if key in raw}
    return ManifestEntry(record, VariantKind(raw["variant"]),
                         equivalence=raw.get("equivalence", EXTERNAL_PENDING), **optional)


# ---------------------------------------------------------------------------
# Variant generation
# ---------------------------------------------------------------------------


@mutable
class _Project:
    asts: dict[str, SourceFile]  # relpath -> AST, insertion order sorted
    verbatim: dict[str, bytes]  # files that did not parse, copied as they are
    errors: dict[str, str]  # relpath -> why it did not parse

    @property
    def notes(self) -> list[str]:
        return [f"{rel}: copied verbatim ({e})" for rel, e in self.errors.items()]


def _load_project(root: Path) -> _Project:
    project = _Project({}, {}, {})
    for path in sorted(root.rglob("*.java")):
        rel = path.relative_to(root).as_posix()
        try:
            text = path.read_text("utf-8")
        except UnicodeDecodeError as e:
            project.verbatim[rel] = path.read_bytes()
            project.errors[rel] = not_utf8(e)
            continue
        try:
            project.asts[rel] = parse(text, rel)
        except (JavaSyntaxError, UnsupportedConstruct) as e:
            project.verbatim[rel] = text.encode("utf-8")
            project.errors[rel] = str(e)
    return project


def _rename_project(asts: dict[str, SourceFile], table: IdentifierTable,
                    dct: RenameDictionary) -> dict[str, SourceFile]:
    """`asts` renamed by `dct`, a plan built from `table`, which holds every
    key. Only the files that hold a site of some key go through apply_rename;
    every other file keeps its tree, which all variants share."""
    files = set().union(*(table.entries[key].files for key in dct.forward))
    keyed = [rel for rel in asts if rel in files]
    renamed = dict(asts)
    renamed.update(zip(keyed, apply_rename([asts[rel] for rel in keyed], dct)))
    return renamed


def _write_project(target: Path, asts: dict[str, SourceFile], verbatim: dict[str, bytes],
                   printed: dict[int, tuple[SourceFile, str]]) -> None:
    """Write a variant's files. `printed` is the record's memo, id(tree) ->
    (tree, text): a tree that several variants share is printed once. It
    holds the tree, so no id is reused while the memo lives."""
    for rel, ast in asts.items():
        if id(ast) not in printed:
            printed[id(ast)] = (ast, print_source(ast))
        out = target / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(printed[id(ast)][1], encoding="utf-8")
    for rel, data in verbatim.items():
        out = target / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_bytes(data)


def _method_names(asts: dict[str, SourceFile]) -> frozenset[str]:
    """Every method name the project declares, in any file that parsed."""
    return frozenset(m.name for ast in asts.values() for cls in ast.types for m in cls.methods)


def _suggested_filenames(asts: dict[str, SourceFile], dct: RenameDictionary) -> dict[str, str]:
    """File moves implied by class renames (Java's file-per-class convention)."""
    out: dict[str, str] = {}
    for rel, ast in asts.items():
        stem = rel.rsplit("/", 1)[-1].removesuffix(".java")
        for cls in ast.types:
            if cls.name == stem and stem in dct.forward:
                new_rel = rel[: len(rel) - len(stem) - 5] + dct.forward[stem] + ".java"
                out[rel] = new_rel
    return out


def _equivalence_json(
    original: MethodDecl,
    original_ast: SourceFile,
    transformed: MethodDecl,
    transformed_ast: SourceFile,
    trials: int,
    seed: int,
    fuel: int,
):
    if not (is_supported(original, original_ast) and is_supported(transformed, transformed_ast)):
        return EXTERNAL_PENDING
    try:
        verdict = check_equivalence(original, transformed, trials, seed, fuel,
                                    context1=original_ast, context2=transformed_ast)
    except UnsupportedForEvaluation:  # a trial reached what only running rejects
        return EXTERNAL_PENDING
    return verdict.to_json_dict()


def generate_variants(
    records: list[VulnRecord],
    lexicon: SynonymLexicon,
    out_dir: str | Path,
    seed: int,
    kinds: tuple[VariantKind, ...] = ALL_VARIANTS,
    trials: int = DEFAULT_TRIALS,
    fuel: int = DEFAULT_FUEL,
    manifest_path: str | Path | None = None,
) -> BenchmarkManifest:
    """Produce the requested variants for every record and write the manifest.

    Failures are recorded per entry and do not stop other records. All output
    is a pure function of (records, lexicon, seed): byte-identical across runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = Path(manifest_path) if manifest_path else out / "manifest.json"
    stdlib_index = load_stdlib_index()

    entries: list[ManifestEntry] = []
    for record in records:
        entries.extend(
            _generate_for_record(record, lexicon, out, manifest_path, seed, kinds,
                                 trials, fuel, stdlib_index)
        )

    manifest = BenchmarkManifest("fixture", entries)
    manifest.save(manifest_path)
    return manifest


def _generate_for_record(
    record: VulnRecord,
    lexicon: SynonymLexicon,
    out: Path,
    manifest_path: Path,
    seed: int,
    kinds: tuple[VariantKind, ...],
    trials: int,
    fuel: int,
    stdlib_index: frozenset[str],
) -> list[ManifestEntry]:
    try:
        project = _load_project(Path(record.project_root))
        if record.buggy_file not in project.asts:
            reason = project.errors.get(record.buggy_file)
            raise VmorphError(f"buggy file {record.buggy_file!r} did not parse"
                              + (f": {reason}" if reason else ""))
        buggy_ast = project.asts[record.buggy_file]
        method = find_method_at(buggy_ast, record.buggy_lines.start_line,
                                record.buggy_lines.end_line)
        asts = list(project.asts.values())
        table = classify_origin(
            collect_identifiers(asts, focus=method), project_imports(asts), stdlib_index
        )
        dct = build_rename_plan(table, lexicon)
    except (VmorphError, OSError) as e:
        return [
            ManifestEntry(record=record, variant=kind,
                          error=str(GenerationFailure(record.id, kind.value, str(e))),
                          equivalence=None, notes=[])
            for kind in kinds
        ]

    rel = lambda p: p.relative_to(manifest_path.parent).as_posix()  # noqa: E731
    vuln_dir = out / record.id
    entries: list[ManifestEntry] = []

    needs_dictionary = any(k in kinds for k in (VariantKind.RENAME_ONLY, VariantKind.BOTH))
    dictionary_path = vuln_dir / "dictionary.json"
    if needs_dictionary:
        vuln_dir.mkdir(parents=True, exist_ok=True)
        dictionary_path.write_text(dct.dumps(), encoding="utf-8")

    # The rename and both variants share one renamed project, computed by the
    # first of them to run; both is the structure change applied on top of it.
    # Files the rename leaves alone are the original trees, so every variant
    # shares them and `printed` prints each once.
    renamed: dict[str, SourceFile] | None = None
    position = method_position(buggy_ast, method)
    printed: dict[int, tuple[SourceFile, str]] = {}
    suggested = _suggested_filenames(project.asts, dct) if needs_dictionary else {}
    for kind in kinds:
        entry = ManifestEntry(record=record, variant=kind, notes=list(project.notes))
        try:
            variant_dir = vuln_dir / kind.value
            report = TransformReport()
            variant_asts = dict(project.asts)
            variant_method = method
            if kind is not VariantKind.STRUCTURE_ONLY:
                if renamed is None:
                    renamed = _rename_project(project.asts, table, dct)
                variant_asts = dict(renamed)
                variant_method = method_at(variant_asts[record.buggy_file], position)
                entry.suggested_filenames = dict(suggested)
            if kind is not VariantKind.RENAME_ONLY:
                buggy = variant_asts[record.buggy_file]
                transformed, report = apply_all(variant_method, context=buggy,
                                                project_methods=_method_names(variant_asts))
                variant_asts[record.buggy_file] = with_method(buggy, position, transformed)
                variant_method = transformed
            if kind is not VariantKind.STRUCTURE_ONLY:
                report.notes.append(RENAME_NOTE)

            _write_project(variant_dir, variant_asts, project.verbatim, printed)

            variant_buggy = variant_asts[record.buggy_file]
            entry.equivalence = _equivalence_json(
                method, buggy_ast, variant_method, variant_buggy, trials, seed, fuel)

            report_dict = report.to_json_dict()
            report_dict["equivalence"] = entry.equivalence
            report_path = variant_dir / "report.json"
            report_path.write_text(dump_json(report_dict), encoding="utf-8")

            entry.output_root = rel(variant_dir)
            entry.report = rel(report_path)
            if kind is not VariantKind.STRUCTURE_ONLY:
                entry.dictionary = rel(dictionary_path)
        except (VmorphError, OSError) as e:
            entry.error = str(GenerationFailure(record.id, kind.value, str(e)))
            entry.equivalence = None
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# External validation hook
# ---------------------------------------------------------------------------


def check_runner(runner_cmd: str) -> str:
    """`runner_cmd` if it is a runner command template: shell words holding
    the {project} and {report} placeholders and no other `{…}` field; else a
    ValueError saying what is wrong."""
    import shlex  # here and below: only the validate command needs these
    import string

    fields = {name for _, name, _, _ in string.Formatter().parse(runner_cmd) if name is not None}
    placeholders = {"project", "report"}
    if not placeholders <= fields:
        raise ValueError("expected the {project} and {report} placeholders")
    if fields - placeholders:
        raise ValueError(f"unknown placeholder {{{min(fields - placeholders)}}}")
    shlex.split(runner_cmd)
    return runner_cmd


def external_validate(
    entry: ManifestEntry,
    runner_cmd: str,
    manifest_dir: str | Path = ".",
) -> dict:
    """Run an external test command against one generated variant.

    runner_cmd is checked by check_runner and split into words before the
    paths are put in, so a path is never split. Exit code 0 records passed,
    1 records failed, anything else records error. The result is stored on
    the entry's equivalence field and returned.
    """
    import shlex
    import subprocess

    check_runner(runner_cmd)
    if entry.output_root is None or entry.report is None:
        raise VmorphError("entry has no generated output to validate")
    base = Path(manifest_dir)
    paths = {"project": str((base / entry.output_root).resolve()),
             "report": str((base / entry.report).resolve())}
    try:
        proc = subprocess.run([word.format(**paths) for word in shlex.split(runner_cmd)],
                              capture_output=True, text=True)
    except FileNotFoundError as e:
        raise RunnerNotFound(str(e)) from e
    if proc.returncode == 0:
        status = "passed"
    elif proc.returncode == 1:
        status = "failed"
    else:
        status = "error"
    result = {"external": status, "exit_code": proc.returncode}
    entry.equivalence = result
    return result
