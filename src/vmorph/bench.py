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
import json
import shlex
import subprocess
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .errors import (
    GenerationFailure,
    JavaSyntaxError,
    RunnerNotFound,
    UnsupportedConstruct,
    UnsupportedForEvaluation,
    VmorphError,
)
from .identifiers import (
    classify_origin,
    collect_identifiers,
    load_stdlib_index,
    project_imports,
)
from .interp import check_equivalence, is_supported
from .nodes import MethodDecl, SourceFile, Span
from .parser import parse
from .printer import print_source
from .prompts import find_method_at
from .rename import RenameDictionary, SynonymLexicon, apply_rename, build_rename_plan
from .transforms import TransformReport, apply_all


class VariantKind(enum.Enum):
    RENAME_ONLY = "rename"
    STRUCTURE_ONLY = "structure"
    BOTH = "both"


ALL_VARIANTS = (VariantKind.RENAME_ONLY, VariantKind.STRUCTURE_ONLY, VariantKind.BOTH)

EXTERNAL_PENDING = "external-pending"

RENAME_NOTE = "identifier renaming leaves string literals untouched"


@dataclass(frozen=True)
class VulnRecord:
    id: str
    project_root: str
    buggy_file: str  # relative to project_root
    buggy_lines: Span
    cwe: Optional[str] = None
    developer_patch: Optional[str] = None

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
        root = project_root if project_root is not None else data["project_root"]
        lines = data["buggy_lines"]
        span = Span(data["buggy_file"], lines[0], 1, lines[-1], 1)
        return cls(data["id"], root, data["buggy_file"], span,
                   data.get("cwe"), data.get("developer_patch"))


def load_record(project_root: str | Path) -> VulnRecord:
    """Read a project's vuln.json descriptor (see README for the schema)."""
    root = Path(project_root)
    data = json.loads((root / "vuln.json").read_text("utf-8"))
    return VulnRecord.from_json_dict(data, project_root=str(root))


@dataclass
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


@dataclass
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
        p.write_text(json.dumps(self.to_json_dict(), indent=2, sort_keys=True) + "\n",
                     encoding="utf-8")
        self.path = p

    @classmethod
    def load(cls, path: str | Path) -> "BenchmarkManifest":
        p = Path(path)
        data = json.loads(p.read_text("utf-8"))
        entries = []
        for raw in data["entries"]:
            record = VulnRecord.from_json_dict(raw["record"])
            entry = ManifestEntry(
                record=record,
                variant=VariantKind(raw["variant"]),
                output_root=raw.get("output_root"),
                dictionary=raw.get("dictionary"),
                report=raw.get("report"),
                equivalence=raw.get("equivalence", EXTERNAL_PENDING),
                suggested_filenames=raw.get("suggested_filenames", {}),
                notes=raw.get("notes", []),
                error=raw.get("error"),
            )
            entries.append(entry)
        return cls(data["source_benchmark"], entries, p)


# ---------------------------------------------------------------------------
# Variant generation
# ---------------------------------------------------------------------------


@dataclass
class _Project:
    asts: dict[str, SourceFile]  # relpath -> AST, insertion order sorted
    verbatim: dict[str, str]  # unparseable files copied as-is
    notes: list[str]


def _load_project(root: Path) -> _Project:
    asts: dict[str, SourceFile] = {}
    verbatim: dict[str, str] = {}
    notes: list[str] = []
    for path in sorted(root.rglob("*.java")):
        rel = path.relative_to(root).as_posix()
        text = path.read_text("utf-8")
        try:
            asts[rel] = parse(text, rel)
        except (JavaSyntaxError, UnsupportedConstruct) as e:
            verbatim[rel] = text
            notes.append(f"{rel}: copied verbatim ({e})")
    return _Project(asts, verbatim, notes)


def _write_project(target: Path, asts: dict[str, SourceFile], verbatim: dict[str, str]) -> None:
    for rel, ast in asts.items():
        out = target / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(print_source(ast), encoding="utf-8")
    for rel, text in verbatim.items():
        out = target / rel
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(text, encoding="utf-8")


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


def _find_method(ast: SourceFile, name: str) -> MethodDecl | None:
    for cls in ast.types:
        for m in cls.methods:
            if m.name == name and not m.is_constructor():
                return m
    return None


def _replace_method(ast: SourceFile, old: MethodDecl, new: MethodDecl) -> SourceFile:
    types = []
    for cls in ast.types:
        members = tuple(new if member is old else member for member in cls.members)
        types.append(replace(cls, members=members))
    return replace(ast, types=tuple(types))


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
    trials: int = 100,
    fuel: int = 10_000,
    source_benchmark: str = "fixture",
    manifest_path: str | Path | None = None,
    stdlib: frozenset[str] | None = None,
) -> BenchmarkManifest:
    """Produce the requested variants for every record and write the manifest.

    Failures are recorded per entry and do not stop other records. All output
    is a pure function of (records, lexicon, seed): byte-identical across runs.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest_path = Path(manifest_path) if manifest_path is not None else out / "manifest.json"
    stdlib_index = stdlib if stdlib is not None else load_stdlib_index()

    entries: list[ManifestEntry] = []
    for record in records:
        entries.extend(
            _generate_for_record(record, lexicon, out, manifest_path, seed, kinds,
                                 trials, fuel, stdlib_index)
        )

    manifest = BenchmarkManifest(source_benchmark, entries)
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
            raise VmorphError(f"buggy file {record.buggy_file!r} did not parse")
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
    dictionary_path: Path | None = None
    if needs_dictionary:
        vuln_dir.mkdir(parents=True, exist_ok=True)
        dictionary_path = vuln_dir / "dictionary.json"
        dictionary_path.write_text(dct.dumps(), encoding="utf-8")

    # The rename and both variants share one renamed project, computed by the
    # first of them to run; both is the structure change applied on top of it.
    renamed: dict[str, SourceFile] | None = None
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
                    renamed = dict(zip(project.asts.keys(), apply_rename(
                        list(project.asts.values()), dct)))
                variant_asts = dict(renamed)
                renamed_name = dct.forward.get(method.name, method.name)
                variant_method = _find_method(variant_asts[record.buggy_file], renamed_name)
                if variant_method is None:
                    raise VmorphError(f"renamed method {renamed_name!r} not found")
                entry.suggested_filenames = dict(suggested)
            if kind is not VariantKind.RENAME_ONLY:
                buggy = variant_asts[record.buggy_file]
                transformed, report = apply_all(variant_method, context=buggy)
                variant_asts[record.buggy_file] = _replace_method(buggy, variant_method,
                                                                  transformed)
                variant_method = transformed
            if kind is not VariantKind.STRUCTURE_ONLY:
                report.notes.append(RENAME_NOTE)

            _write_project(variant_dir, variant_asts, project.verbatim)

            variant_buggy = variant_asts[record.buggy_file]
            entry.equivalence = _equivalence_json(
                method, buggy_ast, variant_method, variant_buggy, trials, seed, fuel)

            report_dict = report.to_json_dict()
            report_dict["equivalence"] = (
                entry.equivalence if isinstance(entry.equivalence, dict) else str(entry.equivalence)
            )
            report_path = variant_dir / "report.json"
            report_path.write_text(
                json.dumps(report_dict, indent=2, sort_keys=True) + "\n", encoding="utf-8")

            entry.output_root = rel(variant_dir)
            entry.report = rel(report_path)
            if kind is not VariantKind.STRUCTURE_ONLY and dictionary_path is not None:
                entry.dictionary = rel(dictionary_path)
        except (VmorphError, OSError) as e:
            entry.error = str(GenerationFailure(record.id, kind.value, str(e)))
            entry.equivalence = None
        entries.append(entry)
    return entries


# ---------------------------------------------------------------------------
# External validation hook
# ---------------------------------------------------------------------------


def external_validate(
    entry: ManifestEntry,
    runner_cmd: str,
    manifest_dir: str | Path = ".",
) -> dict:
    """Run an external test command against one generated variant.

    runner_cmd must contain {project} and {report} placeholders. Exit code 0
    records passed, 1 records failed, anything else records error. The result
    is stored on the entry's equivalence field and returned.
    """
    if "{project}" not in runner_cmd or "{report}" not in runner_cmd:
        raise ValueError("runner_cmd must contain {project} and {report} placeholders")
    if entry.output_root is None or entry.report is None:
        raise VmorphError("entry has no generated output to validate")
    base = Path(manifest_dir)
    project_path = (base / entry.output_root).resolve()
    report_path = (base / entry.report).resolve()
    cmd = runner_cmd.format(project=str(project_path), report=str(report_path))
    try:
        proc = subprocess.run(shlex.split(cmd), capture_output=True, text=True)
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
