"""vmorph command-line interface.

    vmorph transform --mode all --project DIR --out DIR [--lexicon F] [--seed N]
    vmorph prompt --format codex-insert --file Src.java --lines 12:14 [--max-window N]
    vmorph recover --dict dictionary.json --patch patch.java
    vmorph validate --manifest manifest.json --runner 'run-tests {project} {report}'
    vmorph stats moe --confidence 0.95 < samples.txt

`transform` reads the vulnerability descriptor from DIR/vuln.json. The
bundled synonym lexicon and stdlib index are used unless overridden
(--lexicon, VMORPH_STDLIB_INDEX).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .bench import (
    ALL_VARIANTS,
    BenchmarkManifest,
    EXTERNAL_PENDING,
    VariantKind,
    check_runner,
    external_validate,
    generate_variants,
    load_record,
)
from .errors import VmorphError, dump_json, load_json, read_utf8
from .interp import DEFAULT_FUEL, DEFAULT_TRIALS
from .nodes import Span
from .parser import parse
from .prompts import FORMATS, PromptSpec, build_prompt, find_method_at
from .rename import RenameDictionary, SynonymLexicon, recover_patch
from .stats import margin_of_error

_MODE_KINDS = {**{kind.value: (kind,) for kind in VariantKind}, "all": ALL_VARIANTS}


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {value}")
    return value


def _runner(text: str) -> str:
    try:
        return check_runner(text)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vmorph", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_tr = sub.add_parser("transform", help="generate transformed variants of a project")
    p_tr.set_defaults(run=_cmd_transform)
    p_tr.add_argument("--mode", choices=sorted(_MODE_KINDS), required=True)
    p_tr.add_argument("--project", required=True, help="project root containing vuln.json")
    p_tr.add_argument("--out", required=True, help="output directory")
    p_tr.add_argument("--lexicon", help="synonym lexicon TSV (bundled by default)")
    p_tr.add_argument("--seed", type=int, default=0)
    p_tr.add_argument("--manifest", help="manifest path (default OUT/manifest.json)")
    p_tr.add_argument("--trials", type=_positive_int, default=DEFAULT_TRIALS,
                      help="equivalence trials per variant, at least 1")
    p_tr.add_argument("--fuel", type=_positive_int, default=DEFAULT_FUEL,
                      help="oracle fuel per run, at least 1")

    p_pr = sub.add_parser("prompt", help="build a model prompt for a buggy method")
    p_pr.set_defaults(run=_cmd_prompt)
    p_pr.add_argument("--format", choices=FORMATS, required=True)
    p_pr.add_argument("--file", required=True)
    p_pr.add_argument("--lines", required=True, metavar="A:B", help="buggy line range, 1-based")
    p_pr.add_argument("--max-window", type=_positive_int, default=None,
                      help="line budget of the prompt, at least 1")

    p_re = sub.add_parser("recover", help="map a patch on renamed code back to original names")
    p_re.set_defaults(run=_cmd_recover)
    p_re.add_argument("--dict", dest="dict_path", required=True)
    p_re.add_argument("--patch", required=True)

    p_va = sub.add_parser("validate", help="run an external test command per manifest entry")
    p_va.set_defaults(run=_cmd_validate)
    p_va.add_argument("--manifest", required=True)
    p_va.add_argument("--runner", type=_runner, required=True,
                      help="command template with {project} and {report} placeholders")
    p_va.add_argument("--all", action="store_true",
                      help="validate every entry, not only external-pending ones")

    p_st = sub.add_parser("stats", help="reporting statistics")
    st_sub = p_st.add_subparsers(dest="stats_command", required=True)
    p_moe = st_sub.add_parser("moe", help="t-interval margin of error; samples on stdin")
    p_moe.set_defaults(run=_cmd_stats_moe)
    p_moe.add_argument("--confidence", type=float, default=0.95)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        return args.run(args)
    except (VmorphError, OSError) as e:
        print(f"vmorph: error: {e}", file=sys.stderr)
        return 1


def _cmd_transform(args) -> int:
    record = load_record(args.project)
    lexicon = SynonymLexicon.load(args.lexicon)
    manifest = generate_variants(
        [record],
        lexicon,
        args.out,
        seed=args.seed,
        kinds=_MODE_KINDS[args.mode],
        trials=args.trials,
        fuel=args.fuel,
        manifest_path=args.manifest,
    )
    failed = [e for e in manifest.entries if e.error]
    for entry in manifest.entries:
        # An entry's error already starts with "<id>/<variant>: ".
        print(entry.error or f"{entry.record.id}/{entry.variant.value}: ok")
    print(f"manifest: {manifest.path}")
    return 1 if failed else 0


def _cmd_prompt(args) -> int:
    text = read_utf8(Path(args.file))
    try:
        start_s, _, end_s = args.lines.partition(":")
        start, end = int(start_s), int(end_s or start_s)
    except ValueError:
        print("vmorph: error: --lines expects A:B with integer line numbers", file=sys.stderr)
        return 2
    ast = parse(text, args.file)
    method = find_method_at(ast, start, end)
    spec = PromptSpec(args.format, args.max_window)
    bundle = build_prompt(spec, ast, method, Span(args.file, start, 1, end, 1),
                          source_text=text)
    sys.stdout.write(dump_json(bundle.to_json_dict()))
    return 0


def _cmd_recover(args) -> int:
    dct = load_json(Path(args.dict_path), RenameDictionary.from_json_dict)
    patch = read_utf8(Path(args.patch))
    sys.stdout.write(recover_patch(patch, dct))
    return 0


def _cmd_validate(args) -> int:
    manifest = BenchmarkManifest.load(args.manifest)
    manifest_dir = Path(args.manifest).parent
    failures = 0
    for entry in manifest.entries:
        if entry.error or entry.output_root is None:
            continue
        if not args.all and entry.equivalence != EXTERNAL_PENDING:
            continue
        result = external_validate(entry, args.runner, manifest_dir)
        if result["external"] != "passed":
            failures += 1
        print(f"{entry.record.id}/{entry.variant.value}: "
              f"{result['external']} (exit {result['exit_code']})")
    manifest.save(args.manifest)
    return 1 if failures else 0


def _cmd_stats_moe(args) -> int:
    try:
        samples = [float(tok) for tok in sys.stdin.read().split()]
        moe = margin_of_error(samples, args.confidence)
    except ValueError as e:  # a sample that is not a number, or a bad confidence
        raise VmorphError(f"stats moe: {e}") from e
    print(repr(moe))
    return 0


if __name__ == "__main__":
    sys.exit(main())
