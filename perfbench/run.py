"""vmorph benchmark: end-to-end and per-layer metrics on seeded workloads.

    python3 perfbench/run.py --workload small-records --seed 1 --seconds 25 --trace 0

Builds seeded Java projects (perfbench/gen.py), then runs
`vmorph.generate_variants` in-process on one record per call, with the CLI
defaults: trials=100, fuel=10_000, oracle seed 0, all three variant kinds.
Passes over the record set repeat until --seconds have elapsed, and at least
twice, so every run also checks that a repetition is byte-identical. The
benchmark is single-process and single-threaded.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes; the traced ones record spans (perfbench/tracing.py) that give
the per-layer metrics, and the ratio of their mean call times is the tracing
overhead. Either way, the last line of stdout is one JSON object with the
metrics that BENCHMARK.json declares, and the exit code is 1 when a
correctness check fails.

End-to-end call times are scaled by a speed probe run between calls (see
PROBE_REF_S); set-up time is not. It is measured in fresh interpreters:
`import vmorph` plus loading the lexicon, the stdlib index and the purity
whitelist, median of several.

Scratch files go to .perfbench/ under the checkout; the work tree is deleted
at the end and only the span file of a traced run is kept.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import gen
import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench"

TRIALS, FUEL, ORACLE_SEED = 100, 10_000, 0  # the CLI's defaults
SETUP_REPEATS = 5
MIN_PASSES = 2
P90_MIN_SAMPLES = 100  # so that at least ten samples lie beyond the p90

# On the shared 2-vCPU VM (Xeon, 2.1 GHz) this benchmark was written on, the
# speed of the same code swings by a third for tens of seconds at a time,
# longer than one run. So after every generate_variants call the run times a
# fixed integer loop (the speed probe), for about PROBE_SHARE of the call's
# time, and scales the call's time to the speed at which the probe takes
# PROBE_REF_S, judged by the probes on either side of the call. There, this
# cut the spread of run medians across seeds by a tenth to a third. The table
# also prints the unscaled values.
PROBE_REF_S = 0.0045
PROBE_SHARE = 0.05

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import vmorph
t1 = time.perf_counter()
vmorph.SynonymLexicon.load()
vmorph.load_stdlib_index()
vmorph.load_purity_whitelist()
t2 = time.perf_counter()
print(t1 - t0, t2 - t1)
"""


def measure_setup() -> tuple[float, float]:
    """Median (import seconds, data seconds) over fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports, data = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CHILD], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        a, b = map(float, proc.stdout.split())
        imports.append(a)
        data.append(b)
    return statistics.median(imports), statistics.median(data)


def speed_probe() -> float:
    """Seconds for a fixed slice of integer arithmetic in the interpreter."""
    start = perf_counter()
    total = 0
    for i in range(60_000):
        total += i * i % 7
    return perf_counter() - start


def tree_bytes(root: Path) -> int:
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


def tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        data = path.read_bytes()
        h.update(f"{path.relative_to(root).as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def run_pass(records, out_root: Path, lexicon, probes: list,
             tracer=None) -> tuple[list, list]:
    """One generate_variants call per record, each followed by speed probes;
    appends one list of probe times per call to `probes`. Returns (seconds
    per call, manifests)."""
    from vmorph import generate_variants

    times, manifests = [], []
    for record in records:
        out = out_root / record.id
        if tracer is not None:
            tracer.begin_record(record.id)
        start = perf_counter()
        manifest = generate_variants([record], lexicon, out, seed=ORACLE_SEED,
                                     trials=TRIALS, fuel=FUEL)
        times.append(perf_counter() - start)
        if tracer is not None:
            tracer.end_record()
            tracer.set_bytes_written(tree_bytes(out))
        probes.append([speed_probe() for _ in
                       range(max(1, round(times[-1] * PROBE_SHARE / PROBE_REF_S)))])
        manifests.append(manifest)
    return times, manifests


def run_passes(records, work: Path, lexicon, seconds: float, tracer) -> tuple:
    """Repeat whole passes until `seconds` have elapsed, and at least
    MIN_PASSES times. With a tracer, every second pass is traced.

    Whole passes only, so that every share covers each record equally; the
    loop stops before a pass that would overrun, judged by the last one. Only
    the first pass's output tree is kept (for check_outputs); every pass's
    tree is digested. Returns, in call order, (call seconds, whether each
    call was traced, probe times after each call), then the manifests of
    all passes and the digests."""
    times, traced, probes, manifests, digests = [], [], [], [], []
    started = last_pass = perf_counter()
    n = 0
    while n < MIN_PASSES or 2 * perf_counter() - last_pass - started <= seconds:
        last_pass = perf_counter()
        traced_pass = tracer is not None and n % 2 == 1
        out_root = work / f"pass-{n}"
        gc.collect()
        if traced_pass:
            tracer.install()
        try:
            pass_times, pass_manifests = run_pass(records, out_root, lexicon, probes,
                                                  tracer if traced_pass else None)
        finally:
            if traced_pass:
                tracer.uninstall()
        times.extend(pass_times)
        traced.extend([traced_pass] * len(pass_times))
        manifests.extend(pass_manifests)
        digests.append(tree_digest(out_root))
        if n:
            shutil.rmtree(out_root)
        n += 1
    return times, traced, probes, manifests, digests


def scale_to_reference(times: list, probes: list) -> list:
    """Each call's time at reference speed: its slowdown is the median probe
    time after the call before it and after itself, over PROBE_REF_S."""
    return [t * PROBE_REF_S / statistics.median(probes[max(0, i - 1)] + probes[i])
            for i, t in enumerate(times)]


def verdict_of(entry) -> str | None:
    eq = entry.equivalence
    return eq.get("verdict") if isinstance(eq, dict) else None


def check_outputs(manifests: list) -> tuple[list[str], float, dict]:
    """Re-parse every emitted file and recover every rename variant.

    Returns (failures, seconds spent in recover_patch, input properties)."""
    from vmorph import RenameDictionary, parse, print_source, recover_patch

    failures: list[str] = []
    recover_s = 0.0
    renamed, applied = [], []
    for manifest in manifests:
        base = manifest.path.parent
        for entry in manifest.entries:
            if entry.error:
                continue
            out = base / entry.output_root
            for path in sorted(out.rglob("*.java")):
                text = path.read_text("utf-8")
                rel = path.relative_to(out).as_posix()
                if print_source(parse(text, rel)) != text:
                    failures.append(f"{entry.record.id}/{entry.variant.value}/{rel}: "
                                    "does not re-print to the same bytes")
            report = json.loads((base / entry.report).read_text("utf-8"))
            if entry.variant.value != "rename":
                applied.append(len(report["applied"]))
                continue
            dct = RenameDictionary.loads((base / entry.dictionary).read_text("utf-8"))
            renamed.append(len(dct.forward))
            project = Path(entry.record.project_root)
            for original in sorted(project.rglob("*.java")):
                rel = original.relative_to(project).as_posix()
                expected = print_source(parse(original.read_text("utf-8"), rel))
                variant_text = (out / rel).read_text("utf-8")
                start = perf_counter()
                recovered = recover_patch(variant_text, dct)
                recover_s += perf_counter() - start
                if recovered != expected:
                    failures.append(f"{entry.record.id}/rename/{rel}: recover_patch does "
                                    "not give the original's printed text")
    props = {
        "identifiers renamed per record": statistics.mean(renamed) if renamed else 0.0,
        "rewrite sites applied per structure/both variant":
            statistics.mean(applied) if applied else 0.0,
    }
    return failures, recover_s, props


def declared_metrics(trace_on: bool) -> dict:
    """name -> unit of the metrics BENCHMARK.json expects from this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace_on else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "vmorph" / "__init__.py").is_file():
        print(f"perfbench: no vmorph sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from vmorph import SynonymLexicon, load_record

    expected = declared_metrics(bool(args.trace))
    import_s, data_s = measure_setup()
    lexicon = SynonymLexicon.load()

    generated = gen.WORKLOADS[args.workload](args.seed)
    SCRATCH.mkdir(exist_ok=True)
    work = SCRATCH / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    tracer = tracing.Tracer() if args.trace else None
    try:
        records = [load_record(r.write(work / "in")) for r in generated]
        times, traced, probes, all_manifests, digests = run_passes(
            records, work, lexicon, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        failures, recover_s, props = check_outputs(all_manifests[:len(records)])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if len(set(digests)) != 1:
        failures.append(f"output trees of {len(digests)} repetitions differ")
    entries = [e for m in all_manifests for e in m.entries]
    diverged = [e for e in entries if verdict_of(e) == "diverged"]
    if diverged:
        failures.append(f"{len(diverged)} verdicts are diverged, e.g. "
                        f"{diverged[0].record.id}/{diverged[0].variant.value}")
    attempted = len(entries)
    failed = sum(1 for e in entries if e.error)

    print(f"workload {args.workload}  seed {args.seed}  passes {len(digests)}  "
          f"records/pass {len(records)}  trace {args.trace}")
    print("input properties:")
    print(f"  {'records':<50}{len(records)}")
    print(f"  {'source KB':<50}{sum(r.source_bytes() for r in generated) / 1024:.1f}")
    for key, value in props.items():
        print(f"  {key:<50}{value:.2f}")

    scaled = scale_to_reference(times, probes)
    metrics: dict[str, tuple[float, str]] = {}
    if tracer is None:
        p50 = statistics.median(times) * 1e3
        per_s = (attempted - failed) / sum(times)
        equivalent = sum(1 for e in entries if verdict_of(e) == "equivalent") / attempted
        # name -> (reported value, unit, unscaled value)
        table = {
            "setup_s": (import_s + data_s, "s", import_s + data_s),
            "variants_per_s": ((attempted - failed) / sum(scaled), "1/s", per_s),
            "record_ms_p50": (statistics.median(scaled) * 1e3, "ms", p50),
            "peak_rss_mb": (peak_rss_mb, "MB", peak_rss_mb),
            "failed_share": (failed / attempted, "ratio", failed / attempted),
            "equivalent_share": (equivalent, "ratio", equivalent),
        }
        if len(times) >= P90_MIN_SAMPLES:
            p90 = statistics.quantiles(times, n=10)[-1] * 1e3
            table["record_ms_p90"] = (statistics.quantiles(scaled, n=10)[-1] * 1e3, "ms", p90)
        print("  out-of-fuel trial share measured by the traced run (--trace 1)")
        print(f"end-to-end metrics ({len(times)} generate_variants calls; reported times "
              f"are scaled by {sum(scaled) / sum(times):.4f} from "
              f"{sum(map(len, probes))} speed probes):")
        print(f"  {'metric':<18}{'reported':>14}{'unscaled':>14} unit")
        for name, (value, unit, raw) in table.items():
            print(f"  {name:<18}{value:>14.4f}{raw:>14.4f} {unit}")
            metrics[name] = (value, unit)
        if "record_ms_p90" not in table:
            print(f"  {'record_ms_p90':<18}{'omitted':>14}  "
                  f"({len(times)} calls < {P90_MIN_SAMPLES})")
    else:
        layer = tracing.layer_metrics(tracer.spans, FUEL)
        traced_s = statistics.mean(t for t, on in zip(scaled, traced) if on)
        untraced_s = statistics.mean(t for t, on in zip(scaled, traced) if not on)
        layer.update({
            "setup.import_s": import_s,
            "setup.data_s": data_s,
            "rename.recover_ms": recover_s / len(records) * 1e3,
            "trace.overhead_pct": (traced_s / untraced_s - 1) * 100,
        })
        print(f"  out-of-fuel trial share {layer['interp.out_of_fuel_share']:.4f}")
        print(f"per-layer metrics ({sum(traced)} traced calls, {traced.count(False)} "
              "untraced) -> what each should move:")
        for name, (unit, moves) in tracing.LAYER_METRICS.items():
            value = layer[name]
            note = ""
            if name == "interp.us_per_fuel_unit" and layer["interp.out_of_fuel_share"] == 0:
                note = "  (no evaluation ran out of fuel)"
            print(f"  {name:<30}{value:>14.4f} {unit:<13}-> {moves}{note}")
            metrics[name] = (value, unit)
        spans_path = SCRATCH / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write(spans_path)
        print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")

    for problem in failures:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"checks: {'ok' if not failures else f'{len(failures)} failed'} "
          "(repetitions byte-identical, no diverged verdict, emitted files re-print, "
          "rename variants recover)")

    missing = [name for name, unit in expected.items()
               if name not in metrics or metrics[name][1] != unit]
    if missing:
        print(f"perfbench: BENCHMARK.json metrics not produced: {missing}", file=sys.stderr)
        return 2
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0], "unit": unit}
                    for name, unit in expected.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
