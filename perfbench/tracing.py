"""Spans and counters for the traced benchmark run.

The tracer records spans from outside the program: it replaces module
attributes of vmorph with timing wrappers for the length of a traced pass and
puts the originals back afterwards. Spans stay in memory and are written out
once, when the run ends. Per-layer metrics are derived from them here.
"""

from __future__ import annotations

import importlib
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

# module -> attributes wrapped there. Each is looked up at call time by the
# code that uses it, so the wrapper sees every call the pipeline makes.
WRAPPED = {
    "vmorph.bench": ("parse", "collect_identifiers", "classify_origin", "project_imports",
                     "build_rename_plan", "apply_rename", "apply_all", "is_supported",
                     "check_equivalence", "print_source"),
    "vmorph.parser": ("tokenize",),
    "vmorph.interp": ("evaluate",),
}

RECORD = "generate_variants"
IDENTIFIER_SPANS = ("collect_identifiers", "classify_origin", "project_imports")

# Per-layer metric -> (unit, the end-to-end metrics and workload it should
# move). The table is printed with the traced run, so a later change can cite
# a row by name.
LAYER_METRICS = {
    "setup.import_s": ("s", "setup_s on every workload; also peak_rss_mb"),
    "setup.data_s": ("s", "setup_s on every workload"),
    "lexer.kb_per_s": ("KB/s", "variants_per_s, record_ms_p50 on large-project"),
    "lexer.tokens": ("count/record", "variants_per_s, record_ms_p50 on large-project"),
    "parser.kb_per_s": ("KB/s", "variants_per_s, record_ms_p50 on large-project"),
    "parser.self_ms": ("ms/record", "variants_per_s, record_ms_p50 on large-project"),
    "parser.calls": ("count/record", "variants_per_s, record_ms_p50 on large-project"),
    "printer.kb_per_s": ("KB/s", "variants_per_s, record_ms_p50 on large-project"),
    "printer.calls": ("count/record", "variants_per_s, record_ms_p50 on large-project"),
    "identifiers.ms_per_record": ("ms/record", "variants_per_s, record_ms_p50 on large-project"),
    "identifiers.entries": ("count/record", "variants_per_s, record_ms_p50 on large-project"),
    "rename.plan_ms": ("ms/record", "variants_per_s, record_ms_p50 on large-project"),
    "rename.renamed": ("count/record", "variants_per_s, record_ms_p50 on large-project"),
    "rename.apply_ms_per_record": ("ms/record", "variants_per_s, record_ms_p50 on large-project"),
    "rename.apply_calls_per_record": ("count/record",
                                      "variants_per_s, record_ms_p50 on large-project"),
    "rename.recover_ms": ("ms/record", "patch recovery cost on large-project (not in the flow)"),
    "transforms.apply_all_ms": ("ms/call", "variants_per_s, record_ms_p50 on small-records"),
    "transforms.applied": ("count/call", "variants_per_s, record_ms_p50 on small-records"),
    "transforms.skipped": ("count/call", "variants_per_s, record_ms_p50 on small-records"),
    "transforms.applied_ratio": ("ratio", "variants_per_s, record_ms_p50 on small-records"),
    "interp.support_ms": ("ms/record", "variants_per_s, record_ms_p50/p90 on small-records"),
    "interp.check_ms_per_variant": ("ms/call",
                                    "variants_per_s, record_ms_p50/p90 on small-records"),
    "interp.evaluations": ("count/record", "variants_per_s, record_ms_p50/p90 on small-records"),
    "interp.eval_ms": ("ms/record", "variants_per_s, record_ms_p50/p90 on small-records"),
    "interp.repeat_eval_share": ("ratio", "variants_per_s, record_ms_p50/p90 on small-records"),
    "interp.out_of_fuel_share": ("ratio", "variants_per_s, record_ms_p50 on fuel-bound"),
    "interp.us_per_fuel_unit": ("us", "variants_per_s, record_ms_p50 on fuel-bound"),
    "interp.compared_ratio": ("ratio", "variants_per_s, record_ms_p50 on fuel-bound"),
    "bench.record_self_ms": ("ms/record", "variants_per_s, record_ms_p50 on large-project"),
    "bench.bytes_written": ("bytes/record", "variants_per_s, record_ms_p50 on large-project"),
    "trace.overhead_pct": ("%", "none: traced over untraced mean call time, minus 100"),
}


# name -> observe(args, result): the counter a span carries. Called after the
# span has closed, so it adds to the parent's self time only.
OBSERVE = {
    "tokenize": lambda a, r: (len(a[0].encode("utf-8")), len(r)),
    "parse": lambda a, r: len(a[0].encode("utf-8")),
    "print_source": lambda a, r: len(r.encode("utf-8")),
    "collect_identifiers": lambda a, r: len(r.entries),
    "build_rename_plan": lambda a, r: len(r.forward),
    "apply_all": lambda a, r: (len(r[1].applied), len(r[1].skipped)),
    # The method object is kept only until the record ends (see end_record).
    "evaluate": lambda a, r: [a[0], tuple(a[1]), a[2], type(r).__name__],
}


class Tracer:
    """Records (name, start, end, parent index, record id, counter) spans."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._record: str | None = None
        self._originals: list = []
        self._record_start = 0
        self._t0 = 0.0

    # -- wrapping -----------------------------------------------------------

    def install(self) -> None:
        """Wrap every attribute in WRAPPED; fail loudly if one is missing."""
        if self._originals:
            raise RuntimeError("tracer already installed")
        targets = []
        for module_name, attrs in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in attrs:
                if not callable(getattr(module, attr, None)):
                    raise SystemExit(f"trace: {module_name}.{attr} no longer exists; "
                                     "the benchmark's span list must be updated")
                targets.append((module, attr))
        for module, attr in targets:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._wrap(attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._originals):
            setattr(module, attr, original)
        self._originals.clear()

    def _wrap(self, name: str, fn):
        spans, stack, observe = self.spans, self._stack, OBSERVE.get(name)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index] = (name, start, perf_counter(), parent, self._record, None)
                stack.pop()
                raise
            end = perf_counter()
            stack.pop()
            spans[index] = (name, start, end, parent, self._record,
                            observe(args, result) if observe else None)
            return result

        return traced

    # -- record spans ---------------------------------------------------------

    def begin_record(self, record_id: str) -> None:
        self._record = record_id
        self._record_start = len(self.spans)
        self.spans.append(None)
        self._stack.append(self._record_start)
        self._t0 = perf_counter()

    def end_record(self) -> None:
        end = perf_counter()
        self._stack.pop()
        index = self._record_start
        self.spans[index] = (RECORD, self._t0, end, -1, self._record, None)
        self._mark_repeats(index)
        self._record = None

    def set_bytes_written(self, n: int) -> None:
        """Attach the size of the output tree to the last record span."""
        self.spans[self._record_start] = self.spans[self._record_start][:5] + (n,)

    def _mark_repeats(self, first: int) -> None:
        """Replace each evaluation's method object by whether the same
        (method text, args, fuel) already ran in this record."""
        from vmorph.printer import print_method

        texts: dict[int, str] = {}
        seen: set = set()
        for i in range(first, len(self.spans)):
            span = self.spans[i]
            if span[0] != "evaluate" or span[5] is None:
                continue
            method, args, fuel, outcome = span[5]
            if id(method) not in texts:
                texts[id(method)] = print_method(method)
            key = (texts[id(method)], args, fuel)
            self.spans[i] = span[:5] + ((key in seen, outcome),)
            seen.add(key)

    def write(self, path: Path) -> None:
        """One JSON object per span: name, start, end, parent, record."""
        with path.open("w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, record, _) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                     "parent": parent, "record": record}) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------


def layer_metrics(spans: list, fuel: int) -> dict:
    """Per-layer metrics over every traced record. Raises if a wrapped
    attribute was never called, so a missing layer never reads as zero."""
    dur = defaultdict(float)
    calls = defaultdict(int)
    child_time = defaultdict(float)
    by_name = defaultdict(list)
    for i, (name, start, end, parent, _, counter) in enumerate(spans):
        dur[name] += end - start
        calls[name] += 1
        by_name[name].append(i)
        if parent >= 0:
            child_time[parent] += end - start
    missing = [a for attrs in WRAPPED.values() for a in attrs if not calls[a]] + \
        ([RECORD] if not calls[RECORD] else [])
    if missing:
        raise RuntimeError(f"trace: no span recorded for {', '.join(missing)}")

    def self_time(name: str) -> float:
        return sum(spans[i][2] - spans[i][1] - child_time[i] for i in by_name[name])

    def counters(name: str) -> list:
        return [spans[i][5] for i in by_name[name]]

    records = calls[RECORD]
    per_record = lambda x: x / records  # noqa: E731
    tokenized = counters("tokenize")
    applied = [c[0] for c in counters("apply_all")]
    skipped = [c[1] for c in counters("apply_all")]
    evaluations = counters("evaluate")
    n_eval = len(evaluations)
    out_of_fuel = [i for i in by_name["evaluate"] if spans[i][5] and spans[i][5][1] == "OutOfFuel"]

    # check_equivalence evaluates (original, variant) per trial; a trial's pair
    # enters a comparison only when both ran to an outcome other than fuel.
    compared = 0
    children = defaultdict(list)
    for i in by_name["evaluate"]:
        children[spans[i][3]].append(spans[i][5])
    for pair_list in children.values():
        for o1, o2 in zip(pair_list[::2], pair_list[1::2]):
            if o1 and o2 and "OutOfFuel" not in (o1[1], o2[1]):
                compared += 2

    kb = lambda b: b / 1024  # noqa: E731
    return {
        "lexer.kb_per_s": kb(sum(c[0] for c in tokenized)) / dur["tokenize"],
        "lexer.tokens": per_record(sum(c[1] for c in tokenized)),
        "parser.kb_per_s": kb(sum(counters("parse"))) / dur["parse"],
        "parser.self_ms": per_record(self_time("parse")) * 1e3,
        "parser.calls": per_record(calls["parse"]),
        "printer.kb_per_s": kb(sum(counters("print_source"))) / dur["print_source"],
        "printer.calls": per_record(calls["print_source"]),
        "identifiers.ms_per_record": per_record(sum(dur[n] for n in IDENTIFIER_SPANS)) * 1e3,
        "identifiers.entries": per_record(sum(counters("collect_identifiers"))),
        "rename.plan_ms": per_record(dur["build_rename_plan"]) * 1e3,
        "rename.renamed": per_record(sum(counters("build_rename_plan"))),
        "rename.apply_ms_per_record": per_record(dur["apply_rename"]) * 1e3,
        "rename.apply_calls_per_record": per_record(calls["apply_rename"]),
        "transforms.apply_all_ms": dur["apply_all"] / calls["apply_all"] * 1e3,
        "transforms.applied": sum(applied) / calls["apply_all"],
        "transforms.skipped": sum(skipped) / calls["apply_all"],
        "transforms.applied_ratio": sum(applied) / max(1, sum(applied) + sum(skipped)),
        "interp.support_ms": per_record(dur["is_supported"]) * 1e3,
        "interp.check_ms_per_variant":
            dur["check_equivalence"] / calls["check_equivalence"] * 1e3,
        "interp.evaluations": per_record(n_eval),
        "interp.eval_ms": per_record(dur["evaluate"]) * 1e3,
        "interp.repeat_eval_share": sum(1 for c in evaluations if c and c[0]) / n_eval,
        "interp.out_of_fuel_share": len(out_of_fuel) / n_eval,
        "interp.us_per_fuel_unit": (
            sum(spans[i][2] - spans[i][1] for i in out_of_fuel) / (len(out_of_fuel) * fuel) * 1e6
            if out_of_fuel else 0.0),
        "interp.compared_ratio": compared / n_eval,
        "bench.record_self_ms": per_record(self_time(RECORD)) * 1e3,
        "bench.bytes_written": per_record(sum(counters(RECORD))),
    }
