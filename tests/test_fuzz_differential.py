"""Differential fuzzing: random generated methods, every rule, no divergence.

Complements the curated corpus: each seed produces a fresh method, each rule
is applied standalone plus the full pipeline, and the interpreter compares
outcomes over random argument vectors. Inconclusive (fuel-bound) trials are
tolerated; any diverged verdict is a real transform bug.
"""

import pytest

from vmorph.interp import DIVERGED, check_equivalence, ensure_supported
from vmorph.nodes import structurally_equal
from vmorph.parser import parse
from vmorph.printer import print_method
from vmorph.transforms import TransformRule, apply_all, apply_rule

from javagen import LEAF_SEEDS, generate_method_source

SEEDS = [*range(160), *range(LEAF_SEEDS, LEAF_SEEDS + 40)]  # the second range calls leaves


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_method_never_diverges(seed):
    source = generate_method_source(seed)
    ast = parse(source, f"Fuzzed{seed}.java")
    method = next(m for m in ast.types[0].methods if m.name == "subject")
    ensure_supported(method, ast)

    variants = []
    for rule in TransformRule:
        transformed, report = apply_rule(method, rule, context=ast)
        if report.applied:
            variants.append((rule.value, transformed))
    transformed, _ = apply_all(method, context=ast)
    variants.append(("apply_all", transformed))

    for label, variant in variants:
        # Transformed output must still be printable, re-parseable source.
        text = "class W {\n" + print_method(variant, 1) + "}\n"
        reparsed = parse(text).types[0].methods[0]
        assert structurally_equal(reparsed, variant), (seed, label)

        verdict = check_equivalence(method, variant, trials=40, seed=seed,
                                    context1=ast, context2=ast)
        assert verdict.verdict != DIVERGED, (
            seed, label, verdict.counterexample, text)
