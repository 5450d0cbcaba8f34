import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vmorph
from vmorph.errors import InsufficientSamples
from vmorph.stats import margin_of_error

# Frozen from an independent high-precision computation (inverse incomplete
# beta via mpmath, cross-checked against the closed form for two degrees of
# freedom): t(2, 0.975) = 4.30265272974946385, s({9,10,11}) = 1, n = 3.
HAND_COMPUTED_9_10_11 = 2.484137711750331071
# {2,4,4,4,5,5,7,9}: s = 2.1380899352993950775, t(7, .975) = 2.36462425159278534.
HAND_COMPUTED_OCTET_95 = 1.787487918236210895
HAND_COMPUTED_OCTET_99 = 2.6453607205753445166


def test_constant_samples_zero():
    assert margin_of_error([4.2] * 25, 0.95) == 0.0


def test_matches_hand_computed_t_interval():
    got = margin_of_error([9.0, 10.0, 11.0], 0.95)
    assert math.isclose(got, HAND_COMPUTED_9_10_11, rel_tol=1e-9)


def test_matches_hand_computed_octet():
    samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    assert math.isclose(margin_of_error(samples, 0.95), HAND_COMPUTED_OCTET_95, rel_tol=1e-9)
    assert math.isclose(margin_of_error(samples, 0.99), HAND_COMPUTED_OCTET_99, rel_tol=1e-9)


def test_higher_confidence_widens_interval():
    samples = [9.0, 10.0, 11.0]
    assert margin_of_error(samples, 0.99) > margin_of_error(samples, 0.95)


def test_nonnegative_and_zero_iff_constant():
    assert margin_of_error([1.0, 1.0, 1.0]) == 0.0
    assert margin_of_error([1.0, 1.0, 1.000001]) > 0.0


def test_insufficient_samples():
    with pytest.raises(InsufficientSamples):
        margin_of_error([1.0])


def test_confidence_bounds():
    with pytest.raises(ValueError):
        margin_of_error([1.0, 2.0], 1.0)
    with pytest.raises(ValueError):
        margin_of_error([1.0, 2.0], 0.0)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_non_finite_samples_rejected(bad):
    with pytest.raises(ValueError, match="samples must be finite numbers"):
        margin_of_error([1.0, bad, 2.0])


def test_import_leaves_scipy_unloaded():
    # scipy.stats costs about a second to import and statistics a few ms;
    # only margin_of_error needs them. Only the validate command runs a
    # subprocess.
    src = str(Path(vmorph.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    probe = ("import sys, vmorph, vmorph.cli; print(sorted(m for m in sys.modules "
             "if m.startswith('scipy') or m in ('subprocess', 'statistics')))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("confidence", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 0.9999])
def test_one_and_two_degrees_of_freedom_match_their_closed_forms(confidence):
    # t(1, p) = tan(pi (p - 1/2)), and t(2, p) = (2p - 1) / sqrt(2p (1 - p)).
    # {0, 1} has s = 1/sqrt(2) and n = 2; {9, 10, 11} has s = 1 and n = 3.
    p = 1.0 - (1.0 - confidence) / 2.0
    one = math.tan(math.pi * (p - 0.5))
    two = (2.0 * p - 1.0) / math.sqrt(2.0 * p * (1.0 - p))
    assert math.isclose(margin_of_error([0.0, 1.0], confidence), one / 2.0, rel_tol=1e-12)
    assert math.isclose(margin_of_error([9.0, 10.0, 11.0], confidence), two / math.sqrt(3.0),
                        rel_tol=1e-12)


@pytest.mark.parametrize("confidence", [1.0 - 2.0 ** -53, 1.0 - 1e-12])
def test_a_confidence_near_one_keeps_its_tail(confidence):
    # t(1, p) = 1 / tan(pi tail), with the tail (1 - confidence) / 2 taken
    # as it is: 1 - tail rounds the tail away.
    tail = (1.0 - confidence) / 2.0
    assert math.isclose(margin_of_error([0.0, 1.0], confidence),
                        1.0 / math.tan(math.pi * tail) / 2.0, rel_tol=1e-12)


def test_a_confidence_near_zero_gives_the_least_positive_t():
    # The tail is 1/2, so the bisection ends at the least positive t, whose
    # square, and so y = t^2 / (df + t^2), is 0.
    assert margin_of_error([0.0, 1.0], 1e-300) == 5e-324
