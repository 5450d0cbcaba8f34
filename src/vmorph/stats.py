"""Reporting statistics: confidence-interval half-widths for repeated runs."""

from __future__ import annotations

import math

from .errors import InsufficientSamples


def margin_of_error(samples: list[float], confidence: float = 0.95) -> float:
    """Two-sided t-interval half-width: t(df, 1-a/2) * s / sqrt(n), df = n-1.

    s is the sample standard deviation; returns 0 for constant samples.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if not all(math.isfinite(x) for x in samples):
        raise ValueError("samples must be finite numbers")
    n = len(samples)
    if n < 2:
        raise InsufficientSamples(f"need at least 2 samples, got {n}")
    # Imported here: only this function needs it.
    import statistics

    s = statistics.stdev(samples)
    if s == 0.0:
        return 0.0
    return _t_quantile((1.0 - confidence) / 2.0, n - 1) * s / math.sqrt(n)


def _t_quantile(tail: float, df: int) -> float:
    """The t with P(T > t) = tail, for 0 < tail <= 1/2 and Student's T on
    df degrees of freedom: a bisection on P(T > t), halving the bracket
    until no float lies strictly inside it. It takes the tail itself, not
    1 - tail, whose rounding would lose the tail of a confidence near 1."""
    lo, hi = 0.0, 1.0
    while _t_tail(hi, df) > tail:
        lo, hi = hi, 2.0 * hi
    while lo < (mid := (lo + hi) / 2.0) < hi:
        if _t_tail(mid, df) > tail:
            lo = mid
        else:
            hi = mid
    return hi


def _t_tail(t: float, df: int) -> float:
    """P(T > t) for t >= 0: I_x(df/2, 1/2) / 2 with x = df / (df + t^2)."""
    return 0.5 * _incomplete_beta(df / 2.0, 0.5, df / (df + t * t), t * t / (df + t * t))


def _incomplete_beta(a: float, b: float, x: float, y: float) -> float:
    """The regularized incomplete beta function I_x(a, b), with y = 1 - x
    given apart to keep its precision. The continued fraction converges
    fast for x < (a + 1) / (a + b + 2); past that, I_x(a, b) = 1 - I_y(b, a)
    (Press et al., Numerical Recipes, 3rd ed., section 6.4). x > 0 here:
    x = df / (df + t^2), df >= 1, and a tail of at least 2^-54 keeps t at
    most 2^53."""
    if y == 0.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log(y))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, y) / b


def _beta_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 1000):
        # Each step adds an even term, then an odd one.
        for num in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= math.ulp(1.0):
            break
    return h
