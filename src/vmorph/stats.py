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
    # Imported here, like scipy below: only this function needs it.
    import statistics

    s = statistics.stdev(samples)
    if s == 0.0:
        return 0.0
    # Imported here: scipy is slow to load, and only this function needs it.
    from scipy.stats import t as student_t

    quantile = float(student_t.ppf(1.0 - (1.0 - confidence) / 2.0, n - 1))
    return quantile * s / math.sqrt(n)
