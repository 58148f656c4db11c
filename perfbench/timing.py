"""Timing helpers: the speed calibration and the order statistics."""

from __future__ import annotations

from time import perf_counter

import numpy as np

TAIL_BEYOND = 10             # samples that must lie above the reported tail
CALIBRATION_REF_S = 2.0e-3   # calibration() wall time at the reference speed
STEADY = 1.25                # largest ratio of the two calibrations of a sample
_CAL_X = np.linspace(0.0, 1.0, 10)


def calibration() -> float:
    """Wall seconds of a fixed mix of interpreter and small-array numpy work.

    The shared machine's speed drifts by up to 2x over a few seconds, and
    CPU time drifts with it.  Dividing a wall time by the calibration taken
    next to it, over CALIBRATION_REF_S, reports it at the reference speed."""
    t0 = perf_counter()
    s = 0.0
    for i in range(400):
        a = np.sqrt(_CAL_X * _CAL_X + i)
        s += float(a.sum())
        s += len(str({"k": i, "v": [i, s]}))
    return perf_counter() - t0


def calibrated(fn) -> tuple:
    """(fn(), factor that converts the wall time of fn to the reference
    speed, steady) from calibrations right before and right after it.

    ``steady`` is false when the two calibrations differ by more than the
    ratio STEADY: the machine changed speed during fn, so no single factor
    converts its time."""
    before = calibration()
    out = fn()
    after = calibration()
    steady = max(before, after) <= STEADY * min(before, after)
    return out, 2.0 * CALIBRATION_REF_S / (before + after), steady


def tail(values) -> tuple:
    """(value, percentile, n): the highest percentile that still has at least
    TAIL_BEYOND samples above it.

    With n samples sorted ascending, that is the sample at 0-based index
    n - TAIL_BEYOND - 1; by the nearest-rank rule it is the
    100 (n - TAIL_BEYOND) / n percentile.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail needs more than {TAIL_BEYOND} samples, got {n}")
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
