"""Estimators for oscillation features of sampled population traces."""

from __future__ import annotations

import math

import numpy as np

__all__ = ["dominant_angular_frequency"]


def _crossings(t, x):
    """Interpolated times where x changes sign, with rising/falling parity."""
    s = np.sign(x)
    idx = np.nonzero(s[:-1] * s[1:] < 0)[0]
    tc = t[idx] - x[idx] * (t[idx + 1] - t[idx]) / (x[idx + 1] - x[idx])
    rising = x[idx + 1] > x[idx]
    return tc, rising


def _slope(times, phases):
    a = np.vstack([times, np.ones_like(times)]).T
    return float(np.linalg.lstsq(a, phases, rcond=None)[0][0])


def dominant_angular_frequency(t, x) -> float:
    """Dominant angular frequency of an oscillating trace via its mean crossings.

    Same-parity crossings of x - mean(x) are one period apart, so a least
    squares fit of 2*pi*k against the k-th rising (and falling) crossing
    time gives the frequency without spectral fitting.  Falls back to
    pi-spaced phases over all crossings when one parity has fewer than two
    events, and returns nan for traces that never cross their mean twice.
    Intended for clean oscillations; strongly modulated signals only get a
    rough "mean crossing rate" out of this.
    """
    t = np.asarray(t, dtype=float)
    x = np.asarray(x, dtype=float)
    tc, rising = _crossings(t, x - x.mean())
    if len(tc) < 2:
        return float("nan")
    slopes = []
    weights = []
    for parity in (True, False):
        tp = tc[rising == parity]
        if len(tp) >= 2:
            slopes.append(_slope(tp, 2.0 * math.pi * np.arange(len(tp), dtype=float)))
            weights.append(len(tp))
    if not slopes:
        return _slope(tc, math.pi * np.arange(len(tc), dtype=float))
    return float(np.average(slopes, weights=weights))
