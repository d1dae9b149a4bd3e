"""Accuracy measures: Pearson R^2, normalized MSE and linear scaling.

The search objective is Pearson R^2 (scale- and shift-free); reported
quality is the NMSE of the linearly scaled predictions, where slope and
intercept come from ordinary least squares on the training rows.  With the
scaling fit and evaluated on the same rows, scaled NMSE equals 1 - R^2 (the
OLS identity), which is what makes the two views consistent.

Conventions for degenerate inputs: a zero-variance or non-finite prediction
vector has R^2 = 0 (worst); non-finite predictions make NMSE +inf; a
zero-variance prediction fits slope 0 / intercept mean(actual).  NMSE
normalizes by the population variance (divide by n) of the actual values.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np


def _as_pair(pred, actual) -> tuple[np.ndarray, np.ndarray]:
    p = np.asarray(pred, dtype=float)
    a = np.asarray(actual, dtype=float)
    if p.ndim != 1 or a.ndim != 1:
        raise ValueError("pred and actual must be 1-d vectors")
    if p.shape != a.shape:
        raise ValueError(f"length mismatch: pred has {p.size}, actual has {a.size}")
    if p.size == 0:
        raise ValueError("empty vectors")
    return p, a


def _dot(u: np.ndarray, v: np.ndarray) -> float:
    """Dot product summed by numpy itself.  ``u @ v`` goes through BLAS,
    whose summation order, and so whose last bits, can depend on the
    number of BLAS threads; this order does not."""
    return float(np.einsum("i,i->", u, v))


def _is_constant(p: np.ndarray) -> bool:
    """Zero variance, decided exactly: the mean of n copies of ``c`` need
    not be ``c``, so centring can leave a tiny nonzero constant."""
    return bool(p[0] == p[-1] and (p == p[0]).all())


def make_pearson_r2(actual) -> Callable[[object], float]:
    """Prepared :func:`pearson_r2` against the fixed target ``actual``.

    The target's finiteness check, centring and scaling are done once; the
    returned callable scores one prediction vector per call, with the same
    float operations in the same order as ``pearson_r2``.

    A non-finite prediction needs no scan of its own: NaN propagates
    through addition, inf plus a finite value is inf and inf plus -inf is
    NaN, so a vector holding any non-finite value has a non-finite sum and
    mean, and scores 0.  So does a finite vector whose sum overflows, which
    the infinite scale of its centred values would score 0 as well.
    """
    a = np.asarray(actual, dtype=float)
    if a.ndim != 1:
        raise ValueError("pred and actual must be 1-d vectors")
    # stays None for an empty, non-finite or constant target, or one whose
    # centring overflowed: every prediction then gets the worst case, 0
    an = an_an = None
    if a.size and np.isfinite(a).all():
        with np.errstate(all="ignore"):
            a_centered = a - a.mean()
            a_scale = float(np.abs(a_centered).max())
        if 0.0 < a_scale < math.inf:
            an = a_centered / a_scale
            an_an = _dot(an, an)

    def r2(pred) -> float:
        p, _ = _as_pair(pred, a)
        if an is None or _is_constant(p):
            return 0.0
        with np.errstate(all="ignore"):
            p_mean = p.mean()
            if not math.isfinite(p_mean):  # a non-finite p, or its sum overflowed
                return 0.0
            p_centered = p - p_mean
            p_scale = float(np.abs(p_centered).max())
        # centering itself can overflow for huge-magnitude predictions; such
        # models are degenerate and get the worst-case convention
        if not 0.0 < p_scale < math.inf:
            return 0.0
        # unit-scale both sides so the dot products cannot overflow no matter
        # how wild the prediction magnitudes are; the measure is scale-free
        pn = p_centered / p_scale
        cov = _dot(pn, an)
        return min(cov * cov / (_dot(pn, pn) * an_an), 1.0)

    return r2


def pearson_r2(pred, actual) -> float:
    """Squared Pearson correlation in [0, 1]; 0 for zero-variance or
    non-finite input by convention."""
    return make_pearson_r2(actual)(pred)


def nmse(pred, actual) -> float:
    """Mean squared error over the population variance of ``actual``.

    1.0 is the mean predictor; +inf if predictions are non-finite.
    Raises on a target whose variance is zero or not finite, for which the
    measure is undefined.
    """
    p, a = _as_pair(pred, actual)
    # a finite target whose variance overflows reads inf, an infinite one NaN
    with np.errstate(over="ignore", invalid="ignore"):
        variance = float(np.var(a))
    if variance == 0.0:
        raise ValueError("NMSE is undefined for a zero-variance target")
    if not math.isfinite(variance):
        raise ValueError("NMSE is undefined for a target whose variance overflows or is NaN")
    if not np.isfinite(p).all():
        return float("inf")
    with np.errstate(over="ignore"):  # finite errors whose squares overflow: inf
        return float(np.mean((p - a) ** 2)) / variance


def fit_linear_scaling(pred, actual) -> tuple[float, float]:
    """OLS (slope, intercept) mapping pred onto actual.

    Degenerate predictions (zero variance or non-finite) fit the mean
    predictor: slope 0, intercept mean(actual).
    """
    p, a = _as_pair(pred, actual)
    a_mean = float(a.mean())
    if not np.isfinite(p).all() or _is_constant(p):
        return 0.0, a_mean
    with np.errstate(all="ignore"):
        p_centered = p - p.mean()
        p_scale = float(np.abs(p_centered).max())
    if not 0.0 < p_scale < math.inf:  # centering overflowed
        return 0.0, a_mean
    pn = p_centered / p_scale  # overflow-safe normal equations
    with np.errstate(all="ignore"):
        slope = _dot(pn, a - a_mean) / _dot(pn, pn) / p_scale
        intercept = a_mean - slope * float(p.mean())
    if not (np.isfinite(slope) and np.isfinite(intercept)):
        return 0.0, a_mean
    return slope, intercept


def scaled_nmse(pred, actual, slope: float, intercept: float) -> float:
    """NMSE of ``slope * pred + intercept`` against ``actual``."""
    p, a = _as_pair(pred, actual)
    with np.errstate(all="ignore"):
        scaled = slope * p + intercept
    return nmse(scaled, a)
