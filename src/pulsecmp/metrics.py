"""Agreement and morphology statistics for modality comparison.

Bland-Altman bias and limits of agreement quantify interval-level
agreement; extrema counts, area under the curve, and cosine similarity
quantify waveform-shape agreement; a paired two-sided t-test supplies
significance for mean differences. A modality's beats are one
:class:`BeatTable`, each beat measured as ``beats.segment_beats_indexed``
cuts it; pairs read its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# count_inflections: moving-average width and shortest beat (samples), and
# the slope floor, as a fraction of a beat's range, below which a step is flat.
INFLECTION_SMOOTH_WIN = 5
MIN_BEAT_SAMPLES = 7
INFLECTION_EPS = 1e-3

# Paired shape rows gathered at once by compare_modalities.
PAIR_BLOCK_ROWS = 128


@dataclass
class BeatTable:
    """One modality's kept beats, one row each, every beat measured once.

    ``feet`` holds the index of each beat's leading diastolic foot in
    its beat train, ``shapes`` the ``[beat][norm_len]`` normalized
    beats, and ``extrema`` and ``auc`` each row's
    :func:`count_inflections` and :func:`auc_normalized`.
    """

    feet: np.ndarray
    shapes: np.ndarray
    extrema: np.ndarray
    auc: np.ndarray

    def __len__(self) -> int:
        return self.feet.size


@dataclass
class BlandAltman:
    """Bias, +/-2 SD limits of agreement and each pair's mean and difference (ms)."""

    bias: float
    sd: float
    loa_low: float
    loa_high: float
    means: np.ndarray
    diffs: np.ndarray


@dataclass
class PairwiseComparison:
    """Shape-metric comparison between a reference and a test modality.

    Both mean differences are test minus reference.
    """

    mean_diff_inflections: float
    p_inflections: float
    mean_diff_auc: float
    p_auc: float
    cosine_mean: float
    cosine_sd: float


@dataclass
class BpSummary:
    """Systolic, diastolic, and mean arterial pressure, in mmHg."""

    sbp: float
    dbp: float
    map: float


def map_from_bp(sbp: float, dbp: float) -> float:
    """Mean arterial pressure: ``dbp + (sbp - dbp) / 3``."""
    if not sbp > dbp > 0:
        raise ValueError("invalid pressures")
    return dbp + (sbp - dbp) / 3.0


def bland_altman(a: np.ndarray, b: np.ndarray) -> BlandAltman:
    """Agreement statistics for paired values ``a`` and ``b``.

    Differences are ``a - b``. The bias is their mean, the spread is the
    sample standard deviation (n-1 denominator), and the limits of
    agreement sit at bias +/- 2 SD. ``means`` and ``diffs`` hold each
    pair's mean and difference.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size != b.size:
        raise ValueError("paired series must have equal length")
    if a.size < 2:
        raise ValueError("need at least two pairs")
    diff = a - b
    bias = float(diff.mean())
    sd = float(diff.std(ddof=1))
    return BlandAltman(bias, sd, bias - 2.0 * sd, bias + 2.0 * sd, (a + b) / 2.0, diff)


def count_inflections(beats: np.ndarray) -> int | np.ndarray:
    """Count derivative sign changes (interior extrema) of a beat, or of
    every row of a ``[beat][sample]`` table.

    Each beat is smoothed with a centered moving average of width
    ``INFLECTION_SMOOTH_WIN``; first differences smaller than
    ``INFLECTION_EPS`` times the beat's amplitude range are snapped to
    zero, runs of zeros collapse into a single crossing, and the two
    endpoints are excluded. A constant beat counts zero. A 1-D beat
    gives an ``int``, a table one count per row.
    """
    beats = np.atleast_1d(np.asarray(beats, dtype=np.float64))
    if beats.shape[-1] < MIN_BEAT_SAMPLES:
        raise ValueError("beat too short")
    rows = beats.reshape(-1, beats.shape[-1])
    w = INFLECTION_SMOOTH_WIN
    pad, n = w // 2, rows.shape[1]
    padded = np.concatenate([rows[:, pad:0:-1], rows, rows[:, -2 : -2 - pad : -1]], axis=1)
    # the moving average as np.convolve sums a short kernel: from zero, left to right
    smooth = np.zeros_like(rows)
    for i in range(w):
        smooth += padded[:, i : i + n] * (1.0 / w)
    d = np.diff(smooth, axis=1)
    span = rows.max(axis=1) - rows.min(axis=1)
    signs = np.sign(np.where(np.abs(d) < INFLECTION_EPS * span[:, None], 0.0, d))
    # consecutive nonzero signs of one row that differ
    row, col = np.nonzero(signs)
    sign = signs[row, col]
    change = (sign[1:] != sign[:-1]) & (row[1:] == row[:-1])
    # a flat row's differences are all exactly zero: it counts zero
    counts = np.bincount(row[1:][change], minlength=len(rows))
    return int(counts[0]) if beats.ndim == 1 else counts


def auc_normalized(beats: np.ndarray) -> float | np.ndarray:
    """Trapezoidal integral of a normalized beat over a unit time axis;
    one per row of a ``[beat][sample]`` table."""
    beats = np.atleast_1d(np.asarray(beats, dtype=np.float64))
    if beats.shape[-1] < 2:
        raise ValueError("need at least two samples")
    area = np.trapezoid(beats, dx=1.0 / (beats.shape[-1] - 1), axis=-1)
    return float(area) if beats.ndim == 1 else area


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float | np.ndarray:
    """``dot(u, v) / (|u| * |v|)``, in [-1, 1]; one per row pair of two
    ``[beat][sample]`` tables.

    ``np.vecdot`` takes each dot product as ``np.dot`` and
    ``np.linalg.norm`` do, so a row gives the value it gives alone.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape != v.shape:
        raise ValueError("vectors must have equal length")
    nu = np.sqrt(np.vecdot(u, u))
    nv = np.sqrt(np.vecdot(v, v))
    if np.any(nu == 0.0) or np.any(nv == 0.0):
        raise ValueError("zero-norm input")
    cos = np.clip(np.vecdot(u, v) / (nu * nv), -1.0, 1.0)
    return float(cos) if u.ndim == 1 else cos


def _betacf(a: float, b: float, x: float) -> float:
    # Continued fraction for the incomplete beta function (modified
    # Lentz). Converges quickly for x < (a + 1) / (a + b + 2).
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 400):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b), |error| < 1e-8."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b)
        - math.lgamma(a)
        - math.lgamma(b)
        + a * math.log(x)
        + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def paired_t_test(diffs: np.ndarray) -> tuple[float, float]:
    """Two-sided paired t-test on per-pair differences.

    Returns ``(t, p)`` with ``t = mean / (sd / sqrt(n))`` and ``p`` its
    two-sided Student's t tail on ``n - 1`` degrees of freedom.
    Differences with no spread get the limits, so a comparison of
    near-identical signals still yields a report: all exactly 0 give
    ``(0.0, 1.0)``, maximally insignificant, and all one nonzero value
    give ``(±inf, 0.0)``, maximally significant.
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.size < 2:
        raise ValueError("need at least two differences")
    if np.all(diffs == diffs[0]):
        return (0.0, 1.0) if diffs[0] == 0.0 else (math.copysign(math.inf, diffs[0]), 0.0)
    t = float(diffs.mean()) / (float(diffs.std(ddof=1)) / math.sqrt(diffs.size))
    dof = diffs.size - 1
    return t, regularized_incomplete_beta(dof / 2.0, 0.5, dof / (dof + t * t))


def compare_modalities(
    ref: BeatTable, test: BeatTable, ref_rows: np.ndarray, test_rows: np.ndarray
) -> PairwiseComparison:
    """Shape comparison over paired beats: row ``ref_rows[k]`` of ``ref``
    with row ``test_rows[k]`` of ``test``.

    Per pair: extrema counts, AUC, and cosine similarity on the
    normalized beats, whose rows are gathered ``PAIR_BLOCK_ROWS`` pairs
    at a time, so no table is copied whole; a row's cosine is the value
    it gives alone. Mean differences are test minus reference; p-values
    come from :func:`paired_t_test`, which states the conventions for
    differences with no spread.
    """
    if len(ref_rows) != len(test_rows):
        raise ValueError("beat tables must be paired")
    if len(ref_rows) < 2:
        raise ValueError("need at least two beat pairs")
    diff_infl = test.extrema[test_rows] - ref.extrema[ref_rows]
    diff_auc = test.auc[test_rows] - ref.auc[ref_rows]
    cos = np.empty(len(ref_rows))
    for k in range(0, cos.size, PAIR_BLOCK_ROWS):
        block = slice(k, k + PAIR_BLOCK_ROWS)
        cos[block] = cosine_similarity(ref.shapes[ref_rows[block]], test.shapes[test_rows[block]])
    return PairwiseComparison(
        mean_diff_inflections=float(np.mean(diff_infl)),
        p_inflections=paired_t_test(diff_infl)[1],
        mean_diff_auc=float(np.mean(diff_auc)),
        p_auc=paired_t_test(diff_auc)[1],
        cosine_mean=float(cos.mean()),
        cosine_sd=float(cos.std(ddof=1)),
    )
