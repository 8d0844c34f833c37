"""Agreement and morphology statistics for modality comparison.

Bland-Altman bias and limits of agreement quantify interval-level
agreement; extrema counts, area under the curve, and cosine similarity
quantify waveform-shape agreement; a paired two-sided t-test supplies
significance for mean differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from pulsecmp.beats import BeatSegment

# count_inflections: moving-average width (samples) and the slope floor,
# as a fraction of the beat's range, below which a difference is flat.
INFLECTION_SMOOTH_WIN = 5
INFLECTION_EPS = 1e-3


@dataclass
class BlandAltman:
    """Bias and +/-2 SD limits of agreement for paired measurements (ms)."""

    bias: float
    sd: float
    loa_low: float
    loa_high: float
    points: list[tuple[float, float]]

    def __post_init__(self):
        if self.sd < 0:
            raise ValueError("sd must be non-negative")


@dataclass
class MorphologyMetrics:
    """Per-modality beat-shape summary (means over detected beats)."""

    inflection_count_mean: float
    inflection_count_sd: float
    auc_mean: float
    auc_sd: float

    def __post_init__(self):
        if self.inflection_count_mean < 0 or self.inflection_count_sd < 0:
            raise ValueError("counts must be non-negative")


@dataclass
class PairwiseComparison:
    """Shape-metric comparison between a reference and a test modality.

    ``mean_diff_inflections`` is reference minus test;
    ``mean_diff_auc`` is test minus reference. Reports emit both sign
    conventions explicitly labeled.
    """

    mean_diff_inflections: float
    p_inflections: float
    mean_diff_auc: float
    p_auc: float
    cosine_mean: float
    cosine_sd: float

    def __post_init__(self):
        for p in (self.p_inflections, self.p_auc):
            if not 0.0 <= p <= 1.0:
                raise ValueError("p-values must lie in [0, 1]")


@dataclass
class BpSummary:
    """Systolic, diastolic, and mean arterial pressure, in mmHg."""

    sbp: float
    dbp: float
    map: float

    def __post_init__(self):
        if not self.sbp > self.dbp > 0:
            raise ValueError("invalid pressures")
        if not self.dbp <= self.map <= self.sbp:
            raise ValueError("map must lie between dbp and sbp")


def map_from_bp(sbp: float, dbp: float) -> float:
    """Mean arterial pressure: ``dbp + (sbp - dbp) / 3``."""
    if not sbp > dbp > 0:
        raise ValueError("invalid pressures")
    return dbp + (sbp - dbp) / 3.0


def bland_altman(a: np.ndarray, b: np.ndarray) -> BlandAltman:
    """Agreement statistics for paired values ``a`` and ``b``.

    Differences are ``a - b``. The bias is their mean, the spread is the
    sample standard deviation (n-1 denominator), and the limits of
    agreement sit at bias +/- 2 SD. ``points`` pairs each difference
    with the corresponding mean for plotting.
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
    points = list(zip(((a + b) / 2.0).tolist(), diff.tolist()))
    return BlandAltman(bias, sd, bias - 2.0 * sd, bias + 2.0 * sd, points)


def count_inflections(beat: np.ndarray) -> int:
    """Count derivative sign changes (interior extrema) of a beat.

    The beat is smoothed with a centered moving average of width
    ``INFLECTION_SMOOTH_WIN``; first differences smaller than
    ``INFLECTION_EPS`` times the beat's amplitude range are snapped to
    zero, runs of zeros collapse into a single crossing, and the two
    endpoints are excluded. A constant beat counts zero.
    """
    beat = np.asarray(beat, dtype=np.float64)
    if beat.size < 7:
        raise ValueError("beat too short")
    w = INFLECTION_SMOOTH_WIN
    pad = w // 2
    padded = np.concatenate([beat[pad:0:-1], beat, beat[-2 : -2 - pad : -1]])
    smooth = np.convolve(padded, np.ones(w) / w, mode="valid")
    d = np.diff(smooth)
    span = beat.max() - beat.min()
    if span <= 0:
        return 0
    d = np.where(np.abs(d) < INFLECTION_EPS * span, 0.0, d)
    signs = np.sign(d)
    signs = signs[signs != 0]
    if signs.size < 2:
        return 0
    return int(np.sum(signs[1:] != signs[:-1]))


def auc_normalized(beat: np.ndarray) -> float:
    """Trapezoidal integral of a normalized beat over a unit time axis."""
    beat = np.asarray(beat, dtype=np.float64)
    if beat.size < 2:
        raise ValueError("need at least two samples")
    return float(np.trapezoid(beat, dx=1.0 / (beat.size - 1)))


def cosine_similarity(u: np.ndarray, v: np.ndarray) -> float:
    """``dot(u, v) / (|u| * |v|)``, in [-1, 1]."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.size != v.size:
        raise ValueError("vectors must have equal length")
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("zero-norm input")
    return float(np.clip(np.dot(u, v) / (nu * nv), -1.0, 1.0))


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


def student_t_two_sided_p(t: float, dof: int) -> float:
    """Two-sided tail probability of Student's t distribution."""
    if dof < 1:
        raise ValueError("degrees of freedom must be positive")
    if t == 0.0:
        return 1.0
    x = dof / (dof + t * t)
    return regularized_incomplete_beta(dof / 2.0, 0.5, x)


def paired_t_test(diffs: np.ndarray) -> tuple[float, float]:
    """Two-sided paired t-test on per-pair differences.

    Returns ``(t, p)`` with ``t = mean / (sd / sqrt(n))``. All-zero
    differences give ``(0.0, 1.0)`` by convention; identical nonzero
    differences have no spread and raise "zero variance".
    """
    diffs = np.asarray(diffs, dtype=np.float64)
    if diffs.size < 2:
        raise ValueError("need at least two differences")
    if np.all(diffs == 0.0):
        return 0.0, 1.0
    sd = float(diffs.std(ddof=1))
    if sd == 0.0:
        raise ValueError("zero variance")
    t = float(diffs.mean()) / (sd / math.sqrt(diffs.size))
    return t, student_t_two_sided_p(t, diffs.size - 1)


def _paired_p(diffs: np.ndarray) -> float:
    # Degenerate spreads get limit conventions so a comparison of
    # near-identical signals still yields a report: no difference at
    # all is maximally insignificant, a perfectly constant nonzero
    # difference maximally significant.
    if np.all(diffs == diffs[0]):
        return 1.0 if diffs[0] == 0.0 else 0.0
    return paired_t_test(diffs)[1]


def compare_modalities(
    ref_beats: list[BeatSegment], test_beats: list[BeatSegment]
) -> PairwiseComparison:
    """Shape comparison over paired, normalized beats.

    Per pair: extrema counts, AUC, and cosine similarity on the
    normalized beats. Mean differences follow the conventions noted on
    :class:`PairwiseComparison`; p-values come from the paired t-test
    (see ``_paired_p`` for the degenerate-spread conventions).
    """
    if len(ref_beats) != len(test_beats):
        raise ValueError("beat lists must be paired")
    if len(ref_beats) < 2:
        raise ValueError("need at least two beat pairs")
    infl_ref = np.array([count_inflections(b.normalized) for b in ref_beats], dtype=float)
    infl_test = np.array([count_inflections(b.normalized) for b in test_beats], dtype=float)
    auc_ref = np.array([auc_normalized(b.normalized) for b in ref_beats])
    auc_test = np.array([auc_normalized(b.normalized) for b in test_beats])
    cos = np.array(
        [cosine_similarity(r.normalized, t.normalized) for r, t in zip(ref_beats, test_beats)]
    )
    p_infl = _paired_p(infl_ref - infl_test)
    p_auc = _paired_p(auc_test - auc_ref)
    return PairwiseComparison(
        mean_diff_inflections=float(np.mean(infl_ref - infl_test)),
        p_inflections=p_infl,
        mean_diff_auc=float(np.mean(auc_test - auc_ref)),
        p_auc=p_auc,
        cosine_mean=float(cos.mean()),
        cosine_sd=float(cos.std(ddof=1)) if cos.size > 1 else 0.0,
    )


def morphology_metrics(beats: list[BeatSegment]) -> MorphologyMetrics:
    """Mean and sample SD of extrema count and AUC over a modality's beats."""
    if not beats:
        raise ValueError("no beats")
    infl = np.array([count_inflections(b.normalized) for b in beats], dtype=float)
    auc = np.array([auc_normalized(b.normalized) for b in beats])
    ddof = 1 if infl.size > 1 else 0
    return MorphologyMetrics(
        inflection_count_mean=float(infl.mean()),
        inflection_count_sd=float(infl.std(ddof=ddof)),
        auc_mean=float(auc.mean()),
        auc_sd=float(auc.std(ddof=ddof)),
    )
