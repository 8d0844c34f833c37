"""Bundle processing and the cross-modality agreement report.

``simulate_stream`` builds a synthetic recording set from one shared
ground-truth waveform, its radar cube drawn as it is written
(``simulate_bundle`` holds the cube in memory instead);
``compare_recordings`` processes the modalities given, loading each
recording just before its chain (``run_compare`` on an in-memory
bundle, ``cli.compare_bundle`` on files), aligns beats pairwise
against the reference (or against radar when no reference is present),
and assembles interval and morphology agreement statistics. The PPG
and the reference are each one series, the CSV column their load
picks, and run one series chain; the radar cube has its own. Each
modality's chain ends at the shared band-pass; orienting the waveform
and detecting its beats is one shared last step
(``beats.orient_and_detect``) whose train is reused. Each modality's
beats are cut, normalized and measured in one pass into one
``metrics.BeatTable``, and a pair's beats are rows picked by index.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING

import numpy as np

from pulsecmp.beats import (
    PeakTrain,
    align_beat_events,
    extract_ibi,
    foot_intervals_ms,
    in_ibi_gate,
    orient_and_detect,
    paired_consecutive,
    segment_beats_indexed,
)
from pulsecmp.config import PipelineConfig
from pulsecmp.metrics import (
    BeatTable,
    BlandAltman,
    BpSummary,
    PairwiseComparison,
    bland_altman,
    compare_modalities,
    map_from_bp,
)
from pulsecmp.radar import BinSelection, RadarCube, process_radar
from pulsecmp.signal_core import BandpassSpec, TimeSeries, butterworth_bandpass, require_min_record

# synthesis is imported in the functions that use it: compare and
# process never load it
if TYPE_CHECKING:
    from pulsecmp.synth import PulseModel, RadarStream, SynthGroundTruth

MIN_BEATS = 2

# Each modality's file inside a bundle directory. ``compare_recordings``
# runs the chains in this order, each recording loaded just before its
# chain and released before the next one loads. Radar first: its chain's
# peak then sits in a heap that no CSV has grown yet (radar last peaks a
# 60 s default bundle's compare about 0.9 MB higher).
MODALITIES = {"radar": "radar.radc", "ppg": "ppg.csv", "reference": "reference.csv"}


@dataclass
class RecordingBundle:
    """All simultaneously recorded modalities for one subject.

    ``radar`` is a ``RadarStream`` only in a bundle from
    ``simulate_stream``, which is written, not compared. The PPG and the
    reference are one series each: a load picks one column of a CSV.
    """

    radar: RadarCube | RadarStream | None = None
    ppg: TimeSeries | None = None
    reference: TimeSeries | None = None
    truth: SynthGroundTruth | None = None
    subject_id: str = "subject"

    def __post_init__(self):
        if self.radar is None and self.ppg is None and self.reference is None:
            raise ValueError("bundle must contain at least one modality")

    def present_modalities(self) -> list[str]:
        return [name for name in MODALITIES if getattr(self, name) is not None]


@dataclass
class ModalitySummary:
    """One modality's beat train and, from ``MIN_BEATS`` beats on, its beat
    table; its intervals and morphology are read from them where written."""

    name: str
    train: PeakTrain
    beats: BeatTable | None = None
    selection: BinSelection | None = None
    bp: BpSummary | None = None

    @property
    def status(self) -> str:
        return "ok" if self.beats is not None else "insufficient beats"

    @property
    def n_beats(self) -> int:
        return len(self.beats) if self.beats is not None else 0


@dataclass
class PairSummary:
    """Agreement between one test modality and the comparison baseline."""

    name: str
    status: str
    lag_s: float = 0.0
    n_event_pairs: int = 0
    n_paired_ibis: int = 0
    n_paired_beats: int = 0
    bland_altman: BlandAltman | None = None
    comparison: PairwiseComparison | None = None


@dataclass
class AgreementReport:
    """Everything ``run_compare`` produces for one bundle."""

    subject_id: str
    baseline: str
    config_echo: dict
    modalities: dict[str, ModalitySummary]
    pairs: dict[str, PairSummary]

    def to_dict(self) -> dict:
        """JSON-ready view with a fixed key order."""
        doc: dict = {
            "subject_id": self.subject_id,
            "baseline": self.baseline,
            "modalities": {},
            "pairs": {},
            "config": self.config_echo,
        }
        for name in sorted(self.modalities):
            m = self.modalities[name]
            entry: dict = {
                "status": m.status,
                "n_systolic": int(m.train.systolic_indices.size),
                "n_diastolic": int(m.train.diastolic_indices.size),
                "n_beats": m.n_beats,
                "n_ibi": extract_ibi(m.train)[1].size,
            }
            if m.beats is not None:
                extrema, auc = m.beats.extrema, m.beats.auc
                entry["morphology"] = {
                    "inflection_count_mean": float(extrema.mean()),
                    "inflection_count_sd": float(extrema.std(ddof=1)),
                    "auc_mean": float(auc.mean()),
                    "auc_sd": float(auc.std(ddof=1)),
                }
            if m.selection is not None:
                entry["selection"] = asdict(m.selection)
            if m.bp is not None:
                entry["bp"] = asdict(m.bp)
            doc["modalities"][name] = entry
        for name in sorted(self.pairs):
            p = self.pairs[name]
            entry = {
                "status": p.status,
                "lag_s": p.lag_s,
                "n_event_pairs": p.n_event_pairs,
                "n_paired_ibis": p.n_paired_ibis,
                "n_paired_beats": p.n_paired_beats,
            }
            if p.bland_altman is not None:
                entry["bland_altman"] = {
                    "bias_ms": p.bland_altman.bias,
                    "sd_ms": p.bland_altman.sd,
                    "loa_low_ms": p.bland_altman.loa_low,
                    "loa_high_ms": p.bland_altman.loa_high,
                    "n": p.bland_altman.diffs.size,
                }
            if p.comparison is not None:
                c = p.comparison
                entry["morphology_comparison"] = {
                    "inflections_mean_diff_ref_minus_test": -c.mean_diff_inflections,
                    "inflections_mean_diff_test_minus_ref": c.mean_diff_inflections,
                    "p_inflections": c.p_inflections,
                    "auc_mean_diff_test_minus_ref": c.mean_diff_auc,
                    "auc_mean_diff_ref_minus_test": -c.mean_diff_auc,
                    "p_auc": c.p_auc,
                    "cosine_mean": c.cosine_mean,
                    "cosine_sd": c.cosine_sd,
                }
            doc["pairs"][name] = entry
        return doc


def model_from_config(config: PipelineConfig) -> PulseModel:
    from pulsecmp.synth import PulseModel

    return PulseModel(hr_mean_bpm=config.synth_hr_bpm, ibi_sd_ms=config.synth_ibi_sd_ms)


def simulate_stream(config: PipelineConfig, subject_id: str = "synthetic") -> RecordingBundle:
    """Generate radar, PPG, and reference recordings from one truth waveform.

    The radar is a ``RadarStream``: its cube is drawn block by block as
    ``write_radar_cube`` writes it, so the bundle is for writing once
    (``simulate`` does). The arguments are checked before it returns.
    """
    from pulsecmp.synth import (
        CubeGeometry,
        generate_waveform,
        synth_ppg,
        synth_radar_stream,
        synth_reference,
    )

    model = model_from_config(config)
    waveform, truth = generate_waveform(
        model, config.synth_duration_s, config.synth_fs_hz, config.synth_seed
    )
    displacement = waveform.with_samples(waveform.samples * config.synth_displacement_m)
    geometry = CubeGeometry(
        antennas=config.synth_antennas,
        chirps=config.synth_chirps,
        samples=config.synth_samples,
        target_antenna=config.synth_target_antenna,
        target_range_bin=config.synth_target_bin,
    )
    truth.displacement = displacement
    truth.displacement_peak_m = float(np.abs(displacement.samples).max())
    truth.target_antenna = geometry.target_antenna
    truth.target_range_bin = geometry.target_range_bin
    # a negative SNR disables the noise
    snr_db = None if config.synth_snr_db < 0 else config.synth_snr_db
    radar = synth_radar_stream(displacement, geometry, snr_db=snr_db, seed=config.synth_seed)
    ppg = synth_ppg(
        waveform,
        decay_tau_s=config.synth_ppg_tau_s,
        noise_sd=config.synth_ppg_noise_sd,
        seed=config.synth_seed,
    )
    reference = synth_reference(
        waveform, config.synth_sbp_mmhg, config.synth_dbp_mmhg, truth.beat_times_s
    )
    return RecordingBundle(
        radar=radar, ppg=ppg, reference=reference, truth=truth, subject_id=subject_id
    )


def simulate_bundle(config: PipelineConfig, subject_id: str = "synthetic") -> RecordingBundle:
    """The bundle of :func:`simulate_stream` with its radar cube held in memory."""
    bundle = simulate_stream(config, subject_id)
    bundle.radar = bundle.radar.to_cube()
    return bundle


@contextmanager
def modality_errors(name: str):
    """Prefix a ``ValueError`` raised inside with the modality's name, once
    ("ppg: recording too short"); a ``FormatError`` keeps its ``code``."""
    try:
        yield
    except ValueError as exc:
        exc.args = (f"{name}: {exc}",)
        raise


def condition_modality(
    name: str, raw, config: PipelineConfig
) -> tuple[TimeSeries, PeakTrain, BinSelection | None]:
    """Run one modality's conditioning chain on its raw recording.

    ``name`` is a key of :data:`MODALITIES` and ``raw`` the bundle field
    of that name: a ``RadarCube`` for radar, a ``TimeSeries`` for the
    PPG and the reference, which share one series chain. The band-passed
    waveform is then oriented and its beats detected by the shared last
    step.
    Returns the oriented waveform, its beat train and, for radar only,
    the chosen (antenna, range bin) with its ``inverted`` polarity
    decision (``None`` when undecided). Any record under ``MIN_RECORD_S``
    is "recording too short".
    """
    spec = BandpassSpec(config.filter_order, config.filter_low_hz, config.filter_high_hz)
    selection = None
    if name == "radar":
        waveform, selection = process_radar(raw, spec, config.radar_max_bins)
    else:
        require_min_record(raw.duration_s)
        waveform = butterworth_bandpass(raw, spec)
    waveform, train, inverted = orient_and_detect(
        waveform, config.beats_min_separation_s, config.beats_prominence_rel
    )
    if selection is not None:
        selection.inverted = inverted
    return waveform, train, selection


def _summarize_modality(
    name: str,
    waveform: TimeSeries,
    train: PeakTrain,
    selection: BinSelection | None,
    config: PipelineConfig,
    raw_for_bp: TimeSeries | None = None,
) -> ModalitySummary:
    summary = ModalitySummary(name, train, selection=selection)
    table = segment_beats_indexed(waveform, train, config.beats_norm_len)
    if len(table) < MIN_BEATS:
        return summary
    summary.beats = table
    if raw_for_bp is not None and train.systolic_indices.size:
        # finite samples near the float range can overflow a mean's sum
        with np.errstate(over="ignore", invalid="ignore"):
            sbp = float(np.mean(raw_for_bp.samples[train.systolic_indices]))
            dbp = float(np.mean(raw_for_bp.samples[train.diastolic_indices]))
        if not (math.isfinite(sbp) and math.isfinite(dbp)):
            raise ValueError("pressure mean is not finite: input too large")
        if sbp > dbp > 0:
            summary.bp = BpSummary(sbp, dbp, map_from_bp(sbp, dbp))
    return summary


def _paired_ibis(
    base: ModalitySummary, test: ModalitySummary, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    base_ms = foot_intervals_ms(base.train)[i]
    test_ms = foot_intervals_ms(test.train)[j]
    keep = in_ibi_gate(base_ms) & in_ibi_gate(test_ms)
    return base_ms[keep], test_ms[keep]


def _paired_beats(
    base: ModalitySummary, test: ModalitySummary, i: np.ndarray, j: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # the indices of the rows led by feet i and j; a flat beat leaves a
    # gap in a table's increasing feet, and a pair that misses either
    # row is dropped
    base_rows = np.minimum(np.searchsorted(base.beats.feet, i), len(base.beats) - 1)
    test_rows = np.minimum(np.searchsorted(test.beats.feet, j), len(test.beats) - 1)
    kept = (base.beats.feet[base_rows] == i) & (test.beats.feet[test_rows] == j)
    return base_rows[kept], test_rows[kept]


def _compare_pair(
    base: ModalitySummary, test: ModalitySummary, config: PipelineConfig
) -> PairSummary:
    name = f"{test.name}_vs_{base.name}"
    if base.status != "ok" or test.status != "ok":
        return PairSummary(name, "insufficient beats")
    lag_s, ia, ib = align_beat_events(
        base.train.diastolic_times(),
        test.train.diastolic_times(),
        config.align_max_lag_s,
        config.align_pair_tol_s,
    )
    # beats bounded by two matched feet in both trains, by leading index
    i, j = paired_consecutive(ia, ib)
    base_ibis, test_ibis = _paired_ibis(base, test, i, j)
    base_rows, test_rows = _paired_beats(base, test, i, j)
    summary = PairSummary(
        name,
        "ok",
        lag_s=lag_s,
        n_event_pairs=len(ia),
        n_paired_ibis=len(base_ibis),
        n_paired_beats=len(base_rows),
    )
    if len(base_ibis) >= 2:
        summary.bland_altman = bland_altman(test_ibis, base_ibis)
    if len(base_rows) >= 2:
        summary.comparison = compare_modalities(base.beats, test.beats, base_rows, test_rows)
    if summary.bland_altman is None and summary.comparison is None:
        summary.status = "insufficient pairs"
    return summary


def compare_recordings(
    names: list[str], load: Callable[[str], object], subject_id: str, config: PipelineConfig
) -> AgreementReport:
    """Process the named modalities one at a time and compare against the baseline.

    ``names`` are keys of :data:`MODALITIES`, in that order, and
    ``load(name)`` returns that modality's raw recording. Each recording
    is loaded just before its chain and released once its summary is
    built, so no two are held at once. The baseline is the reference
    when present, else the radar. Each modality with fewer than two
    detected beats is flagged rather than failing the whole run; an
    input error while loading or conditioning one names that modality.
    """
    if len(names) < 2:
        raise ValueError("need two modalities")
    modalities: dict[str, ModalitySummary] = {}
    for name in names:
        with modality_errors(name):
            raw = load(name)
            # no name is bound to the waveform, so it is freed once its
            # beats are cut, before the next modality is conditioned
            modalities[name] = _summarize_modality(
                name,
                *condition_modality(name, raw, config),
                config,
                raw_for_bp=raw if name == "reference" else None,
            )
        # else the name would hold this recording while the next one loads
        del raw

    baseline = "reference" if "reference" in modalities else "radar"
    pairs: dict[str, PairSummary] = {}
    for name, summary in modalities.items():
        if name == baseline:
            continue
        pair = _compare_pair(modalities[baseline], summary, config)
        pairs[pair.name] = pair
    return AgreementReport(
        subject_id=subject_id,
        baseline=baseline,
        config_echo=config.to_flat_dict(),
        modalities=modalities,
        pairs=pairs,
    )


def run_compare(bundle: RecordingBundle, config: PipelineConfig | None = None) -> AgreementReport:
    """:func:`compare_recordings` on the modalities an in-memory bundle holds."""
    return compare_recordings(
        bundle.present_modalities(),
        lambda name: getattr(bundle, name),
        bundle.subject_id,
        config if config is not None else PipelineConfig(),
    )
