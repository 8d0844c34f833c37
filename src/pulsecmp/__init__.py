"""pulsecmp: multimodal arterial pulse waveform comparison toolkit.

Processing chains for three pulse-wave modalities recorded at the same
site: near-field FMCW radar (tissue displacement via phase), reflective
PPG, and a continuous arterial-pressure reference. Includes beat
detection, inter-beat-interval extraction, waveform morphology metrics,
Bland-Altman agreement statistics, and a seedable physics-based signal
generator used as the verification oracle.
"""

from pulsecmp.signal_core import (
    TimeSeries,
    BandpassSpec,
    butterworth_bandpass,
    resample_linear,
)
from pulsecmp.beats import (
    PeakTrain,
    IbiSeries,
    BeatSegment,
    AverageBeat,
    detect_peaks,
    extract_ibi,
    segment_beats,
    average_beats,
    align_beat_events,
    event_train,
    correct_polarity,
)
from pulsecmp.radar import (
    RadarCube,
    BinSelection,
    RadarPulseResult,
    phase_per_bin,
    select_best_bin,
    process_radar,
)
from pulsecmp.ppg import PpgRecording, process_ppg
from pulsecmp.metrics import (
    BlandAltman,
    MorphologyMetrics,
    PairwiseComparison,
    BpSummary,
    map_from_bp,
    bland_altman,
    count_inflections,
    auc_normalized,
    cosine_similarity,
    paired_t_test,
    compare_modalities,
)
from pulsecmp.synth import (
    PulseModel,
    SynthGroundTruth,
    CubeGeometry,
    generate_waveform,
    synth_radar_cube,
    synth_ppg,
    synth_reference,
)
from pulsecmp.config import PipelineConfig
from pulsecmp.report import RecordingBundle, AgreementReport, run_compare, simulate_bundle

__version__ = "0.1.0"

__all__ = [
    "TimeSeries",
    "BandpassSpec",
    "butterworth_bandpass",
    "resample_linear",
    "PeakTrain",
    "IbiSeries",
    "BeatSegment",
    "AverageBeat",
    "detect_peaks",
    "extract_ibi",
    "segment_beats",
    "average_beats",
    "align_beat_events",
    "event_train",
    "RadarCube",
    "BinSelection",
    "RadarPulseResult",
    "phase_per_bin",
    "select_best_bin",
    "correct_polarity",
    "process_radar",
    "PpgRecording",
    "process_ppg",
    "BlandAltman",
    "MorphologyMetrics",
    "PairwiseComparison",
    "BpSummary",
    "map_from_bp",
    "bland_altman",
    "count_inflections",
    "auc_normalized",
    "cosine_similarity",
    "paired_t_test",
    "compare_modalities",
    "PulseModel",
    "SynthGroundTruth",
    "CubeGeometry",
    "generate_waveform",
    "synth_radar_cube",
    "synth_ppg",
    "synth_reference",
    "PipelineConfig",
    "RecordingBundle",
    "AgreementReport",
    "run_compare",
    "simulate_bundle",
]
