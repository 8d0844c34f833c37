"""Per-layer metric names, the counters behind them, and what is traced.

A name ``<module>.<function>.<stat>`` with stat ``ms`` (inclusive
time), ``self_ms`` (time minus traced callees), ``calls`` or
``maxrss_mb`` (process peak RSS when the call returned) is read from
the span summary of that function. Names in ``SETUP_SIDE`` come from
the traced set-up process, all other span names from the traced
``compare`` processes. The remaining names are computed in ``run.py``.
A function that a workload never calls reads 0.
"""

from __future__ import annotations

import os

# name -> (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    # Import, radar ingest and the radar chain: move compare_s_p50 and
    # peak_rss_mb on radar-60s. cli.jobs2_speedup comes from the pool
    # probe of the traced radar-60s run.
    "cli.startup_ms": ("ms", "lower"),
    "cli.import_ms": ("ms", "lower"),
    "cli.main.self_ms": ("ms", "lower"),
    "cli.cmd_compare.self_ms": ("ms", "lower"),
    "cli.read_bundle_dir.self_ms": ("ms", "lower"),
    "cli.jobs2_speedup": ("ratio", "higher"),
    "formats.read_radar_cube.ms": ("ms", "lower"),
    "formats.read_radar_cube.mb_per_s": ("MB/s", "higher"),
    "formats.read_radar_cube.maxrss_mb": ("MB", "lower"),
    "radar.process_radar.ms": ("ms", "lower"),
    "radar.process_radar.self_ms": ("ms", "lower"),
    "radar.phase_per_bin.self_ms": ("ms", "lower"),
    "radar.select_best_bin.ms": ("ms", "lower"),
    "radar.correct_polarity.self_ms": ("ms", "lower"),
    "radar.process_radar.maxrss_mb": ("MB", "lower"),
    "radar.cube_bytes_f64": ("bytes", "lower"),
    "radar.bins_searched": ("count", "lower"),
    "radar.selection_hit_ratio": ("ratio", "higher"),
    "signal_core.bandpass_array.ms": ("ms", "lower"),
    # CSV, ground truth, beats and metrics: move compare_s_p50 on
    # vitals-1200s, flat on radar-60s.
    "formats.read_ppg_csv.ms": ("ms", "lower"),
    "formats.read_series_csv.ms": ("ms", "lower"),
    "formats.csv_rows_per_s": ("1/s", "higher"),
    "formats.read_ground_truth.self_ms": ("ms", "lower"),
    "synth.generate_waveform.ms": ("ms", "lower"),
    "signal_core.butterworth_bandpass.ms": ("ms", "lower"),
    "signal_core.butterworth_bandpass.calls": ("count", "lower"),
    "beats.detect_peaks.ms": ("ms", "lower"),
    "beats.detect_peaks.calls": ("count", "lower"),
    "beats.segment_beats_indexed.ms": ("ms", "lower"),
    "beats.align_beat_events.ms": ("ms", "lower"),
    "beats.extract_ibi.ms": ("ms", "lower"),
    "beats.average_beats.ms": ("ms", "lower"),
    "metrics.morphology_metrics.ms": ("ms", "lower"),
    "metrics.compare_modalities.ms": ("ms", "lower"),
    "metrics.bland_altman.ms": ("ms", "lower"),
    "ppg.process_ppg.self_ms": ("ms", "lower"),
    "report.process_reference.self_ms": ("ms", "lower"),
    "report.run_compare.self_ms": ("ms", "lower"),
    "beats.ibi_gate_kept_ratio": ("ratio", "higher"),
    "beats.event_pair_ratio": ("ratio", "higher"),
    "formats.canonical_json.ms": ("ms", "lower"),
    "formats.write_text_atomic.ms": ("ms", "lower"),
    # Set-up side: move setup_s and setup_peak_rss_mb.
    "synth.synth_radar_cube.ms": ("ms", "lower"),
    "synth.synth_radar_cube.maxrss_mb": ("MB", "lower"),
    "synth.synth_ppg.ms": ("ms", "lower"),
    "synth.synth_reference.ms": ("ms", "lower"),
    "report.simulate_bundle.self_ms": ("ms", "lower"),
    "formats.write_radar_cube.ms": ("ms", "lower"),
    "formats.write_series_csv.ms": ("ms", "lower"),
    "formats.write_ground_truth.ms": ("ms", "lower"),
    # Scaling probe on vitals-1200s (log2 of the 1200 s / 600 s time
    # ratio: 1 is linear, 2 quadratic) and the tracer's own cost.
    "synth.generate_waveform.scaling_exp": ("log2", "lower"),
    "formats.read_series_csv.scaling_exp": ("log2", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

SETUP_SIDE = {
    "synth.synth_radar_cube.ms",
    "synth.synth_radar_cube.maxrss_mb",
    "synth.synth_ppg.ms",
    "synth.synth_reference.ms",
    "report.simulate_bundle.self_ms",
    "formats.write_radar_cube.ms",
    "formats.write_series_csv.ms",
    "formats.write_ground_truth.ms",
}

SPAN_STATS = ("ms", "self_ms", "calls", "maxrss_mb")

# Left unwrapped: called once per CSV cell, so a span per call would
# cost more than the work it measures.
SKIP = ("formats.format_float",)


def span_metric(name: str) -> tuple[str, str] | None:
    """(function, stat) for a name read from a span summary, else None."""
    function, _, stat = name.rpartition(".")
    if stat in SPAN_STATS and function.count(".") == 1:
        return function, stat
    return None


# Functions the metrics read; install() reports the ones it cannot find.
EXPECTED = sorted({span_metric(n)[0] for n in PER_LAYER if span_metric(n)})


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _radar_cube(args, kwargs, result) -> dict:
    return {
        "file_bytes": os.path.getsize(_arg(args, kwargs, 0, "path")),
        "f64_bytes": int(result.data.size) * 8,
    }


def _csv_rows(result) -> int:
    channels = getattr(result, "channels", None)
    series = next(iter(channels.values())) if channels else result
    return len(series)


def _bins_searched(args, kwargs, result) -> dict:
    # select_best_bin searches every (antenna, bin) cell except the DC
    # and Nyquist bins, up to max_bins informative bins when given.
    antennas, bins = _arg(args, kwargs, 0, "phases").shape[:2]
    informative = max(bins - 2, 1)
    max_bins = kwargs.get("max_bins", args[1] if len(args) > 1 else None)
    if max_bins:
        informative = min(informative, max_bins - 1)
    return {"cells": antennas * informative}


COUNTERS = {
    "formats.read_radar_cube": _radar_cube,
    "formats.read_ppg_csv": lambda a, k, r: {"rows": _csv_rows(r)},
    "formats.read_series_csv": lambda a, k, r: {"rows": _csv_rows(r)},
    "radar.select_best_bin": _bins_searched,
}
