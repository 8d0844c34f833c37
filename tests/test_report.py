import ast
import importlib
import inspect
import json

import numpy as np
import pytest
from numpy.testing import assert_allclose

from pulsecmp import beats, metrics
from pulsecmp.config import PipelineConfig
from pulsecmp.formats import canonical_json
from pulsecmp.report import (
    RecordingBundle,
    condition_modality,
    run_compare,
    simulate_bundle,
)
from pulsecmp.signal_core import TimeSeries
from pulsecmp.synth import (
    CubeGeometry,
    PulseModel,
    generate_waveform,
    synth_reference,
)

from oracles import synth_radar_cube

FS = 200.0


def imported_modules(module: str) -> set[str]:
    """The modules that ``pulsecmp.<module>``'s source imports from."""
    tree = ast.parse(inspect.getsource(importlib.import_module(f"pulsecmp.{module}")))
    imported = {n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)}
    return imported | {
        alias.name for n in ast.walk(tree) if isinstance(n, ast.Import) for alias in n.names
    }


def quick_config(**overrides):
    defaults = dict(synth_duration_s=30.0, synth_seed=1, synth_snr_db=20.0)
    defaults.update(overrides)
    return PipelineConfig(**defaults)


class TestRecordingBundle:
    def test_requires_modality(self):
        with pytest.raises(ValueError):
            RecordingBundle()

    def test_present_modalities(self):
        waveform, truth = generate_waveform(PulseModel(), 12.0, FS, 0)
        ref = synth_reference(waveform, 120, 80, truth.beat_times_s)
        bundle = RecordingBundle(reference=ref)
        assert bundle.present_modalities() == ["reference"]


class TestRunCompare:
    def test_needs_two_modalities(self):
        waveform, truth = generate_waveform(PulseModel(), 12.0, FS, 0)
        ref = synth_reference(waveform, 120, 80, truth.beat_times_s)
        with pytest.raises(ValueError, match="need two modalities"):
            run_compare(RecordingBundle(reference=ref))

    def test_synthetic_bundle_ordering(self):
        config = quick_config()
        report = run_compare(simulate_bundle(config), config)
        cos_radar = report.pairs["radar_vs_reference"].comparison.cosine_mean
        cos_ppg = report.pairs["ppg_vs_reference"].comparison.cosine_mean
        assert cos_radar >= cos_ppg
        assert report.baseline == "reference"
        for summary in report.modalities.values():
            assert summary.status == "ok"

    def test_duplicated_reference_as_ppg(self):
        waveform, truth = generate_waveform(PulseModel(), 30.0, FS, 4)
        ref = synth_reference(waveform, 120, 80, truth.beat_times_s)
        bundle = RecordingBundle(
            reference=ref,
            ppg=ref,
            subject_id="dup",
        )
        report = run_compare(bundle)
        pair = report.pairs["ppg_vs_reference"]
        assert pair.status == "ok"
        assert pair.lag_s == 0.0
        assert pair.bland_altman.bias == 0.0
        assert pair.bland_altman.sd == 0.0
        assert pair.comparison.cosine_mean == 1.0
        assert pair.comparison.p_inflections == 1.0

    def test_insufficient_beats_flagged(self):
        waveform, truth = generate_waveform(PulseModel(), 30.0, FS, 5)
        ref = synth_reference(waveform, 120, 80, truth.beat_times_s)
        flat = TimeSeries(np.full(int(30 * FS), 5000.0), FS)
        bundle = RecordingBundle(
            reference=ref,
            ppg=flat,
        )
        report = run_compare(bundle)
        assert report.modalities["ppg"].status == "insufficient beats"
        assert report.pairs["ppg_vs_reference"].status == "insufficient beats"
        assert report.modalities["reference"].status == "ok"

    def test_radar_baseline_when_no_reference(self):
        config = quick_config()
        bundle = simulate_bundle(config)
        no_ref = RecordingBundle(radar=bundle.radar, ppg=bundle.ppg, subject_id="nr")
        report = run_compare(no_ref, config)
        assert report.baseline == "radar"
        assert "ppg_vs_radar" in report.pairs

    def test_reference_bp_summary(self):
        config = quick_config(synth_snr_db=-1.0)
        report = run_compare(simulate_bundle(config), config)
        bp = report.modalities["reference"].bp
        assert bp is not None
        assert 115.0 < bp.sbp <= 120.0
        assert 79.0 <= bp.dbp < 85.0
        assert bp.dbp < bp.map < bp.sbp

    def test_report_dict_is_canonical_json_stable(self):
        config = quick_config()
        report1 = run_compare(simulate_bundle(config), config)
        report2 = run_compare(simulate_bundle(config), config)
        assert canonical_json(report1.to_dict()) == canonical_json(report2.to_dict())

    def test_config_echo_present(self):
        config = quick_config()
        report = run_compare(simulate_bundle(config), config)
        assert report.config_echo["filter.order"] == 4
        assert report.config_echo["synth.seed"] == 1

    def test_beat_counts_consistent(self):
        config = quick_config(synth_snr_db=-1.0)
        report = run_compare(simulate_bundle(config), config)
        doc = report.to_dict()
        for name, summary in report.modalities.items():
            entry = doc["modalities"][name]
            assert entry["n_beats"] == len(summary.beats)
            assert entry["n_diastolic"] == summary.train.diastolic_indices.size


class TestProcessReference:
    def test_orients_and_filters(self):
        waveform, truth = generate_waveform(PulseModel(), 20.0, FS, 6)
        ref = synth_reference(waveform, 120, 80, truth.beat_times_s)
        out, _, _ = condition_modality("reference", ref, PipelineConfig())
        # baseline (the 100 mmHg offset) removed, pulsation preserved
        assert np.abs(out.samples).max() < np.ptp(ref.samples)
        assert np.ptp(out.samples) > 0.5 * np.ptp(ref.samples)
        flipped, _, _ = condition_modality(
            "reference", ref.with_samples(-ref.samples), PipelineConfig()
        )
        assert_allclose(out.samples, flipped.samples, atol=1e-9)


@pytest.fixture(scope="module")
def default_bundle():
    """The default seed-1 bundle: 60 s, all three modalities."""
    config = PipelineConfig()
    return config, simulate_bundle(config)


class TestSharedLastStep:
    def test_detect_peaks_once_per_modality(self, default_bundle, call_log):
        detect_peaks_calls = call_log(beats.detect_peaks)
        config, bundle = default_bundle
        report = run_compare(bundle, config)
        assert len(detect_peaks_calls) == 3
        assert report.modalities["radar"].selection.inverted is False

    def test_negated_ppg_gives_identical_report(self, default_bundle):
        config, bundle = default_bundle
        negated = bundle.ppg.with_samples(-bundle.ppg.samples)
        flipped = RecordingBundle(
            radar=bundle.radar, ppg=negated, reference=bundle.reference,
            subject_id=bundle.subject_id,
        )
        assert canonical_json(run_compare(flipped, config).to_dict()) == canonical_json(
            run_compare(bundle, config).to_dict()
        )

    def test_negated_displacement_reports_inverted_radar(self, default_bundle, call_log):
        detect_peaks_calls = call_log(beats.detect_peaks)
        config, bundle = default_bundle
        displacement = bundle.truth.displacement
        cube = synth_radar_cube(
            displacement.with_samples(-displacement.samples),
            CubeGeometry(),
            snr_db=config.synth_snr_db,
            seed=config.synth_seed,
        )
        _, _, selection = condition_modality("radar", cube, config)
        assert selection.inverted
        # an inverted waveform costs the second detection
        assert len(detect_peaks_calls) == 2

    def test_motionless_radar_polarity_undecided(self, default_bundle):
        # no pulse, no systolic peak: the polarity rule cannot decide
        config, _ = default_bundle
        still = TimeSeries(np.zeros(int(12 * FS)), FS)
        cube = synth_radar_cube(still, CubeGeometry(), snr_db=None, seed=1)
        _, train, selection = condition_modality("radar", cube, config)
        assert train.systolic_indices.size < 3
        assert selection.inverted is None

    @pytest.mark.parametrize("modality", ["radar", "ppg"])
    def test_modality_chains_import_neither_beats_nor_report(self, modality):
        # the modules a modality's load and chain run in, before the shared last step
        modules = {"radar": ("formats", "radar"), "ppg": ("formats", "signal_core")}[modality]
        for module in modules:
            assert not imported_modules(module) & {"pulsecmp.beats", "pulsecmp.report"}

    def test_metrics_imports_no_pulsecmp_module(self):
        # beats measures its table with metrics: the dependency runs one way
        assert "pulsecmp.metrics" in imported_modules("beats")
        assert not {m for m in imported_modules("metrics") if m.split(".")[0] == "pulsecmp"}


class TestBeatTable:
    def test_each_beat_measured_once(self, default_bundle, call_log, monkeypatch):
        config, bundle = default_bundle
        calls = [call_log(fn) for fn in (metrics.count_inflections, metrics.auc_normalized)]
        monkeypatch.setattr(beats, "BEAT_BLOCK_ROWS", 7)
        report = run_compare(bundle, config)
        n_beats = [summary.n_beats for summary in report.modalities.values()]
        assert sum(n_beats) == 183
        # one call per block of each modality's table as it is cut (no beat
        # of this bundle is flat); pairing reads rows of these tables and
        # measures none
        blocks = [min(7, n - k) for n in n_beats for k in range(0, n, 7)]
        assert len(blocks) > len(n_beats)
        for log in calls:
            assert [len(args[-1]) for args in log] == blocks

    def test_block_size_does_not_change_the_report(self, default_bundle, monkeypatch):
        # a 60 s table fits in one default block: only a small one splits it
        config, bundle = default_bundle
        expected = canonical_json(run_compare(bundle, config).to_dict())
        monkeypatch.setattr(beats, "BEAT_BLOCK_ROWS", 7)
        assert canonical_json(run_compare(bundle, config).to_dict()) == expected

    def test_rows_span_exactly_unit_interval(self, default_bundle):
        config, bundle = default_bundle
        report = run_compare(bundle, config)
        for summary in report.modalities.values():
            table = summary.beats
            assert table.shapes.shape == (summary.n_beats, config.beats_norm_len)
            assert np.all(table.shapes.min(axis=1) == 0.0)
            assert np.all(table.shapes.max(axis=1) == 1.0)
            assert np.all(np.diff(table.feet) > 0)
            # foot-to-foot beats: one fewer than the feet
            assert table.feet[-1] < summary.train.diastolic_indices.size - 1

    def test_paired_rows_match_the_aligned_feet(self, default_bundle):
        config, bundle = default_bundle
        report = run_compare(bundle, config)
        base = report.modalities["reference"]
        for name in ("radar", "ppg"):
            pair = report.pairs[f"{name}_vs_reference"]
            _, ia, ib = beats.align_beat_events(
                base.train.diastolic_times(), report.modalities[name].train.diastolic_times(),
                config.align_max_lag_s, config.align_pair_tol_s,
            )
            i, j = beats.paired_consecutive(ia, ib)
            # a paired beat is a consecutive match kept in both tables
            kept = np.isin(i, base.beats.feet) & np.isin(j, report.modalities[name].beats.feet)
            assert pair.n_paired_beats == int(kept.sum()) >= 2
            assert pair.n_event_pairs == len(ia)


class TestReportJson:
    def test_float_fields_read_back_as_floats(self, default_bundle):
        # a float field stays a float in report.json when its value is integral
        config, bundle = default_bundle
        doc = run_compare(bundle, config).to_dict()
        back = json.loads(canonical_json(doc))

        def walk(value, loaded):
            if isinstance(value, dict):
                assert list(loaded) == list(value)
                for key in value:
                    walk(value[key], loaded[key])
            elif isinstance(value, (float, np.floating)):
                assert type(loaded) is float and loaded == value

        walk(doc, back)
        for field in (
            back["modalities"]["radar"]["morphology"]["inflection_count_mean"],
            back["modalities"]["reference"]["bp"]["sbp"],
            back["pairs"]["radar_vs_reference"]["lag_s"],
            back["config"]["filter.high_hz"],
        ):
            assert type(field) is float
