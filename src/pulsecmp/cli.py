"""Command-line interface.

Verbs: ``simulate`` (synthetic recording bundle plus truth sidecar),
``process`` (one modality to waveform/peaks/IBI CSVs), ``compare``
(bundle to agreement report JSON plus plot-ready CSVs), ``selftest``
(built-in oracle suite). Exit codes: 0 success, 1 input error,
2 internal failure. All outputs are written atomically.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
import traceback

import numpy as np

from pulsecmp.beats import IbiSeries, extract_ibi
from pulsecmp.config import PipelineConfig, load_config
from pulsecmp.formats import (
    FormatError,
    REFERENCE_COLUMN,
    canonical_json,
    read_ppg_csv,
    read_radar_cube,
    read_series_csv,
    write_ground_truth,
    write_ppg_csv,
    write_radar_cube,
    write_series_csv,
    write_table,
    write_text_atomic,
)
from pulsecmp.report import (
    MODALITIES,
    AgreementReport,
    RecordingBundle,
    condition_modality,
    model_from_config,
    run_compare,
    simulate_stream,
)

TRUTH_FILE = "truth.json"


def _apply_overrides(config: PipelineConfig, pairs: list[str] | None) -> PipelineConfig:
    for item in pairs or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        config.set_key(key.strip(), value)
    return config


def _load_cli_config(args) -> PipelineConfig:
    config = load_config(getattr(args, "config", None))
    return _apply_overrides(config, getattr(args, "set", None))


def write_bundle_dir(bundle: RecordingBundle, config: PipelineConfig, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    for name in bundle.present_modalities():
        save_modality(name, getattr(bundle, name), os.path.join(directory, MODALITIES[name]))
    if bundle.truth is not None:
        write_ground_truth(
            bundle.truth,
            model_from_config(config),
            config.synth_duration_s,
            config.synth_fs_hz,
            config.synth_displacement_m,
            os.path.join(directory, TRUTH_FILE),
        )


def load_modality(name: str, path: str, column: str = REFERENCE_COLUMN):
    """Read one modality's recording; ``column`` names the reference CSV column."""
    if name == "radar":
        return read_radar_cube(path)
    if name == "ppg":
        return read_ppg_csv(path)
    return read_series_csv(path, column)


def save_modality(name: str, recording, path: str) -> None:
    """Write one modality's recording so that :func:`load_modality` reads it back."""
    if name == "radar":
        write_radar_cube(recording, path)
    elif name == "ppg":
        write_ppg_csv(recording, path)
    else:
        write_series_csv(
            path,
            {REFERENCE_COLUMN: recording.samples},
            recording.sample_rate_hz,
            recording.start_time_s,
        )


def read_bundle_dir(directory: str, subject_id: str | None = None) -> RecordingBundle:
    """Load every modality file present in a bundle directory.

    The truth sidecar is not read: comparison never uses it.
    """
    recordings = {}
    for name, filename in MODALITIES.items():
        path = os.path.join(directory, filename)
        if os.path.exists(path):
            recordings[name] = load_modality(name, path)
    return RecordingBundle(
        **recordings,
        subject_id=subject_id or os.path.basename(os.path.normpath(directory)),
    )


def _write_ibi(path: str, ibi: IbiSeries) -> None:
    write_table(path, {"anchor_time_s": ibi.anchor_times_s, "interval_ms": ibi.intervals_ms})


def _write_report_files(report: AgreementReport, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    write_text_atomic(
        os.path.join(directory, "report.json"), canonical_json(report.to_dict()) + "\n"
    )
    for name, modality in sorted(report.modalities.items()):
        if modality.ibi is not None and len(modality.ibi):
            _write_ibi(os.path.join(directory, f"ibi_{name}.csv"), modality.ibi)
        if modality.average_beat is not None:
            beat = modality.average_beat
            positions = np.linspace(0.0, 1.0, beat.mean.size)
            write_table(
                os.path.join(directory, f"avg_beat_{name}.csv"),
                {"position": positions, "mean": beat.mean, "sd": beat.sd},
            )
    for name, pair in sorted(report.pairs.items()):
        if pair.bland_altman is not None:
            points = pair.bland_altman.points
            write_table(
                os.path.join(directory, f"ba_points_{name}.csv"),
                {"mean_ms": [m for m, _ in points], "diff_ms": [d for _, d in points]},
            )


def cmd_simulate(args) -> int:
    config = _load_cli_config(args)
    # through the key check, as --set would be (a non-finite --duration
    # is left to synthesis, which names the duration)
    if args.seed is not None:
        config.set_key("synth.seed", str(args.seed))
    if args.duration is not None:
        config.synth_duration_s = args.duration
    if args.snr_db is not None:
        config.set_key("synth.snr_db", str(args.snr_db))
    # the radar cube is drawn as it is written, one frame block at a time
    bundle = simulate_stream(config, subject_id=args.subject)
    write_bundle_dir(bundle, config, args.out)
    print(f"wrote bundle for {bundle.subject_id!r} to {args.out}")
    return 0


def cmd_process(args) -> int:
    for flag, modality in (("channel", "ppg"), ("column", "reference")):
        if getattr(args, flag) is not None and args.modality != modality:
            raise ValueError(f"--{flag} applies to 'process {modality}' only")
    config = _load_cli_config(args)
    if args.channel:
        config.ppg_channel = args.channel
    os.makedirs(args.out, exist_ok=True)
    meta: dict = {"modality": args.modality, "input": os.path.basename(args.input)}
    raw = load_modality(args.modality, args.input, args.column or REFERENCE_COLUMN)
    waveform, train, selection = condition_modality(args.modality, raw, config)
    if selection is not None:
        meta["selection"] = dataclasses.asdict(selection)
    ibi = extract_ibi(train)
    write_series_csv(
        os.path.join(args.out, "waveform.csv"),
        {"value": waveform.samples},
        waveform.sample_rate_hz,
        waveform.start_time_s,
    )
    # systolic peaks then feet, in index order (a tie keeps the peak first)
    indices = np.concatenate([train.systolic_indices, train.diastolic_indices])
    order = np.argsort(indices, kind="stable")
    indices = indices[order]
    write_table(
        os.path.join(args.out, "peaks.csv"),
        {
            "is_diastolic": order >= train.systolic_indices.size,
            "index": indices,
            "time_s": waveform.start_time_s + indices / waveform.sample_rate_hz,
            "value": waveform.samples[indices],
        },
    )
    _write_ibi(os.path.join(args.out, "ibi.csv"), ibi)
    meta["n_systolic"] = int(train.systolic_indices.size)
    meta["n_diastolic"] = int(train.diastolic_indices.size)
    meta["n_ibi"] = len(ibi)
    write_text_atomic(os.path.join(args.out, "meta.json"), canonical_json(meta) + "\n")
    print(f"processed {args.modality}: {meta['n_systolic']} systolic peaks, {len(ibi)} intervals")
    return 0


def _compare_subject(bundle_dir: str, out_dir: str, config: PipelineConfig) -> str | None:
    """Compare one subject of a batch; the input-error message if it fails."""
    try:
        _write_report_files(run_compare(read_bundle_dir(bundle_dir), config), out_dir)
    except (FormatError, ValueError, OSError) as exc:
        return str(exc)
    return None


def cmd_compare(args) -> int:
    sources = ("bundle", "bundle_root", *MODALITIES)
    flags = [f"--{name.replace('_', '-')}" for name in sources if getattr(args, name)]
    if (args.bundle or args.bundle_root) and len(flags) > 1:
        raise ValueError(
            "compare takes one input source: --bundle, --bundle-root, or "
            f"--radar/--ppg/--reference files; got {' '.join(flags)}"
        )
    if args.jobs is not None and not args.bundle_root:
        raise ValueError("--jobs applies to --bundle-root only")
    if args.subject is not None and args.bundle_root:
        raise ValueError(
            "--subject does not apply to --bundle-root: subjects take their directory names"
        )
    config = _load_cli_config(args)
    if args.bundle_root:
        subjects = sorted(
            entry
            for entry in os.listdir(args.bundle_root)
            if os.path.isdir(os.path.join(args.bundle_root, entry))
        )
        if not subjects:
            raise ValueError(f"no subject directories under {args.bundle_root}")
        # the fork context starts all max_workers processes at once
        jobs = max(1, min(args.jobs or 1, len(subjects)))
        tasks = [
            (os.path.join(args.bundle_root, s), os.path.join(args.out, s), config)
            for s in subjects
        ]
        # each subject runs on its own: a bad one fails alone
        if jobs == 1:
            errors = [_compare_subject(*t) for t in tasks]
        else:
            # imported here: the pool's modules cost every other run start-up time
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=jobs) as pool:
                errors = list(pool.map(_compare_subject, *zip(*tasks)))
        failed = [(s, e) for s, e in zip(subjects, errors) if e is not None]
        for subject, message in failed:
            print(f"error: {subject}: {message}", file=sys.stderr)
        print(f"compared {len(subjects) - len(failed)} of {len(subjects)} subjects into {args.out}")
        return 1 if failed else 0

    if args.bundle:
        bundle = read_bundle_dir(args.bundle, subject_id=args.subject)
    else:
        paths = {name: getattr(args, name) for name in MODALITIES}
        bundle = RecordingBundle(
            **{name: load_modality(name, path) for name, path in paths.items() if path},
            subject_id=args.subject or "subject",
        )
    report = run_compare(bundle, config)
    _write_report_files(report, args.out)
    statuses = ", ".join(
        f"{name}={summary.status}" for name, summary in sorted(report.modalities.items())
    )
    print(f"report written to {os.path.join(args.out, 'report.json')} ({statuses})")
    return 0


def cmd_selftest(args) -> int:
    from pulsecmp.selftest import run_selftest

    results = run_selftest(quick=not args.full)
    failed = 0
    for r in results:
        label = "PASS" if r.passed else "FAIL"
        print(f"[{label}] {r.name}: {r.detail} ({r.elapsed_s:.1f}s)")
        failed += not r.passed
    if failed:
        print(f"{failed} of {len(results)} checks failed")
        return 2
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pulsecmp",
        description="Multimodal arterial pulse waveform comparison toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="config file (defaults to $PULSECMP_CONFIG)")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override one config key (repeatable)",
        )

    p_sim = sub.add_parser("simulate", help="generate a synthetic recording bundle")
    p_sim.add_argument("-o", "--out", required=True, help="output bundle directory")
    p_sim.add_argument("--seed", type=int, help="generator seed")
    p_sim.add_argument("--duration", type=float, help="record length in seconds")
    p_sim.add_argument("--snr-db", type=float, help="radar SNR in dB (negative disables noise)")
    p_sim.add_argument("--subject", default="synthetic", help="subject identifier")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_proc = sub.add_parser("process", help="process one modality to CSV outputs")
    p_proc.add_argument("modality", choices=list(MODALITIES))
    p_proc.add_argument("input", help="input file (.radc or .csv)")
    p_proc.add_argument("-o", "--out", required=True, help="output directory")
    p_proc.add_argument("--channel", help="PPG channel name (sets ppg.channel)")
    p_proc.add_argument("--column", help="reference CSV column name")
    common(p_proc)
    p_proc.set_defaults(func=cmd_process)

    p_cmp = sub.add_parser("compare", help="compare modalities and write a report")
    p_cmp.add_argument("-o", "--out", required=True, help="output directory")
    p_cmp.add_argument("--bundle", help="bundle directory from simulate")
    p_cmp.add_argument("--bundle-root", help="directory of per-subject bundle directories")
    p_cmp.add_argument("--jobs", type=int, help="parallel subjects for --bundle-root (default 1)")
    for name, filename in MODALITIES.items():
        # "radar cube file", "PPG CSV file", "reference CSV file"
        label = name.upper() if len(name) <= 3 else name
        kind = "cube" if filename.endswith(".radc") else "CSV"
        p_cmp.add_argument(f"--{name}", help=f"{label} {kind} file")
    p_cmp.add_argument("--subject", help="subject identifier")
    common(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    p_self = sub.add_parser("selftest", help="run the built-in oracle suite")
    p_self.add_argument("--full", action="store_true", help="acceptance-scale checks")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FormatError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
