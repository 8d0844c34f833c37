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
import gc
import os
import sys
import traceback

# One BLAS thread unless the user chose a count: every product here is
# below OpenBLAS's threading threshold, and starting its worker pool
# costs each process tens of milliseconds. Only before numpy loads, so a
# caller that imported numpy first keeps its environment as it was.
if "numpy" not in sys.modules and not any(
    name in os.environ for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

# No cyclic collections while numpy and the pipeline load: the modules
# they create live for the whole process, so a pass over them would
# find next to nothing to free. The importer's GC state is restored
# after.
_gc_was_enabled = gc.isenabled()
gc.disable()
try:
    import numpy as np

    from pulsecmp.beats import PeakTrain, extract_ibi
    from pulsecmp.config import PipelineConfig, load_config
    from pulsecmp.formats import (
        DEFAULT_CHANNEL,
        REFERENCE_COLUMN,
        canonical_json,
        read_radar_cube,
        read_series_csv,
        write_ground_truth,
        write_radar_cube,
        write_series_csv,
        write_table,
        write_text_atomic,
    )
    from pulsecmp.report import (
        MODALITIES,
        AgreementReport,
        RecordingBundle,
        compare_recordings,
        condition_modality,
        model_from_config,
        modality_errors,
        simulate_stream,
    )
finally:
    # freeze + unfreeze moves every tracked object into the oldest
    # generation without a scan, so the first collection after enabling
    # does not walk all that the imports made. Not when the importer
    # froze objects of its own: unfreeze would thaw them.
    if not gc.get_freeze_count():
        gc.freeze()
        gc.unfreeze()
    if _gc_was_enabled:
        gc.enable()
    del _gc_was_enabled

TRUTH_FILE = "truth.json"


def _load_cli_config(args) -> PipelineConfig:
    config = load_config(getattr(args, "config", None))
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ValueError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        config.set_key(key.strip(), value)
    return config


def write_bundle_dir(bundle: RecordingBundle, config: PipelineConfig, directory: str) -> None:
    """Write each present modality as :func:`load_modality` reads it, and any truth sidecar."""
    os.makedirs(directory, exist_ok=True)
    for name in bundle.present_modalities():
        recording, path = getattr(bundle, name), os.path.join(directory, MODALITIES[name])
        if name == "radar":
            write_radar_cube(recording, path)
        else:
            write_series_csv(
                path,
                {csv_column(name): recording.samples},
                recording.sample_rate_hz,
                recording.start_time_s,
            )
    if bundle.truth is not None:
        write_ground_truth(
            bundle.truth,
            model_from_config(config),
            config.synth_duration_s,
            config.synth_fs_hz,
            config.synth_displacement_m,
            os.path.join(directory, TRUTH_FILE),
        )


def csv_column(name: str) -> str:
    """The column a CSV modality's file is written as, and the one its
    read picks when none is named and the file has it: ``green_0`` for
    the PPG, ``pressure_mmHg`` for the reference."""
    return DEFAULT_CHANNEL if name == "ppg" else REFERENCE_COLUMN


def load_modality(name: str, path: str, config: PipelineConfig, column: str = ""):
    """Read one modality's recording: the radar cube, or one CSV column.
    That is ``column`` when named, else the PPG's ``ppg.channel``; with
    neither, :func:`csv_column` when the file has it, else the file's
    first column by name."""
    if name == "radar":
        return read_radar_cube(path)
    column = column or (config.ppg_channel if name == "ppg" else "")
    return read_series_csv(path, column, csv_column(name))


def bundle_paths(directory: str) -> dict[str, str]:
    """The file of each modality present in a bundle directory, by modality.

    The truth sidecar is not listed: comparison never uses it.
    """
    if not os.path.isdir(directory):
        raise ValueError(f"no bundle directory at {directory}")
    paths = {name: os.path.join(directory, filename) for name, filename in MODALITIES.items()}
    return {name: path for name, path in paths.items() if os.path.exists(path)}


def _bundle_subject(directory: str) -> str:
    """A bundle's default subject identifier: its directory name."""
    return os.path.basename(os.path.normpath(directory))


def compare_bundle(
    paths: dict[str, str], subject_id: str, config: PipelineConfig
) -> AgreementReport:
    """Compare the recordings at ``paths`` (modality -> file).

    Each file is read just before its modality's chain and released
    before the next is read, so the peak holds one raw recording.
    """
    def load(name: str):
        return load_modality(name, paths[name], config)

    return compare_recordings(list(paths), load, subject_id, config)


def _write_ibi(path: str, train: PeakTrain) -> int:
    """Write ``process``'s ``ibi.csv`` or one of ``compare``'s
    ``ibi_<modality>.csv`` from a beat train; returns the interval count."""
    anchors, intervals = extract_ibi(train)
    write_table(path, {"anchor_time_s": anchors, "interval_ms": intervals})
    return intervals.size


def _write_report_files(report: AgreementReport, directory: str) -> None:
    # serialised first: a non-finite value fails before -o is created
    text = canonical_json(report.to_dict()) + "\n"
    os.makedirs(directory, exist_ok=True)
    write_text_atomic(os.path.join(directory, "report.json"), text)
    for name, modality in sorted(report.modalities.items()):
        _write_ibi(os.path.join(directory, f"ibi_{name}.csv"), modality.train)
        if modality.beats is not None:
            # the averaged beat: the beat table's column mean and population SD
            shapes = modality.beats.shapes
            write_table(
                os.path.join(directory, f"avg_beat_{name}.csv"),
                {"position": np.linspace(0.0, 1.0, shapes.shape[1]),
                 "mean": shapes.mean(axis=0), "sd": shapes.std(axis=0)},
            )
    for name, pair in sorted(report.pairs.items()):
        if pair.bland_altman is not None:
            write_table(
                os.path.join(directory, f"ba_points_{name}.csv"),
                {"mean_ms": pair.bland_altman.means, "diff_ms": pair.bland_altman.diffs},
            )


def cmd_simulate(args) -> int:
    config = _load_cli_config(args)
    # through the key check, as --set would be
    flags = {"seed": args.seed, "duration_s": args.duration, "snr_db": args.snr_db}
    for key, value in flags.items():
        if value is not None:
            config.set_key(f"synth.{key}", str(value))
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
    meta: dict = {"modality": args.modality, "input": os.path.basename(args.input)}
    with modality_errors(args.modality):
        raw = load_modality(args.modality, args.input, config, args.column or args.channel or "")
        waveform, train, selection = condition_modality(args.modality, raw, config)
    # only once the input has loaded and been conditioned: a bad call writes nothing
    os.makedirs(args.out, exist_ok=True)
    if selection is not None:
        meta["selection"] = dataclasses.asdict(selection)
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
    n_ibi = _write_ibi(os.path.join(args.out, "ibi.csv"), train)
    meta["n_systolic"] = int(train.systolic_indices.size)
    meta["n_diastolic"] = int(train.diastolic_indices.size)
    meta["n_ibi"] = n_ibi
    write_text_atomic(os.path.join(args.out, "meta.json"), canonical_json(meta) + "\n")
    print(f"processed {args.modality}: {meta['n_systolic']} systolic peaks, {n_ibi} intervals")
    return 0


def _compare_subject(bundle_dir: str, out_dir: str, config: PipelineConfig) -> str | None:
    """Compare one subject of a batch; the input-error message if it fails."""
    try:
        report = compare_bundle(bundle_paths(bundle_dir), _bundle_subject(bundle_dir), config)
        _write_report_files(report, out_dir)
    except (ValueError, OSError) as exc:
        return str(exc)
    return None


def cmd_compare(args) -> int:
    sources = ("bundle", "bundle_root", *MODALITIES)
    flags = [f"--{name.replace('_', '-')}" for name in sources if getattr(args, name)]
    if not flags:
        raise ValueError(
            "compare needs an input source: --bundle, --bundle-root, or "
            "--radar/--ppg/--reference files"
        )
    if (args.bundle or args.bundle_root) and len(flags) > 1:
        raise ValueError(
            "compare takes one input source: --bundle, --bundle-root, or "
            f"--radar/--ppg/--reference files; got {' '.join(flags)}"
        )
    if args.jobs is not None and not args.bundle_root:
        raise ValueError("--jobs applies to --bundle-root only")
    if args.jobs is not None and args.jobs < 1:
        raise ValueError(f"--jobs must be at least 1, got {args.jobs}")
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
        jobs = min(args.jobs or 1, len(subjects))
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
        paths = bundle_paths(args.bundle)
        subject_id = args.subject or _bundle_subject(args.bundle)
    else:
        paths = {name: getattr(args, name) for name in MODALITIES if getattr(args, name)}
        subject_id = args.subject or "subject"
    report = compare_bundle(paths, subject_id, config)
    _write_report_files(report, args.out)
    statuses = ", ".join(
        f"{name}={summary.status}" for name, summary in sorted(report.modalities.items())
    )
    print(f"report written to {os.path.join(args.out, 'report.json')} ({statuses})")
    return 0


def cmd_selftest(args) -> int:
    from pulsecmp.selftest import run_selftest

    results = run_selftest()
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
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # a FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception:
        traceback.print_exc()
        return 2


def run() -> int:
    """Entry point of a ``pulsecmp`` process: :func:`main` on ``sys.argv``.

    What the verb leaves is frozen out of the cyclic GC before the
    process exits, so interpreter shutdown does not walk every object
    once more; atexit hooks, flushes and reference-count frees still
    run. Only for a process that exits right after: an in-process
    caller of :func:`main` keeps a collector that sees everything.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
