"""Processes the benchmark starts: bundle set-up and one traced op.

    python3 perfbench/child.py setup SPEC [--trace OUT.json]
    python3 perfbench/child.py op --trace OUT.json [--op N] -- ARGV...
    python3 perfbench/child.py calibrate

``setup`` generates every bundle listed in SPEC, a JSON list of
``{"dir", "kind", "seed", "duration_s", "snr_db", "set"}``, in this one
process. Radar bundles go through ``pulsecmp.cli.main(["simulate",
...])``, i.e. ``report.simulate_bundle`` plus ``cli.write_bundle_dir``.
PPG + reference bundles have no CLI verb (``simulate`` always writes a
cube), so they are built from ``synth.generate_waveform``,
``synth_ppg``, ``synth_reference`` and ``cli.write_bundle_dir`` the
way ``simulate_bundle`` builds them.

``op`` times ``import pulsecmp.cli``, wraps the package's public
functions (see ``spans.py``) and runs ``pulsecmp.cli.main(ARGV)``
in-process. With ``--trace`` either command writes its spans, its
timestamps and the functions it could not find to OUT.json. Both need
the package on PYTHONPATH; ``run.py`` sets it.

``calibrate`` does a fixed amount of work that touches nothing of
pulsecmp: interpreter start, ``import numpy``, a seeded random draw, a
batch of FFTs and a pure-Python loop. ``run.py`` times it next to every
timed process to follow the host's speed.
"""

from __future__ import annotations

import time

STARTED = time.time()  # the interpreter's start-up ends here

import argparse  # noqa: E402
import contextlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

from layers import COUNTERS, EXPECTED, SKIP  # noqa: E402
from spans import Tracer  # noqa: E402


def _dump(path: str, tracer: Tracer, **fields) -> None:
    doc = dict(
        fields,
        started=STARTED,
        absent=tracer.absent,
        counter_errors=tracer.counter_errors,
        spans=tracer.spans,
        finished=time.time(),
    )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _vitals_bundle(bundle: dict) -> None:
    """PPG + reference + truth bundle, no radar cube."""
    pc = sys.modules["pulsecmp.config"]
    cli = sys.modules["pulsecmp.cli"]
    report = sys.modules["pulsecmp.report"]
    synth = sys.modules["pulsecmp.synth"]
    config = pc.PipelineConfig()
    config.set_key("synth.seed", str(bundle["seed"]))
    config.set_key("synth.duration_s", str(bundle["duration_s"]))
    for item in bundle.get("set", []):
        config.set_key(*item.split("=", 1))
    waveform, truth = synth.generate_waveform(
        report.model_from_config(config),
        config.synth_duration_s,
        config.synth_fs_hz,
        config.synth_seed,
    )
    truth.displacement = waveform.with_samples(waveform.samples * config.synth_displacement_m)
    truth.displacement_peak_m = float(abs(truth.displacement.samples).max())
    truth.target_antenna = config.synth_target_antenna
    truth.target_range_bin = config.synth_target_bin
    ppg = synth.synth_ppg(
        waveform,
        decay_tau_s=config.synth_ppg_tau_s,
        noise_sd=config.synth_ppg_noise_sd,
        seed=config.synth_seed,
    )
    reference = synth.synth_reference(
        waveform, config.synth_sbp_mmhg, config.synth_dbp_mmhg, truth.beat_times_s
    )
    cli.write_bundle_dir(
        report.RecordingBundle(ppg=ppg, reference=reference, truth=truth),
        config,
        bundle["dir"],
    )


def _radar_bundle(bundle: dict) -> None:
    argv = [
        "simulate",
        "-o", bundle["dir"],
        "--seed", str(bundle["seed"]),
        "--duration", str(bundle["duration_s"]),
        "--snr-db", str(bundle["snr_db"]),
    ]
    for item in bundle.get("set", []):
        argv += ["--set", item]
    with contextlib.redirect_stdout(sys.stderr):
        rc = sys.modules["pulsecmp.cli"].main(argv)
    if rc != 0:
        raise SystemExit(f"simulate failed with exit code {rc} for {bundle['dir']}")


def setup(spec: list[dict], trace_path: str | None) -> int:
    for module in ("cli", "config", "report", "synth"):
        importlib.import_module(f"pulsecmp.{module}")
    tracer = Tracer(COUNTERS)
    if trace_path:
        tracer.install("pulsecmp", EXPECTED, SKIP)
    for bundle in spec:
        if bundle["kind"] == "radar":
            _radar_bundle(bundle)
        else:
            _vitals_bundle(bundle)
    if trace_path:
        _dump(trace_path, tracer, kind="setup")
    return 0


def op(trace_path: str, op_id: int, argv: list[str]) -> int:
    t0 = time.perf_counter()
    import pulsecmp.cli

    import_ms = (time.perf_counter() - t0) * 1e3
    tracer = Tracer(COUNTERS, op=op_id)
    t1 = time.perf_counter()
    tracer.install("pulsecmp", EXPECTED, SKIP)
    install_ms = (time.perf_counter() - t1) * 1e3
    with contextlib.redirect_stdout(sys.stderr):
        rc = pulsecmp.cli.main(argv)
    _dump(trace_path, tracer, kind="op", op=op_id, rc=rc, import_ms=import_ms,
          install_ms=install_ms)
    return rc


def calibrate() -> int:
    import numpy as np

    samples = np.random.default_rng(0).standard_normal(8_000_000)
    spectrum = np.abs(np.fft.rfft(samples.reshape(80, -1), axis=1)).sum()
    total = sum(i * i for i in range(2_000_000))
    return 0 if np.isfinite(spectrum) and total > 0 else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("spec")
    p_setup.add_argument("--trace")
    p_op = sub.add_parser("op")
    p_op.add_argument("--trace", required=True)
    p_op.add_argument("--op", type=int, default=0)
    p_op.add_argument("argv", nargs=argparse.REMAINDER)
    sub.add_parser("calibrate")
    args = parser.parse_args()
    if args.command == "calibrate":
        return calibrate()
    if args.command == "setup":
        return setup(json.loads(args.spec), args.trace)
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    return op(args.trace, args.op, argv)


if __name__ == "__main__":
    sys.exit(main())
