"""pulsecmp benchmark: cold-process ``compare`` on fixed synthetic bundles.

    python3 perfbench/run.py --workload radar-60s --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Run from the repository root; the package is imported from ``src`` via
PYTHONPATH, the way the tier-1 tests import it. See README.md in this
directory for the workloads, the metrics and how to read them.

A run generates the workload's bundles from ``--seed``, runs one
untimed warm-up op, then keeps a single client in a closed loop for
``--seconds``: spawn ``python -m pulsecmp.cli compare``, wait for it,
check its report against the synthetic truth, spawn the next. Every
timed process is paced by a fixed calibration process before and after
it, and its time is reported in reference seconds (see ``reference_s``).
With ``--trace 1`` the ops run under the span tracer instead
(``child.py``) and the per-layer metrics are printed. The last stdout
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata

from layers import PER_LAYER, SETUP_SIDE, span_metric
from spans import summarize

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
RUN_DEADLINE_S = 170.0
SETUP_REPS = 3  # set-ups per untraced run; setup_s is their median
# Wall time of ``child.py calibrate`` on the reference host: a timed
# process's reference seconds are its wall time on a host of that speed.
CAL_REF_S = 0.6

END_TO_END = {
    "setup_s": ("s", "lower"),
    "setup_peak_rss_mb": ("MB", "lower"),
    "compare_s_p50": ("s", "lower"),
    "recording_s_per_s": ("1/s", "higher"),
    "peak_rss_mb": ("MB", "lower"),
    "ok_rate": ("ratio", "higher"),
}

# Allowed distance between an op's beat count and the truth's systolic
# count: radar and reference track every beat, PPG's slow decay kernel
# can merge or drop a few.
BEAT_TOL = {"reference": 2, "radar": 2, "ppg": 5}


@dataclass
class Bundle:
    name: str
    kind: str  # "radar" (three modalities) or "vitals" (PPG + reference)
    seed: int
    duration_s: float
    snr_db: float = 20.0
    settings: list[str] = field(default_factory=list)

    @property
    def modalities(self) -> set[str]:
        return {"ppg", "radar", "reference"} if self.kind == "radar" else {"ppg", "reference"}


@dataclass
class Workload:
    name: str
    why: str
    bundles: list[Bundle]
    probe: list[Bundle] | None = None  # half-length copy for the scaling probe
    pool: list[Bundle] | None = None  # batch for the --jobs 1 / --jobs 2 probe

    @property
    def recording_s(self) -> float:
        return sum(b.duration_s for b in self.bundles)


def make_workload(name: str, seed: int) -> Workload:
    seed %= 2**32  # the generator takes non-negative seeds
    if name == "radar-60s":
        return Workload(
            name,
            "One 60 s three-modality bundle (147 MB cube): import, radar ingest and the "
            "radar chain dominate; beat-level changes should not move it",
            [Bundle("radar60", "radar", seed, 60.0)],
            pool=[Bundle(f"s060-{snr}db", "radar", seed * 100 + i, 60.0, snr)
                  for i, snr in enumerate((20, 40))],
        )
    if name == "vitals-1200s":
        return Workload(
            name,
            "A 1200 s PPG + reference bundle without radar: CSV parsing, truth "
            "regeneration, beats and metrics dominate; radar changes must not move it",
            [Bundle("vitals1200", "vitals", seed, 1200.0)],
            probe=[Bundle("vitals600", "vitals", seed, 600.0)],
        )
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("radar-60s", "vitals-1200s")


# ---------------------------------------------------------------- processes


class Deadline(Exception):
    pass


@dataclass
class Proc:
    wall_s: float
    exit_code: int
    maxrss_mb: float
    spawned_at: float  # time.time() just before the spawn
    cpu_s: float  # user + system time of the process and its reaped children
    ok: bool = True  # whether a compare op passed every check; set by Run.op
    ref_s: float = 0.0  # wall_s at the reference host speed; set by Run.paced


class Runner:
    """Spawns children one at a time, each timed from spawn to exit."""

    def __init__(self, deadline: float, log_path: str):
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + (os.pathsep + os.environ["PYTHONPATH"]
                                        if os.environ.get("PYTHONPATH") else "")
        self.log_path = log_path

    def run(self, argv: list[str]) -> Proc:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Deadline("run deadline reached")
        with open(self.log_path, "ab") as log:
            log.write(("$ " + " ".join(argv) + "\n").encode())
            log.flush()
            spawned_at = time.time()
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=log, stderr=log, start_new_session=True
            )
            timer = threading.Timer(remaining, _kill_group, (proc.pid,))
            timer.start()
            try:
                # wait4 reports the child's own rusage; its ru_maxrss is
                # the largest RSS in the child's reaped process tree.
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Proc(wall, proc.returncode, usage.ru_maxrss / 1024.0, spawned_at,
                    usage.ru_utime + usage.ru_stime)


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


# ---------------------------------------------------------------- checks


def _selection_hit(doc: dict, truth: dict) -> bool:
    sel = doc["modalities"]["radar"].get("selection", {})
    return (sel.get("antenna_index"), sel.get("range_bin")) == (
        truth["target_antenna"], truth["target_range_bin"])


class Checker:
    """Checks each op's reports against truth.json and the first op's bytes."""

    def __init__(self):
        self.first_bytes: dict[str, bytes] = {}
        self.truth: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reports: dict[str, dict] = {}

    def check_op(self, proc: Proc, subjects: list[tuple[Bundle, str, str]]) -> bool:
        """subjects: (bundle, bundle_dir, report_dir) per subject of the op."""
        self.attempted += 1
        problems = [] if proc.exit_code == 0 else [f"exit code {proc.exit_code}"]
        for bundle, bundle_dir, report_dir in subjects:
            problems += [f"{bundle.name}: {p}" for p in
                         self._check_subject(bundle, bundle_dir, report_dir)]
        if problems:
            self.failed += 1
            self.problems += problems[:5]
        return not problems

    def _check_subject(self, bundle: Bundle, bundle_dir: str, report_dir: str) -> list[str]:
        key = bundle_dir
        try:
            with open(os.path.join(report_dir, "report.json"), "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
        except (OSError, ValueError) as exc:
            return [f"report.json unreadable: {exc}"]
        if key not in self.truth:
            with open(os.path.join(bundle_dir, "truth.json"), encoding="utf-8") as fh:
                self.truth[key] = json.load(fh)
        truth = self.truth[key]
        n_truth = len(truth["systolic_times_s"])
        problems = []
        modalities = doc.get("modalities", {})
        if set(modalities) != bundle.modalities:
            problems.append(f"modalities {sorted(modalities)}")
        for name, entry in modalities.items():
            if entry.get("status") != "ok":
                problems.append(f"{name} status {entry.get('status')!r}")
            if abs(entry.get("n_beats", -999) - n_truth) > BEAT_TOL.get(name, 2):
                problems.append(f"{name} n_beats {entry.get('n_beats')} vs truth {n_truth}")
        for name, entry in doc.get("pairs", {}).items():
            if entry.get("status") != "ok":
                problems.append(f"{name} status {entry.get('status')!r}")
        if "radar" in modalities and not _selection_hit(doc, truth):
            target = (truth["target_antenna"], truth["target_range_bin"])
            problems.append(f"radar selection {modalities['radar'].get('selection')} "
                            f"misses the truth target {target}")
        first = self.first_bytes.setdefault(key, raw)
        if raw != first:
            problems.append("report.json bytes differ from the first op")
        self.reports[key] = doc
        return problems

    def report_ratios(self) -> dict[str, float]:
        """Selection hits, IBI gate and event pairing, from the reports."""
        kept = candidates = pairs = events = hits = radar_subjects = 0
        for key, doc in self.reports.items():
            mods = doc["modalities"]
            for entry in mods.values():
                kept += entry.get("n_ibi", 0)
                candidates += max(entry.get("n_diastolic", 0) - 1, 0)
            base = doc.get("baseline")
            for name, entry in doc.get("pairs", {}).items():
                test = name.split("_vs_")[0]
                if base in mods and test in mods:
                    pairs += entry.get("n_event_pairs", 0)
                    events += min(mods[m].get("n_diastolic", 0) for m in (base, test))
            if "radar" in mods:
                radar_subjects += 1
                hits += _selection_hit(doc, self.truth[key])
        return {
            "radar.selection_hit_ratio": hits / radar_subjects if radar_subjects else 0.0,
            "beats.ibi_gate_kept_ratio": kept / candidates if candidates else 0.0,
            "beats.event_pair_ratio": pairs / events if events else 0.0,
        }


# ---------------------------------------------------------------- environment


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _cpu_max() -> str | None:
    value = _read("/sys/fs/cgroup/cpu.max")
    if value is None:  # cgroup v1
        quota = _read("/sys/fs/cgroup/cpu/cpu.cfs_quota_us")
        period = _read("/sys/fs/cgroup/cpu/cpu.cfs_period_us")
        if quota is not None and period is not None:
            value = f"{'max' if quota == '-1' else quota} {period} (v1 cfs quota/period)"
    return value


def _caches() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, index, "level"))
        kind = _read(os.path.join(base, index, "type"))
        size = _read(os.path.join(base, index, "size"))
        if level and size and kind != "Instruction":
            out[f"L{level}"] = size
    return out


def _src_digest() -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, SRC).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def _git_sha() -> str | None:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def environment(bundle_root: str) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    radc = [
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(bundle_root)
        for name in names
        if name.endswith(".radc")
    ]
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": _cpu_max(),
        "caches": _caches(),
        "largest_radc_bytes": max(radc, default=0),
        "largest_cube_bytes_f64": 2 * max(radc, default=0),
    }


# ---------------------------------------------------------------- one run


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def reference_s(wall_s: float, cal_before_s: float, cal_after_s: float) -> float:
    """A wall time rescaled to the host speed at which the calibration
    takes CAL_REF_S, the speed taken as the geometric mean of the two
    calibrations that bracket the timed process."""
    return wall_s * CAL_REF_S / math.sqrt(cal_before_s * cal_after_s)


def tail_percentile(values: list[float]) -> tuple[int, float] | None:
    """Highest of p99/p95/p90/p75 with at least ten samples above it."""
    for p in (99, 95, 90, 75):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


class Run:
    def __init__(self, workload: Workload, seed: int, seconds: float, trace: bool):
        self.wl = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.dir = os.path.join(WORK, workload.name)
        self.results = os.path.join(WORK, "results")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        os.makedirs(self.results, exist_ok=True)
        self.bundle_root = os.path.join(self.dir, "bundles")
        self.runner = Runner(time.monotonic() + RUN_DEADLINE_S, os.path.join(self.dir, "log.txt"))
        self.checker = Checker()
        self.python = sys.executable or "python3"
        self.cals: list[float] = []  # calibration wall times, in order

    # -- host speed

    def calibrate(self) -> float:
        proc = self.runner.run([self.python, os.path.join(HERE, "child.py"), "calibrate"])
        if proc.exit_code != 0:
            raise RuntimeError(f"calibration failed with exit code {proc.exit_code}")
        self.cals.append(proc.wall_s)
        return proc.wall_s

    def paced(self, fn) -> Proc:
        """Run fn() between two calibrations and set its reference seconds.
        The calibration after one timed process is the one before the next."""
        before = self.cals[-1] if self.cals else self.calibrate()
        proc = fn()
        proc.ref_s = reference_s(proc.wall_s, before, self.calibrate())
        return proc

    # -- set-up

    def setup(self, bundles: list[Bundle], root: str, trace_path: str | None = None) -> Proc:
        spec = [
            {"dir": os.path.join(root, b.name), "kind": b.kind, "seed": b.seed,
             "duration_s": b.duration_s, "snr_db": b.snr_db, "set": b.settings}
            for b in bundles
        ]
        argv = [self.python, os.path.join(HERE, "child.py"), "setup", json.dumps(spec)]
        if trace_path:
            argv += ["--trace", trace_path]
        proc = self.runner.run(argv)
        if proc.exit_code != 0:
            raise RuntimeError(f"set-up failed with exit code {proc.exit_code}; "
                               f"see {self.runner.log_path}")
        return proc

    def setup_repeated(self) -> list[Proc]:
        """Set up SETUP_REPS times, paced; the last one's bundles are kept."""
        procs = []
        for rep in range(SETUP_REPS):
            keep = rep == SETUP_REPS - 1
            root = self.bundle_root if keep else os.path.join(self.dir, "setup-rep")
            procs.append(self.paced(lambda: self.setup(self.wl.bundles, root)))
            if not keep:
                shutil.rmtree(root)
        return procs

    # -- ops

    def op_argv(self, bundles: list[Bundle], root: str, out: str, jobs: int | None) -> list[str]:
        if jobs is None:
            return ["compare", "--bundle", os.path.join(root, bundles[0].name), "-o", out]
        return ["compare", "--bundle-root", root, "--jobs", str(jobs), "-o", out]

    def op(self, bundles, root, jobs=None, trace_path: str | None = None, op_id: int = 0) -> Proc:
        out = os.path.join(self.dir, "out")
        shutil.rmtree(out, ignore_errors=True)
        argv = self.op_argv(bundles, root, out, jobs)
        if trace_path:
            cmd = [self.python, os.path.join(HERE, "child.py"), "op", "--trace", trace_path,
                   "--op", str(op_id), "--"] + argv
        else:
            cmd = [self.python, "-m", "pulsecmp.cli"] + argv
        proc = self.runner.run(cmd)
        subjects = [
            (b, os.path.join(root, b.name), out if jobs is None else os.path.join(out, b.name))
            for b in bundles
        ]
        proc.ok = self.checker.check_op(proc, subjects)
        return proc

    def loop(self, fn) -> tuple[list, float]:
        """Closed loop, one client: call fn(i) while the next call is
        expected to end within --seconds (always at least once)."""
        results, walls = [], []
        t0 = time.perf_counter()
        while True:
            start = time.perf_counter()
            results.append(fn(len(results)))
            walls.append(time.perf_counter() - start)
            if time.perf_counter() - t0 + statistics.median(walls) > self.seconds:
                return results, time.perf_counter() - t0

    # -- the two kinds of run

    def untraced(self) -> tuple[dict, dict]:
        wl = self.wl
        setups = self.setup_repeated()
        self.op(wl.bundles, self.bundle_root)  # warm-up: .pyc and page cache
        self.calibrate()  # the first op's calibration before it, not before the warm-up
        ops, loop_s = self.loop(lambda i: self.paced(lambda: self.op(wl.bundles, self.bundle_root)))
        ref = [p.ref_s for p in ops]
        ok_recording = sum(wl.recording_s for p in ops if p.ok)
        metrics = {
            "setup_s": _median(p.ref_s for p in setups),
            "setup_peak_rss_mb": _median(p.maxrss_mb for p in setups),
            "compare_s_p50": _median(ref),
            "recording_s_per_s": ok_recording / sum(ref),
            "peak_rss_mb": _median(p.maxrss_mb for p in ops),
            "ok_rate": 1.0 - self.checker.failed / self.checker.attempted,
        }
        extra = {
            "error_rate": self.checker.failed / self.checker.attempted,
            "compare_samples": len(ref),
            "compare_s_tail": tail_percentile(ref),
            "compare_ref_s": ref,
            "compare_wall_s": [p.wall_s for p in ops],
            "compare_wall_s_p50": _median(p.wall_s for p in ops),
            "compare_cpu_s": [p.cpu_s for p in ops],
            "setup_ref_s": [p.ref_s for p in setups],
            "setup_wall_s": [p.wall_s for p in setups],
            "setup_cpu_s": [p.cpu_s for p in setups],
            "calibration_s": self.cals,
            "loop_s": loop_s,
            "peak_rss_mb_max": max(p.maxrss_mb for p in ops),
        }
        return metrics, extra

    def traced(self) -> tuple[dict, dict]:
        wl = self.wl
        tdir = os.path.join(self.dir, "trace")
        os.makedirs(tdir)
        docs: list[dict] = []

        def load(path: str, proc: Proc, **fields) -> dict:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            doc.update(fields, wall_s=proc.wall_s, spawned_at=proc.spawned_at)
            docs.append(doc)
            return doc

        setup_path = os.path.join(tdir, "setup.json")
        load(setup_path, self.setup(wl.bundles, self.bundle_root, setup_path), role="setup")
        self.op(wl.bundles, self.bundle_root)  # warm-up

        def traced_op(i: int, bundles=wl.bundles, root=self.bundle_root, role="op") -> dict:
            path = os.path.join(tdir, f"{role}-{i}.json")
            proc = self.op(bundles, root, trace_path=path, op_id=len(docs))
            return load(path, proc, role=role)

        # Each traced op follows an untraced one with the same arguments;
        # the pair's ratio is the tracing overhead, measured close in time.
        pairs, _ = self.loop(lambda i: (self.op(wl.bundles, self.bundle_root), traced_op(i)))
        plain_s = [p.wall_s for p, _ in pairs]
        ops = [d for d in docs if d["role"] == "op"]
        metrics = layer_metrics(docs[0], ops)
        metrics.update(self.checker.report_ratios())
        metrics["trace.overhead_pct"] = _median(
            (d["wall_s"] / p.wall_s - 1.0) * 100.0 for p, d in pairs)
        extra = {}
        if wl.pool:
            # One batch through --bundle-root, alternately with one worker
            # and with a pool of two (nproc = 2), untraced.
            pool_root = os.path.join(self.dir, "pool")
            self.setup(wl.pool, pool_root)
            self.op(wl.pool, pool_root, jobs=2)  # warm-up
            batches = [(self.op(wl.pool, pool_root, jobs=1), self.op(wl.pool, pool_root, jobs=2))
                       for _ in range(2)]
            metrics["cli.jobs2_speedup"] = _median(j1.wall_s / j2.wall_s for j1, j2 in batches)
            extra["pool_batch_s"] = [(j1.wall_s, j2.wall_s) for j1, j2 in batches]
        if wl.probe:
            probe_root = os.path.join(self.dir, "probe")
            probe_setup = os.path.join(tdir, "probe-setup.json")
            load(probe_setup, self.setup(wl.probe, probe_root, probe_setup), role="probe-setup")
            probes = [traced_op(0, wl.probe, probe_root, "probe")]
            for fn in ("synth.generate_waveform", "formats.read_series_csv"):
                full = _median(summarize(d["spans"]).get(fn, {}).get("ms", 0.0) for d in ops)
                half = _median(summarize(d["spans"]).get(fn, {}).get("ms", 0.0) for d in probes)
                metrics[f"{fn}.scaling_exp"] = math.log2(full / half) if full and half else 0.0
        absent = sorted({name for d in docs for name in d.get("absent", [])})
        counter_errors = {k: v for d in docs for k, v in d.get("counter_errors", {}).items()}
        with open(os.path.join(self.results, f"{wl.name}.trace.json"), "w", encoding="utf-8") as fh:
            json.dump({"workload": wl.name, "seed": self.seed, "processes": docs}, fh)
        extra.update({
            "absent": absent,
            "counter_errors": counter_errors,
            "breakdown": [op_breakdown(d) for d in ops],
            "untraced_op_s": plain_s,
            "trace_file": os.path.relpath(
                os.path.join(self.results, f"{wl.name}.trace.json"), ROOT),
        })
        return {name: metrics.get(name, 0.0) for name in PER_LAYER}, extra

    def execute(self) -> dict:
        metrics, extra = self.traced() if self.trace else self.untraced()
        shas = {
            os.path.basename(key): hashlib.sha256(raw).hexdigest()
            for key, raw in self.checker.first_bytes.items()
        }
        result = {
            "workload": self.wl.name,
            "why": self.wl.why,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "environment": environment(self.bundle_root),
            "report_sha256": shas,
            "problems": self.checker.problems,
            "extra": extra,
            "correct": self.checker.failed == 0,
            "attempted": self.checker.attempted,
            "failed": self.checker.failed,
            "metrics": metrics,
        }
        name = f"{self.wl.name}-seed{self.seed}-trace{int(self.trace)}.json"
        with open(os.path.join(self.results, name), "w", encoding="utf-8") as fh:
            json.dump(result, fh, indent=1)
        # The bundles are regenerated by every run; free the disk.
        for sub in ("bundles", "probe", "pool", "out"):
            shutil.rmtree(os.path.join(self.dir, sub), ignore_errors=True)
        return result


def layer_metrics(setup_doc: dict, ops: list[dict]) -> dict[str, float]:
    """Median over traced ops of each span metric, plus derived rates."""
    setup = summarize(setup_doc["spans"])
    per_op = [summarize(d["spans"]) for d in ops]

    def stat(summary: dict, function: str, name: str) -> float:
        entry = summary.get(function)
        if entry is None:
            return 0.0
        return entry["maxrss_kb"] / 1024.0 if name == "maxrss_mb" else float(entry[name])

    def count(summary: dict, function: str, key: str) -> float:
        return float(summary.get(function, {}).get("counts", {}).get(key, 0))

    out: dict[str, float] = {}
    for name in PER_LAYER:
        parsed = span_metric(name)
        if parsed is None:
            continue
        if name in SETUP_SIDE:
            out[name] = stat(setup, *parsed)
        else:
            out[name] = _median(stat(s, *parsed) for s in per_op)
    cube_ms = _median(stat(s, "formats.read_radar_cube", "ms") for s in per_op)
    cube_mb = _median(count(s, "formats.read_radar_cube", "file_bytes") for s in per_op) / 1e6
    out["formats.read_radar_cube.mb_per_s"] = cube_mb / (cube_ms / 1e3) if cube_ms else 0.0
    out["radar.cube_bytes_f64"] = _median(
        count(s, "formats.read_radar_cube", "f64_bytes") for s in per_op)
    out["radar.bins_searched"] = _median(count(s, "radar.select_best_bin", "cells") for s in per_op)
    csv = ("formats.read_ppg_csv", "formats.read_series_csv")
    rows = _median(sum(count(s, f, "rows") for f in csv) for s in per_op)
    csv_ms = _median(sum(stat(s, f, "ms") for f in csv) for s in per_op)
    out["formats.csv_rows_per_s"] = rows / (csv_ms / 1e3) if csv_ms else 0.0
    out["cli.import_ms"] = _median(d["import_ms"] for d in ops)
    out["cli.startup_ms"] = _median((d["started"] - d["spawned_at"]) * 1e3 for d in ops)
    return out


def op_breakdown(doc: dict) -> dict[str, float]:
    """Where one traced op's wall time went; the parts add up to wall_ms.

    startup: spawn until the child's first line; import: ``import
    pulsecmp.cli``; install: wrapping; main: the traced ``cli.main``
    span, which equals the sum of all self times; exit: writing the
    spans, interpreter teardown and reaping; rest: argument parsing
    and module imports of the child itself.
    """
    summary = summarize(doc["spans"])
    wall = doc["wall_s"] * 1e3
    parts = {
        "startup_ms": (doc["started"] - doc["spawned_at"]) * 1e3,
        "import_ms": doc["import_ms"],
        "install_ms": doc["install_ms"],
        "main_ms": summary.get("cli.main", {}).get("ms", 0.0),
        "exit_ms": (doc["spawned_at"] + doc["wall_s"] - doc["finished"]) * 1e3,
    }
    return {
        "wall_ms": wall,
        **parts,
        "rest_ms": wall - sum(parts.values()),
        "self_ms_sum": sum(e["self_ms"] for e in summary.values()),
    }


# ---------------------------------------------------------------- output


def print_result(result: dict) -> None:
    units = END_TO_END if not result["trace"] else {k: v for k, v in PER_LAYER.items()}
    print(f"# {result['workload']} seed={result['seed']} trace={result['trace']}: {result['why']}")
    env = result["environment"]
    print("# env: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for bundle, sha in sorted(result["report_sha256"].items()):
        print(f"# report.json sha256 {bundle}: {sha}")
    for name, value in result["metrics"].items():
        print(f"{result['workload']:>14} {name:<40} {value:>16.6g} {units[name][0]}")
    extra = result["extra"]
    if not result["trace"]:
        tail = extra["compare_s_tail"]
        print(f"{result['workload']:>14} {'error_rate':<40} {extra['error_rate']:>16.6g} ratio")
        print(f"# compare_s_p50 over {extra['compare_samples']} ops"
              + (f"; p{tail[0]} {tail[1]:.4f} s" if tail else "; too few ops for a tail percentile"))
        print(f"# times are reference seconds (calibration = {CAL_REF_S} s); measured here: "
              f"compare wall p50 {extra['compare_wall_s_p50']:.4f} s, calibration p50 "
              f"{_median(extra['calibration_s']):.4f} s")
    else:
        for part in extra["breakdown"]:
            print("# traced op: " + ", ".join(f"{k}={v:.1f}" for k, v in part.items()))
        if extra["absent"]:
            print("# absent (renamed or removed, reads 0): " + ", ".join(extra["absent"]))
        for name, error in extra["counter_errors"].items():
            print(f"# counter failed for {name}: {error}")
        print(f"# spans written to {extra['trace_file']}")
    for problem in result["problems"]:
        print(f"# FAILED CHECK: {problem}")


def final_line(results: list[dict]) -> dict:
    """The result object; metric names get a workload prefix for several."""
    prefix = len(results) > 1
    return {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            (f"{r['workload']}.{k}" if prefix else k): {
                "value": v, "unit": (PER_LAYER if r["trace"] else END_TO_END)[k][0]}
            for r in results
            for k, v in r["metrics"].items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="pulsecmp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "pulsecmp", "cli.py")):
        print(f"error: no pulsecmp sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            result = Run(make_workload(name, args.seed), args.seed, args.seconds,
                         bool(args.trace)).execute()
        except (RuntimeError, Deadline) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print_result(result)
        results.append(result)
    print(json.dumps(final_line(results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
