"""qkdpost benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload session --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Workloads: session, keyrate, oracle, pa-large (see NOTES.md). The
run is a closed loop with one client in this process, with BLAS, OpenMP and
FFT limited to one thread.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics
are the end-to-end metrics of BENCHMARK.json, scaled to the reference
speed of ``probe.py`` where a probe kind tracks the workload (the record
keeps them as measured); with
``--trace 1`` the layer functions are wrapped and the metrics are the
per-layer ones. The full run record (environment, per-part timings,
session outcomes, BP histograms) is printed on the line before it and
written under ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Single-threaded numerics: set before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probe

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

SETUP_REPEATS = 21
LAYER_MODULES = ("qkdpost.protocol", "qkdpost.keyrate", "qkdpost.oracle")
# A run starts no operation after this many seconds, so that it ends within
# 180 s even when every session fails reconciliation. A fixed-count run
# counts each operation it skips as failed.
START_LIMIT_S = 120.0
MAX_ERRORS_KEPT = 10


def summarize(values: list[float]) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it."""
    xs = sorted(values)
    out = {"n": len(xs), "median": statistics.median(xs) if xs else None, "tail_pct": None, "tail": None}
    if len(xs) > 10:
        out["tail_pct"] = round(100.0 * (len(xs) - 10) / len(xs), 2)
        out["tail"] = xs[len(xs) - 11]
    return out


def measure_setup() -> tuple[list[float], list[float], float]:
    """The program's own import time, the set-up every CLI call pays on top
    of its dependencies; work moved into import time shows here.

    Forked copies of this process, which has loaded numpy and scipy but no
    qkdpost module, import the layers, each next to a forked import of the
    probe's standard-library reference. Returns the import times, the
    reference times, and the median ratio scaled to the reference speed.
    """
    import numpy  # noqa: F401 - the dependencies, loaded before the forks
    import scipy.signal  # noqa: F401

    loaded = [m for m in LAYER_MODULES + probe.IMPORT_REFERENCE if m in sys.modules]
    if loaded:
        raise RuntimeError(f"already imported before set-up: {loaded}")
    # Untimed: the first import of a fresh checkout writes the bytecode caches.
    probe.forked_import_seconds(LAYER_MODULES, SRC)
    probe.forked_import_seconds(probe.IMPORT_REFERENCE)
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        times.append(probe.forked_import_seconds(LAYER_MODULES, SRC))
        refs.append(probe.forked_import_seconds(probe.IMPORT_REFERENCE))
    ratio = statistics.median(t / r for t, r in zip(times, refs))
    return times, refs, ratio * probe.REFERENCE_S["import"]


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment() -> dict:
    import numpy as np
    import scipy
    import scipy.fft

    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        caches[f"L{level}" + ("d" if kind == "Data" else "i" if kind == "Instruction" else "")] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = None
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model or platform.processor() or None,
        "caches_per_cpu0": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "scipy_fft_workers": scipy.fft.get_workers(),
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
    }


class Runner:
    """Runs the operations of one workload and collects their results."""

    def __init__(self, workload, speed, tracer=None):
        self.w = workload
        self.speed = speed
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.timed: dict[int, dict[str, float]] = {}  # attempt number -> part times
        self.samples: list[float] = []  # probe sample before each attempt, and one after the last

    def attempt(self, i: int, traced: bool = False) -> dict[str, float] | None:
        """Run and check operation i; the part times, or None when it failed."""
        self.w.attempt = self.attempted
        self.attempted += 1
        self.w.traced = traced
        inputs = self.w.inputs(i)
        self.sample()
        try:
            if traced:
                outputs, parts = self.tracer.run_op(i, self.w.execute, inputs)
            else:
                outputs, parts = self.w.execute(inputs)
            self.w.check(i, inputs, outputs)
        except Exception as exc:  # noqa: BLE001 - a failing operation is counted, not fatal
            self.failed += 1
            if len(self.errors) < MAX_ERRORS_KEPT:
                self.errors.append(f"op {i}: {type(exc).__name__}: {exc}")
            return None
        return parts

    def loop(self, first: int, stop: int | None, seconds: float, started: float, traced: bool = False) -> None:
        """Timed operations first, first+1, ... up to stop, or while the
        run's seconds last when stop is None."""
        t0 = time.perf_counter()
        for i in range(first, (1 << 62) if stop is None else stop):
            now = time.perf_counter()
            if stop is None and now - t0 >= seconds:
                break
            if now - started >= START_LIMIT_S:
                self.errors.append(f"stopped before op {i}: {START_LIMIT_S:.0f} s start limit")
                if stop is not None:
                    skipped = stop - i
                    self.attempted += skipped
                    self.failed += skipped
                break
            attempt = self.attempted
            parts = self.attempt(i, traced)
            if parts is not None:
                self.timed[attempt] = parts

    def sample(self) -> None:
        """Probe the speed for the workload's kind of work, if it has one."""
        kind = self.w.probe_kind
        self.samples.append(self.speed.sample(kind) if kind else None)

    def scaled(self, a: int, parts: dict[str, float]) -> float:
        """The seconds of attempt a at the probe's reference speed, or as
        measured for a workload that no probe kind tracks."""
        seconds = sum(parts.values())
        kind = self.w.probe_kind
        return seconds * probe.scale(kind, self.samples[a], self.samples[a + 1]) if kind else seconds

    def scaled_totals(self) -> dict[int, float]:
        """Each timed operation's seconds at the probe's reference speed."""
        return {a: self.scaled(a, parts) for a, parts in self.timed.items()}


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("session", "keyrate", "oracle", "pa-large"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SRC / "qkdpost" / "__init__.py").is_file():
        print(f"no qkdpost sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    setup_times, setup_refs, setup_s = measure_setup()
    speed = probe.Probe()
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import layers
    import tracing
    import workloads

    in_process_import_s = time.perf_counter() - t0
    env = environment()
    OUT.mkdir(exist_ok=True)
    store = workloads.DigestStore(OUT / "digests.json", env["source_sha256"])
    w = workloads.WORKLOADS[args.workload](args.seed, args.seconds, store)

    tracer = tracing.Tracer() if args.trace else None
    run = Runner(w, speed, tracer)
    overhead_frac = 0.0
    try:
        if w.fixed_ops is None:
            run.attempt(0)  # warm-up: checked, not timed
        if tracer is None:
            run.loop(0, w.fixed_ops, args.seconds, started)
        else:
            a_reference = run.attempted
            reference = run.attempt(0)
            layers.install(tracer)
            try:
                a_traced = run.attempted
                traced0 = run.attempt(0, traced=True)
                # a fixed-count run keeps its length: the reference replaces
                # its last operation
                stop = None if w.fixed_ops is None else w.fixed_ops - 1
                run.loop(1, stop, args.seconds, started, traced=True)
            finally:
                tracer.uninstall()
    finally:
        w.close()
    run.sample()
    if tracer is not None and reference and traced0:
        # both scaled like op_s, so that a swing of the host between the two
        # does not read as tracing cost where a probe kind tracks it
        overhead_frac = run.scaled(a_traced, traced0) / run.scaled(a_reference, reference) - 1.0
    store.save()

    part_times = {p: [t[p] for t in run.timed.values()] for p in w.parts}
    totals = [sum(t.values()) for t in run.timed.values()]
    scaled = run.scaled_totals()
    wrecord = w.record()
    named = {name: summarize(vals) for name, vals in part_times.items()}
    named.update(wrecord.pop("metrics", {}))
    named["failed_fraction"] = run.failed / run.attempted if run.attempted else 0.0
    # The gated times are scaled to the probe's reference speed (probe.py);
    # the record keeps them as measured too. A run in which every operation
    # failed has no time; it reports 0 with correct false.
    raw = {a: sum(t.values()) for a, t in run.timed.items()}
    raw_op_s = w.op_seconds(raw) if raw else 0.0
    raw_setup_s = statistics.median(setup_times)
    if tracer is None:
        metrics = {
            "op_s": {"value": w.op_seconds(scaled) if scaled else 0.0, "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
        }
        layer_detail = None
    else:
        traced_sessions = [s for s in getattr(w, "sessions", []) if s["traced"]]
        values, layer_detail = layers.metrics(tracer, traced_sessions, overhead_frac)
        metrics = {k: {"value": v, "unit": layers.METRICS[k][0]} for k, v in values.items()}
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")

    correct = run.failed == 0 and bool(totals)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "errors": run.errors,
        "timed_ops": len(totals),
        "digests_compared": store.compared,
        "environment": env,
        "setup": {"import_s": setup_times, "reference_import_s": setup_refs, "in_process_import_s": in_process_import_s},
        "as_measured": {"op_s": raw_op_s, "setup_s": raw_setup_s},
        "probe": {"kind": w.probe_kind, "samples_s": run.samples},
        "op_s": summarize(totals),
        "op_times": totals,
        "workload_metrics": named,
        "workload_record": wrecord,
        "layers": layer_detail,
        "metrics": metrics,
        "wall_s": time.perf_counter() - started,
    }
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(m["name"] for m in declared) != sorted(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    suffix = "-trace" if args.trace else ""
    with open(OUT / f"record-{args.workload}-seed{args.seed}{suffix}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record, separators=(",", ":")))
    result = {"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
