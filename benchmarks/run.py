"""Benchmark runner for gmesim: one seeded closed-loop workload per run.

Usage, from the repository root:

    python3 benchmarks/run.py --workload activation --seed 1 --seconds 30 --trace 0

One process, one client: each op starts when the previous one has finished
and been checked.  ``--trace 0`` runs whole cycles of the workload's op mix
until ``--seconds`` of wall time have passed and at least ``MIN_OPS`` ops
are done, and prints the end-to-end metrics.  ``--trace 1`` runs a fixed op
list untraced, then again with every layer wrapped, prints the per-layer
metrics and the tracing overhead, writes the spans to a sidecar, and checks
that a second process with the same seed repeats every count exactly.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Lines before it state sample
counts and the machine.  Everything the run writes goes under
``.bench_out/`` in the repository root.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before NumPy loads: results then do not depend on
# the caller's environment, and one thread is steadier than two here.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

#: Floor on ops per timed run, so that ten samples lie beyond p90.
MIN_OPS = 100
#: Fewest fresh processes timed from start to ready, one before each cycle;
#: ``setup_s`` is their median.
SETUP_PROBES = 5
#: Seconds the calibration kernel takes at the reference speed, at which all
#: timings are reported (see ``Calibration``).
REF_NOMINAL_S = 0.005
#: Limit on one child process, well inside the benchmark's own time limit.
CHILD_TIMEOUT_S = 150


def fail(message: str) -> None:
    print(f"benchmark: {message}", file=sys.stderr)
    sys.exit(2)


def import_library():
    """Import gmesim from this checkout's ``src/`` and nowhere else."""
    if not (SRC / "gmesim" / "__init__.py").is_file():
        fail(f"no gmesim sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import gmesim

    if Path(gmesim.__file__).resolve().parent != SRC / "gmesim":
        fail(f"imported gmesim from {gmesim.__file__}, not from {SRC}")
    import workloads

    return workloads


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None


def _openblas():
    """Runtime config string and thread count of the OpenBLAS NumPy loaded."""
    import ctypes

    maps = _read("/proc/self/maps") or ""
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line})
    for lib_path in libs:
        lib = ctypes.CDLL(lib_path)
        for prefix in ("scipy_openblas_", "openblas_"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    return get_config().decode(), int(get_threads())
    return None, None


def environment() -> dict:
    import numpy as np

    cpu_model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(Path(base).glob("index*")) if Path(base).is_dir() else []:
        level, kind = _read(f"{index}/level"), _read(f"{index}/type")
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(f"{index}/size")
    blas_config, blas_threads = _openblas()
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in sorted(SRC.rglob("*.py"))
    )
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "openblas": blas_config,
        "blas_threads": blas_threads,
        "src_lines": src_lines,
    }


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


class Runner:
    """One workload instance plus its working directory."""

    def __init__(self, workloads, name: str, seed: int):
        self.workdir = OUT / f"work-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload = workloads.WORKLOADS[name](seed, self.workdir)
        self.warm_digest = None

    def warm_up(self) -> None:
        """Run op 0 once; every later run of op 0 must reproduce its bytes."""
        wl = self.workload
        op = wl.make_op(0, wl.cycle[0])
        self.warm_digest = wl.digest(op, wl.run(op))
        wl.release(op)

    def run_op(self, op, tracer=None):
        """Time one op, then check it; returns ``(kind, seconds, problems)``."""
        wl = self.workload
        if tracer is not None:
            tracer.op = op.index
        start = time.perf_counter()
        try:
            result = wl.run(op)
            raised = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            raised = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.op = None
        if raised is not None:
            return op.kind, elapsed, [raised]
        try:
            problems = wl.check(op, result)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            problems = [f"output has an unexpected shape: {type(exc).__name__}: {exc}"]
        if op.index == 0 and wl.digest(op, result) != self.warm_digest:
            problems.append("op 0 re-run did not reproduce its output bytes")
        return op.kind, elapsed, problems

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


def _report_problems(rows) -> int:
    failed = 0
    for kind, _, problems, *_ in rows:
        if problems:
            failed += 1
            print(f"# FAILED {kind}: {'; '.join(problems)[:500]}", file=sys.stderr)
    return failed


@contextlib.contextmanager
def _child(args: list[str]):
    """This script in a fresh process; it is always waited for."""
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve())] + args,
        stdout=subprocess.PIPE, text=True, cwd=str(ROOT),
    )
    try:
        yield proc
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()


def setup_probe_seconds(workload: str, seed: int) -> float:
    """Start a fresh process and time it until it reports ready."""
    start = time.perf_counter()
    with _child(["--workload", workload, "--seed", str(seed), "--setup-probe"]) as proc:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    if line.strip() != "ready" or proc.returncode != 0:
        fail(f"setup probe failed (exit {proc.returncode})")
    return ready


class Calibration:
    """A fixed kernel, run between ops, that tracks the machine's speed.

    On a shared host the CPU speed drifts by up to a third over tens of
    seconds, and the ops and this kernel slow down together.  A timing
    multiplied by ``REF_NOMINAL_S / kernel seconds`` therefore reads the same
    in slow and fast periods: it is the timing at the speed at which the
    kernel takes ``REF_NOMINAL_S``.  Like the ops, the kernel mixes
    interpreter work with small LAPACK calls, and it runs no gmesim code.
    """

    def __init__(self):
        import numpy as np

        a = np.random.default_rng(0).normal(size=(96, 96, 2)) @ np.array([1.0, 1.0j])
        self._matrix = a + a.conj().T
        self._eigvalsh = np.linalg.eigvalsh

    def seconds(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            total += i * i % 7
        for _ in range(2):
            self._eigvalsh(self._matrix)
            self._matrix @ self._matrix
        return time.perf_counter() - start


def timed_run(runner: Runner, workload: str, seed: int, seconds: float):
    calibration = Calibration()
    wl = runner.workload
    cycles = []  # per cycle: [(kind, seconds, problems, speed scale), ...]
    raw_setups, setups = [], []
    start = time.perf_counter()
    kernel_before = calibration.seconds()

    def scale_to_reference() -> float:
        """Speed scale since the last kernel run: the kernel runs on each side."""
        nonlocal kernel_before
        kernel_after = calibration.seconds()
        scale = 2.0 * REF_NOMINAL_S / (kernel_before + kernel_after)
        kernel_before = kernel_after
        return scale

    while True:
        # one setup probe before each cycle, so that the probes sample the
        # machine at moments spread over the whole run
        raw_setups.append(setup_probe_seconds(workload, seed))
        setups.append(raw_setups[-1] * scale_to_reference())
        rows = []
        for op in wl.cycle_ops(len(cycles)):
            kind, elapsed, problems = runner.run_op(op)
            wl.release(op)
            rows.append((kind, elapsed, problems, scale_to_reference()))
        cycles.append(rows)
        n = sum(len(c) for c in cycles)
        if time.perf_counter() - start >= seconds and n >= MIN_OPS and len(cycles) >= SETUP_PROBES:
            break
    rows = [row for c in cycles for row in c]
    failed = _report_problems(rows)

    def summary(scaled: bool):
        def op_time(row):
            return row[1] * (row[3] if scaled else 1.0)

        latencies = [op_time(row) for row in rows]
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        # each cycle holds the whole op mix once; the median over cycles
        # keeps a burst of load from elsewhere from moving the rate
        rates = [len(c) / sum(op_time(row) for row in c) for c in cycles]
        return {
            "setup_s": (statistics.median(setups if scaled else raw_setups), "s"),
            "ops_per_s": (statistics.median(rates), "1/s"),
            "op_p50_ms": (deciles[4] * 1e3, "ms"),
            "op_p90_ms": (deciles[8] * 1e3, "ms"),
        }

    metrics = summary(scaled=True)
    metrics["ok_ops_frac"] = ((n - failed) / n, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    mix = dict(wl.mix)
    info = {
        "ops": n, "cycles": len(cycles), "mix_per_cycle": mix,
        "median_speed_scale_per_cycle": [statistics.median(r[3] for r in c) for c in cycles],
        "unscaled": {name: value for name, (value, _) in summary(scaled=False).items()},
        "unscaled_median_ms_per_kind": {
            kind: statistics.median(r[1] * 1e3 for r in rows if r[0] == kind) for kind in mix},
        "unscaled_setup_probes_s": raw_setups,
        "wall_s": time.perf_counter() - start,
    }
    print(f"# {workload}: {n} ops in {len(cycles)} cycles of {mix}; p50/p90 over {n} "
          f"samples; ops_per_s median over {len(cycles)} cycles; setup_s median of "
          f"{len(setups)} processes; timings at reference speed, median speed scale "
          f"{statistics.median(r[3] for r in rows):.4f}")
    print("# unscaled " + json.dumps(info["unscaled"]))
    return metrics, n, failed, info


def traced_passes(runner: Runner):
    """Run each op of a fixed list untraced and traced, alternating which goes
    first, so that drift in machine speed and first-run costs fall on both
    sides alike.  Returns both row lists and the tracer."""
    from tracer import Tracer

    tracer = Tracer()
    untraced, traced = [], []
    for cycle in range(runner.workload.trace_cycles):
        for op in runner.workload.cycle_ops(cycle):
            for with_trace in (op.index % 2 == 1, op.index % 2 == 0):
                if not with_trace:
                    untraced.append(runner.run_op(op))
                    continue
                tracer.install()
                try:
                    traced.append(runner.run_op(op, tracer))
                finally:
                    tracer.uninstall()
            runner.workload.release(op)
    return untraced, traced, tracer


def trace_report(workload: str, seed: int, untraced, traced, tracer, metrics, counts):
    failed = _report_problems(untraced) + _report_problems(traced)
    n = len(traced)
    untraced_rate = n / sum(e for _, e, _ in untraced)
    traced_rate = n / sum(e for _, e, _ in traced)
    metrics["trace.untraced_ops_per_s"] = (untraced_rate, "1/s")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.ops_per_s_ratio"] = (traced_rate / untraced_rate, "ratio")

    # a second process with the same seed must repeat every count exactly
    args = ["--workload", workload, "--seed", str(seed), "--trace", "1", "--counts-only"]
    with _child(args) as proc:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"count-repeat process failed (exit {proc.returncode})")
    again = json.loads(lines[-1])
    mismatched = sorted(k for k in set(counts) | set(again) if counts.get(k) != again.get(k))
    for key in mismatched:
        print(f"# COUNT MISMATCH {key}: {counts.get(key)} vs {again.get(key)}", file=sys.stderr)

    sidecar = OUT / f"spans-{workload}-seed{seed}.json"
    tracer.write_sidecar(sidecar, {"workload": workload, "seed": seed, "ops": n})
    print(f"# {workload}: {n} ops, each run untraced and traced; "
          f"{len(tracer.spans)} spans in {sidecar.relative_to(ROOT)}; "
          f"tracing overhead: traced/untraced ops_per_s = {traced_rate / untraced_rate:.4f}; "
          f"counts repeat in a second process: {not mismatched}")
    info = {"ops": n, "counts": counts, "count_mismatches": mismatched}
    return metrics, 2 * n, failed, info, not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--counts-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workloads = import_library()
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    runner = Runner(workloads, args.workload, args.seed)
    try:
        runner.warm_up()
        if args.setup_probe:
            print("ready", flush=True)
            return 0
        if args.trace:
            untraced, traced, tracer = traced_passes(runner)
            metrics, counts = tracer.summary(len(traced))
            if args.counts_only:
                print(json.dumps(counts, sort_keys=True))
                return 0
            metrics, attempted, failed, info, counts_repeat = trace_report(
                args.workload, args.seed, untraced, traced, tracer, metrics, counts)
        else:
            metrics, attempted, failed, info = timed_run(
                runner, args.workload, args.seed, args.seconds)
            counts_repeat = True
    finally:
        runner.close()

    env = environment()
    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value} {unit}")
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, env=env, info=info)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
