#!/usr/bin/env python3
"""Benchmark of the metricdp library: one closed-loop caller, timed end to
end with tracing off, and per layer in a separate traced run.

Run from the repository root:

    python3 perfbench/run.py --workload design --seed 1 --seconds 24 --trace 0

Workloads (see perfbench/NOTES.md): ``design`` (the constructive chain on a
fresh space), ``audit`` (exact audits of ready-made tables) and ``cli``
(the JSON pipeline through ``metricdp.cli.main``).  The library is imported
from this checkout's ``src``.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, the environment
and the traced spans are written under ``perfbench/out/``.
"""

import os

# One BLAS thread: one caller on a 2-core box, and no pool spin-up noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

COLD_RUNS = 11
# Operation index of the untimed warm-up, outside the timed range.
WARMUP_OP = 10**6
SETUP_REPEATS = 3
# Time of ``host_kernel`` on the reference host (Intel Xeon, 2 vCPUs) in
# its fast spells; see ``HostSpeed``.
REF_MS = 3.2
# Time of ``ColdStart.REF_CMD`` on the reference host in its fast spells.
REF_COLD_MS = 110.0

END_TO_END = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
    "cli_cold_ms": "ms",
    "setup_s": "s",
}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "ratio"
    if name.startswith("formats.bytes"):
        return "bytes"
    if name == "trace.overhead_pct":
        return "%"
    return "count"


def median(samples):
    """Nearest-rank (lower) median, the order-statistic convention of
    ``tail``."""
    return sorted(samples)[(len(samples) - 1) // 2]


def tail(samples):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum, flagged as p100, below 11 samples."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100.0
    return xs[-11], 100.0 * (len(xs) - 10) / len(xs)


def blas_threads():
    """Thread count OpenBLAS reports, read through ctypes from the library
    numpy loaded; None when it cannot be read."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
        sha = proc.stdout.strip() or None
    src = hashlib.sha256()
    for path in sorted((SRC / "metricdp").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = next((line.split(":", 1)[1].strip() for line in
                Path("/proc/cpuinfo").read_text().splitlines()
                if line.startswith("model name")), platform.processor())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": blas_threads(),
        "git_sha": sha,
        "src_sha256": src.hexdigest(),
    }


_GRID = numpy.abs(numpy.subtract.outer(numpy.arange(16.0), numpy.arange(16.0))) / 15


def host_kernel() -> int:
    """Fixed work that touches no library code: a triangle scan with numpy
    scalar indexing, as in today's hot loops, and an integer loop."""
    hits = 0
    for i in range(16):
        for k in range(16):
            for j in range(16):
                if _GRID[i, k] > _GRID[i, j] + _GRID[j, k] + 1e-12:
                    hits += 1
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    return hits + total


class HostSpeed:
    """Host-speed correction of wall times.

    The reference host runs at speeds up to 1.6x apart, in spells from
    seconds to minutes, and every timing of a run moves with it.
    ``around(fn)`` times ``host_kernel`` three times before ``fn`` and three
    times after it; the median is the probe.  ``correct(seconds, probe)``
    scales an interval by ``REF_MS / probe``, to what it would take at the
    reference host's fast speed.
    """

    def __init__(self):
        self.probes = []

    @staticmethod
    def _kernel_ms() -> list:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            host_kernel()
            times.append((time.perf_counter() - t0) * 1e3)
        return times

    def around(self, fn):
        """(fn(), probe in ms)."""
        before = self._kernel_ms()
        result = fn()
        probe = statistics.median(before + self._kernel_ms())
        self.probes.append(probe)
        return result, probe

    @staticmethod
    def correct(seconds: float, probe_ms: float) -> float:
        return seconds * REF_MS / probe_ms


class ColdStart:
    """Wall time of ``python -m metricdp.cli validate`` on a tiny generator
    space, as a subprocess importing this checkout's ``src``.

    Process start-up on the reference host changes speed in spells that
    ``host_kernel`` does not follow, so each start is bracketed by two
    starts of ``REF_CMD``, which runs no library code, and is scaled by
    ``REF_COLD_MS`` over their mean.
    """

    REF_CMD = [sys.executable, "-c", "import numpy"]

    def __init__(self, scratch: str):
        space = os.path.join(scratch, "cold_space.json")
        with open(space, "w", encoding="utf-8") as fh:
            json.dump({"kind": "grid", "n": 5}, fh)
        self.cmd = [sys.executable, "-m", "metricdp.cli", "validate", "--space", space]
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.cwd = scratch
        self.samples = []
        self.ok = True

    def _start(self, cmd) -> tuple:
        """(completed process, wall time in ms)."""
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=self.env, cwd=self.cwd, capture_output=True,
                              text=True, timeout=60)
        return proc, (time.perf_counter() - t0) * 1e3

    def measure(self) -> tuple:
        """(wall time of the start, mean of the reference starts around it),
        both in ms."""
        ref_before = self._start(self.REF_CMD)[1]
        proc, elapsed_ms = self._start(self.cmd)
        ref_after = self._start(self.REF_CMD)[1]
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout)["result"]["ok"] is True
        except (ValueError, KeyError):
            ok = False
        self.ok = self.ok and ok
        return elapsed_ms, (ref_before + ref_after) / 2

    @staticmethod
    def correct(elapsed_ms: float, ref_ms: float) -> float:
        return elapsed_ms * REF_COLD_MS / ref_ms


def planned_ops(cls, seconds: float) -> int:
    """Operations of a run: the whole cycles that take closest to
    ``seconds`` on the reference host, and at least one.  The count does
    not depend on the host's speed at run time, so every run of the same
    code attempts the same operations and fails the same ones."""
    return cls.cycle * max(1, round(seconds / cls.cycle_s))


def timed_ops(wl, ops: int, host: HostSpeed, between) -> list:
    """Closed loop: fresh operations 0, 1, ..., ops - 1, each inside a
    host-speed probe; ``between(k)`` runs after operation k."""
    results = []
    for k in range(ops):
        result, probe = host.around(lambda: wl.run_op(k))
        result.host_ms = probe
        results.append(result)
        between(k)
    return results


def traced_ops(wl, ops: int, tracer) -> tuple:
    """(traced, twins): each traced operation follows an untraced twin on
    the same input, and the pairs give the tracing overhead."""
    traced, twins = [], []
    for k in range(ops):
        twins.append(wl.run_op(k))
        tracer.op = k
        tracer.install()
        try:
            traced.append(wl.run_op(k))
        finally:
            tracer.uninstall()
    return traced, twins


def run(workload: str, seed: int, seconds: float, trace: bool, *, n=None,
        setup_repeats=SETUP_REPEATS, cold_runs=COLD_RUNS, log=print) -> dict:
    """Run one workload and return the result object; ``n``,
    ``setup_repeats`` and ``cold_runs`` shrink it for the smoke tests."""
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)
    import workloads

    OUT.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    env = environment()
    log("env " + json.dumps(env, sort_keys=True))
    cls = workloads.WORKLOADS[workload]
    ops = planned_ops(cls, seconds)
    host = HostSpeed()
    setups, warmups, twins, cold, wl = [], [], [], None, None

    def set_up():
        # A set-up builds the fixture and runs one untimed warm-up operation.
        t0 = time.perf_counter()
        fixture = cls(seed, n=n, scratch=scratch)
        fixture.setup()
        warmups.append(fixture.run_op(WARMUP_OP))
        return fixture, time.perf_counter() - t0

    try:
        for _ in range(1 if trace else setup_repeats):
            if wl is not None:
                wl.close()
            (wl, raw), probe = host.around(set_up)
            setups.append((raw, probe))
        if trace:
            tracer = Tracer()
            results, twins = traced_ops(wl, ops, tracer)
        else:
            cold = ColdStart(scratch)
            cold.measure()  # warms the file cache; not a sample

            def between(k):
                # Cold starts are spread over the run, between operations.
                if len(cold.samples) < cold_runs and (k + 1) * cold_runs >= (len(cold.samples) + 1) * ops:
                    cold.samples.append(cold.measure())

            results = timed_ops(wl, ops, host, between)
            while len(cold.samples) < cold_runs:
                cold.samples.append(cold.measure())
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(scratch, ignore_errors=True)

    unexpected = [r for r in warmups + twins + results if not r.ok and not r.known_defect]
    correct = not unexpected and (cold is None or cold.ok)
    failed = sum(not r.ok for r in results)
    reasons = Counter(c for r in results if not r.ok for c in (r.failed_checks or [r.error]))
    log(f"{workload} seed={seed}: {len(results)} ops, {failed} failed "
        f"({sum(r.known_defect for r in results)} known underflow defect, "
        f"{len(unexpected)} unexpected incl. warm-ups and twins)")
    if reasons:
        log("failed checks: " + json.dumps(dict(reasons), sort_keys=True))
    for r in unexpected[:3]:
        log(f"unexpected failure: {r.error or r.failed_checks} {r.record}")
    log(f"digest {workload} seed={seed} ops={len(results)} "
        f"sha256={workloads.digest(r.record for r in results)}")

    record = {"workload": workload, "seed": seed, "seconds": seconds, "planned_ops": ops,
              "trace": trace, "env": env, "ref_ms": REF_MS, "host_probes_ms": host.probes,
              "setups": [{"raw_s": raw, "probe_ms": probe} for raw, probe in setups],
              "ops": [{"latency_ms": r.latency_s * 1e3, "probe_ms": r.host_ms, "ok": r.ok,
                       "known_defect": r.known_defect, "failed_checks": r.failed_checks,
                       "error": r.error, "record": r.record} for r in results]}
    if trace:
        tracer.dump(str(OUT / f"spans-{workload}-s{seed}.json"))
        metrics = trace_metrics(results, twins, tracer, log)
    else:
        metrics = timed_metrics(results, setups, cold, log)
        record["cli_cold"] = [{"raw_ms": raw, "ref_ms": ref} for raw, ref in cold.samples]
    record["metrics"] = metrics
    with open(OUT / f"result-{workload}-s{seed}-t{int(trace)}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, default=str)
    return {"correct": bool(correct), "attempted": len(results), "failed": failed,
            "metrics": metrics}


def timed_metrics(results, setups, cold, log) -> dict:
    """End-to-end metrics, each time corrected for host speed (cold starts
    against reference starts); the raw figures are logged beside them."""
    # With no passing operation, the failed ones keep the metrics defined.
    timed = [r for r in results if r.ok] or results
    corrected = [HostSpeed.correct(r.latency_s, r.host_ms) * 1e3 for r in timed]
    raw = [r.latency_s * 1e3 for r in timed]
    busy = sum(HostSpeed.correct(r.latency_s, r.host_ms) for r in results)
    passed = sum(r.ok for r in results)
    tail_ms, pct = tail(corrected)
    values = {
        "ops_per_s": passed / busy,
        "op_p50_ms": median(corrected),
        "op_tail_ms": tail_ms,
        "ok_frac": passed / len(results),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cli_cold_ms": statistics.median(ColdStart.correct(raw, ref) for raw, ref in cold.samples),
        "setup_s": statistics.median(HostSpeed.correct(raw, probe) for raw, probe in setups),
    }
    raw_busy = sum(r.latency_s for r in results)
    log(f"op_tail_ms is p{pct:.1f} over {len(timed)} passing ops")
    log(f"uncorrected: ops_per_s {passed / raw_busy:.4g}, op_p50_ms {median(raw):.4g}, "
        f"op_tail_ms {tail(raw)[0]:.4g}, cli_cold_ms "
        f"{statistics.median(ms for ms, _ in cold.samples):.4g} (reference start "
        f"{statistics.median(ref for _, ref in cold.samples):.4g} against REF_COLD_MS "
        f"{REF_COLD_MS}), setup_s "
        f"{statistics.median(sec for sec, _ in setups):.4g}; host probe median "
        f"{statistics.median(r.host_ms for r in results):.3f} ms against REF_MS {REF_MS}")
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}


def trace_metrics(traced, twins, tracer, log) -> dict:
    """Per-layer metrics, as raw times, and the tracing overhead against
    the untraced twins."""
    metrics = tracer.per_op_metrics(range(len(traced)))
    base = sum(r.latency_s for r in twins)
    metrics["trace.overhead_pct"] = 100.0 * (sum(r.latency_s for r in traced) - base) / base
    self_total = sum(metrics[f"{layer}.self_ms"] for layer in LAYERS)
    for layer in LAYERS:
        value = metrics[f"{layer}.self_ms"]
        share = value / self_total if self_total else 0.0
        log(f"self time {layer:<10} {value:10.3f} ms/op  {share:6.1%}")
    log(f"traced {len(traced)} ops, each after an untraced twin; overhead "
        f"{metrics['trace.overhead_pct']:.2f}%")
    return {name: {"value": value, "unit": layer_unit(name)} for name, value in sorted(metrics.items())}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("design", "audit", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be nonnegative and --seconds positive")
    if not (SRC / "metricdp" / "__init__.py").is_file():
        print(f"perfbench: no metricdp package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
