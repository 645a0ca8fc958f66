"""Scale records: where the time and memory go at n >= 1000.

    PYTHONPATH=src python tools/scale_records.py

takes no arguments and prints five Markdown sections, one per record, of time and
tracemalloc peak on seeded spaces.  They are records, not gates: no benchmark
workload runs these sizes.  A record that raises prints its traceback, the others
still run, and the script exits 1.
"""

import itertools
import time
import traceback
import tracemalloc

import numpy as np

from metricdp import (METRIC_TOL, ExpMechParams, FiniteMetricSpace, audit_privacy, audit_utility, covering,
                      covering_measure, discrete_space, grid_space, identity_map, propose_centers, tabulate,
                      uniform_measure, validate_metric)
from metricdp._ieee import _logs
from metricdp.formats import dump_doc, space_to_doc, table_to_doc


def measure(step, runs=1, traced=True):
    """Best time in seconds of ``runs`` calls of ``step``, the tracemalloc peak in MB of
    one more call (None unless ``traced``), and the last timed call's result."""
    best = float("inf")
    for _ in range(runs):
        t0 = time.perf_counter()
        result = step()
        best = min(best, time.perf_counter() - t0)
    peak = None
    if traced:
        tracemalloc.start()
        try:
            step()
            peak = tracemalloc.get_traced_memory()[1] / 1e6
        finally:
            tracemalloc.stop()
    return best, peak, result


def planar(rng, n, twins=0):
    """Distances of n points drawn uniform in the unit square; with ``twins``, that many
    of them repeat points drawn from the other n - twins, in a shuffled order."""
    pts = rng.uniform(size=(n - twins, 2))
    if twins:
        pts = rng.permutation(np.vstack([pts, pts[rng.integers(n - twins, size=twins)]]))
    diff = pts[:, None, :] - pts[None, :, :]
    return np.sqrt((diff * diff).sum(axis=2))


def space(prefix, dist):
    return FiniteMetricSpace([f"{prefix}{i}" for i in range(len(dist))], dist)


def exp_table(base, beta=8.0):
    """The exponential mechanism's table on ``base``'s space with the identity query."""
    return tabulate(ExpMechParams(base=base, beta=beta, query=identity_map(base.space)))


def table(title, *columns):
    print(f"\n### {title}")
    row(*columns)
    print("|---" * len(columns) + "|")


def row(*cells):
    print("| " + " | ".join(map(str, cells)) + " |")


def triangle_check():
    """validate_metric, and FiniteMetricSpace (validation plus the store) on each valid
    matrix, with the path that decided.  The tiled pass, which no benchmark workload
    runs, takes the planar matrix's twin one ulp larger above the diagonal, which is not
    exactly symmetric, the near-equilateral matrix with one pair one ulp above twice its
    least entry plus METRIC_TOL, and the l1 grid graph, which is not Euclidean."""
    rng = np.random.default_rng(1000)
    plane = planar(rng, 1000)
    twin = plane.copy()
    upper = np.triu_indices(1000, 1)
    twin[upper] = np.nextafter(twin[upper], 2.0)
    bent = plane.copy()
    bent[[0, 1], [1, 0]] *= 1.3
    equi = np.triu(rng.uniform(0.6, 1.0, size=(1000, 1000)), 1)
    equi += equi.T
    least = float(equi[upper].min())
    assert equi[2, 3] > least
    above = equi.copy()
    above[2, 3] = above[3, 2] = np.nextafter((least + least) + METRIC_TOL, 2.0)
    x, y = np.divmod(np.arange(1024), 32)
    grid_l1 = (np.abs(x[:, None] - x[None, :]) + np.abs(y[:, None] - y[None, :])).astype(float)
    table("`validate_metric`, n=1000 unless named", "input", "path", "time (s)", "tracemalloc peak (MB)",
          "violations", "`FiniteMetricSpace` time (s)", "its tracemalloc peak (MB)")
    for name, mat in (("planar, symmetric", plane), ("planar, in-band asymmetric twin", twin),
                      ("planar, one pair scaled by 1.3", bent),
                      ("near-equilateral, symmetric", equi),
                      ("near-equilateral, one pair one ulp above the bound", above),
                      ("planar, n=2000", planar(rng, 2000)), ("l1 grid graph 32 x 32, n=1024", grid_l1),
                      ("grid_space(2000)", grid_space(2000).dist),
                      ("discrete_space(2000)", discrete_space(2000).dist)):
        seconds, peak, report = measure(lambda: validate_metric(mat))
        built = "— | —"
        if report.ok:
            labels = [str(i) for i in range(len(mat))]
            built_seconds, built_peak, _ = measure(lambda: FiniteMetricSpace(labels, mat))
            built = f"{built_seconds:.3f} | {built_peak:.1f}"
        row(name, report.certified_by, f"{seconds:.3f}", f"{peak:.1f}", len(report.violations), built)


def covering_record():
    """covering_measure, with its greedy scans and cover checks counted by spies, and
    propose_centers on each identity map.  At depth 1073 a 96-point space scans once past
    its default depth, since the levels below its least positive distance share one scan,
    and is checked once per run of levels with one center list."""
    rng = np.random.default_rng(2000)
    pseudo, plane, small = (d / d.max() for d in (planar(rng, 2000, twins=666), planar(rng, 2000),
                                                 planar(rng, 96)))
    cases = (("planar", space("p", plane), None),
             ("grid_space(2000)", grid_space(2000), None),
             ("planar, 666 twins", space("q", pseudo), None),
             ("discrete_space(2000)", discrete_space(2000), None),
             ("planar, n=96", space("s", small), 1073))
    scan, check, scans, checks = covering._disjoint_scan, covering._uncovered, [], []
    covering._disjoint_scan = lambda *args: scans.append(1) or scan(*args)
    covering._uncovered = lambda *args: checks.append(1) or check(*args)
    try:
        table("`covering_measure`, n=2000 unless named", "space", "depth", "time (ms), best of 5",
              "tracemalloc peak (MB)", "`_disjoint_scan` calls", "cover checks")
        for name, metric, depth in cases:
            # Each call clears the spies' counts, so they count the traced call alone.
            seconds, peak, (_, hier) = measure(
                lambda: scans.clear() or checks.clear() or covering_measure(metric, depth=depth), runs=5)
            row(name, hier.depth, f"{seconds * 1e3:.1f}", f"{peak:.1f}", len(scans), len(checks))
    finally:
        covering._disjoint_scan, covering._uncovered = scan, check
    table("`propose_centers` on the identity map, radius 0.01", "space", "centers", "time (ms), best of 5",
          "tracemalloc peak (MB)")
    for name, metric, _ in cases:
        query = identity_map(metric)
        seconds, peak, centers = measure(lambda: propose_centers(query, 0.01), runs=5)
        row(name, len(centers), f"{seconds * 1e3:.2f}", f"{peak:.2f}")


def privacy_audit():
    """audit_privacy on planar exponential-mechanism tables from the benchmark's n=96 to
    n=1000; tabulate and audit_utility on the planar identity map; audit_privacy on the
    benchmark's pseudometric family with the covering base, which gives the duplicate
    points no weight, so the sweep leaves their output columns out; and the log kernel."""
    table("`audit_privacy`, planar exponential mechanism", "n", "per-pair matrix", "time (s)",
          "tracemalloc peak (MB)", "epsilon")
    for n, runs in ((96, 50), (500, 3), (1000, 1)):
        mech = exp_table(uniform_measure(space("p", planar(np.random.default_rng(1000), n))))
        for include in (False, True):
            seconds, peak, report = measure(lambda: audit_privacy(mech, include_per_pair=include), runs)
            row(n, include, f"{seconds:.4f}", f"{peak:.1f}", repr(report.epsilon_max))
    table("`tabulate` and `audit_utility` on the planar identity map", "n", "step", "time (ms), best of 5",
          "tracemalloc peak (MB)")
    for n in (96, 1000, 2000):
        metric = space("p", planar(np.random.default_rng(1000), n))
        query = identity_map(metric)
        params = ExpMechParams(base=uniform_measure(metric), beta=8.0, query=query)
        mech = tabulate(params)
        for name, step in (("tabulate", lambda: tabulate(params)),
                           ("audit_utility", lambda: audit_utility(mech, query, 0.1))):
            seconds, peak, _ = measure(step, runs=5)
            row(n, f"`{name}`", f"{seconds * 1e3:.2f}", f"{peak:.2f}")
    table("`audit_privacy`, pseudometric with the covering base", "n", "per-pair matrix", "columns swept",
          "time (s)", "tracemalloc peak (MB)", "epsilon")
    for n, runs in ((96, 50), (1000, 1)):
        dist = planar(np.random.default_rng(1000), n, twins=n - (2 * n) // 3)
        mech = exp_table(covering_measure(space("q", dist / dist.max()))[0])
        swept = int(mech.probs.any(axis=0).sum())
        for include in (False, True):
            seconds, peak, report = measure(lambda: audit_privacy(mech, include_per_pair=include), runs)
            row(n, include, f"{swept} of {n}", f"{seconds:.4f}", f"{peak:.1f}", repr(report.epsilon_max))
    table("`_ieee._logs` on an n=1000 table", "cells", "time (ms), best of 5", "tracemalloc peak (MB)")
    probs = np.random.default_rng(1000).uniform(size=(1000, 1000))
    seconds, peak, _ = measure(lambda: _logs(probs), runs=5)
    row(probs.size, f"{seconds * 1e3:.2f}", f"{peak:.2f}")


def known_answers():
    """On a space that looks the same from every point, with the uniform base and the
    identity query, the exact epsilon is beta: the discrete space and the cycle at
    n=1000, and the Hamming cube {0,1}^11 with distances divided by 11."""
    gap = np.abs(np.arange(1000)[:, None] - np.arange(1000)[None, :])
    cycle = FiniteMetricSpace([str(i) for i in range(1000)], np.minimum(gap, 1000 - gap) / 1000)
    bits = np.array(list(itertools.product((0, 1), repeat=11)))
    cube = FiniteMetricSpace(["".join(map(str, b)) for b in bits],
                             (bits[:, None, :] != bits[None, :, :]).sum(axis=2) / 11)
    table("Known answers from symmetry: `audit_privacy` epsilon against beta", "space", "n", "beta",
          "audit time (s)", "abs(epsilon - beta) / beta")
    for name, metric, betas in (("discrete", discrete_space(1000), (5.0, 60.0, 700.0)),
                                ("cycle", cycle, (5.0, 60.0, 700.0)),
                                ("Hamming cube, k=11", cube, (60.0,))):
        for beta in betas:
            mech = exp_table(uniform_measure(metric), beta)
            seconds, _, report = measure(lambda: audit_privacy(mech), traced=False)
            row(name, len(metric), f"{beta:g}", f"{seconds:.3f}", f"{abs(report.epsilon_max - beta) / beta:.2g}")


def report_writer():
    """Writing exponential-mechanism tables and their spaces.  The writer formats each
    distinct double once per block, so the grid space, which repeats its n distances,
    writes fastest."""
    table("Report writer, n=1000 exponential-mechanism tables and spaces", "document",
          "to_doc + dump_doc time (s)", "tracemalloc peak (MB)", "characters")
    for name, metric in (("planar", space("p", planar(np.random.default_rng(1000), 1000))),
                         ("1-D grid", grid_space(1000))):
        mech = exp_table(uniform_measure(metric))
        for kind, to_doc, obj in (("table", table_to_doc, mech), ("space", space_to_doc, metric)):
            seconds, peak, text = measure(lambda: dump_doc(to_doc(obj)))
            row(f"{name} {kind}", f"{seconds:.3f}", f"{peak:.1f}", len(text))


RECORDS = (("Triangle check at n=1000", triangle_check),
           ("Covering measure at n=2000", covering_record),
           ("Privacy audit at n=1000", privacy_audit),
           ("Known answers from symmetry at n=1000", known_answers),
           ("Report writer at n=1000", report_writer))


def main() -> int:
    failed = 0
    for name, record in RECORDS:
        print(f"## {name}", flush=True)
        try:
            record()
        except Exception:  # a record that raises must not stop the others
            traceback.print_exc()
            failed = 1
        print(flush=True)
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
