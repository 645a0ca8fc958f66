"""Smoke tests of the benchmark harness at tiny sizes.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import metricdp  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from metricdp import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [w["name"] for w in SPEC["workloads"]]
TINY = dict(n=8, setup_repeats=1, cold_runs=2, log=lambda line: None)


def tiny_run(workload, trace=False):
    return bench.run(workload, seed=5, seconds=0.2, trace=trace, **TINY)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", NAMES)
def test_every_metric_prints_with_its_unit(workload, trace):
    result = tiny_run(workload, trace)
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["correct"] is True
    assert result["attempted"] >= 1


def test_tracing_leaves_the_library_as_shipped():
    originals = (metricdp.audit_privacy, cli.audit_privacy, metricdp.FiniteMetricSpace.__init__)
    tiny_run("cli", trace=True)
    assert (metricdp.audit_privacy, cli.audit_privacy,
            metricdp.FiniteMetricSpace.__init__) == originals


def _halved_epsilon(audit_privacy):
    def wrong(*args, **kwargs):
        report = audit_privacy(*args, **kwargs)
        return dataclasses.replace(report, epsilon_max=report.epsilon_max / 2)
    return wrong


def _halved_beta(calibrate_beta):
    return lambda *args, **kwargs: calibrate_beta(*args, **kwargs) / 2


@pytest.mark.parametrize("workload, owner, name, break_it", [
    ("design", metricdp, "calibrate_beta", _halved_beta),
    ("audit", metricdp, "audit_privacy", _halved_epsilon),
    ("cli", cli, "calibrate_beta", _halved_beta),
])
def test_a_wrong_result_is_caught_and_counted(monkeypatch, workload, owner, name, break_it):
    monkeypatch.setattr(owner, name, break_it(getattr(owner, name)))
    result = tiny_run(workload)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert result["metrics"]["ok_frac"]["value"] < 1


def test_the_underflow_defect_counts_as_failed_but_known():
    audit = workloads.AuditWorkload(seed=5)
    audit.setup()
    k = next(k for k in range(44) if audit.entry(k).gamma == 0.02 and not audit.entry(k).mixed)
    result = audit.run_op(k)
    assert not result.ok
    assert result.known_defect


def test_an_audit_cycle_covers_every_table_once():
    audit = workloads.AuditWorkload(seed=5, n=8)
    audit.setup()
    assert len({id(audit.entry(k)) for k in range(audit.cycle)}) == len(audit.entries) == 44


def test_a_run_is_whole_cycles_sized_from_seconds():
    assert bench.planned_ops(workloads.DesignWorkload, 0.2) == 40
    assert bench.planned_ops(workloads.AuditWorkload, 24) == 44
    assert bench.planned_ops(workloads.CliWorkload, 60) == 120


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench.tail(list(range(40))) == (29, 75.0)
    assert bench.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert bench.median([4, 1, 3, 2]) == 2


@pytest.mark.parametrize("beta", [3.0, 800.0])
def test_oracle_epsilon_agrees_with_the_audit_until_underflow(beta):
    space = metricdp.grid_space(5)
    params = metricdp.ExpMechParams(metricdp.uniform_measure(space), beta,
                                    metricdp.identity_map(space))
    oracle = workloads.oracle_epsilon(workloads.em_log_table([0.2] * 5, beta, space.dist),
                                      space.dist)
    audited = metricdp.audit_privacy(metricdp.tabulate(params)).epsilon_max
    assert oracle <= 2 * beta
    if beta < 400:
        assert audited == pytest.approx(oracle, rel=1e-12)
    else:  # the known defect: exp(-800) underflows to 0 in the table
        assert audited == math.inf


def test_exits_nonzero_without_the_program():
    bare = bench.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "design", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
