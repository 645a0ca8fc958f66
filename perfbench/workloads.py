"""The three benchmark workloads, their seeded inputs and the checks that
judge every operation.

Each workload is one closed-loop caller: ``op(k)`` builds the inputs of
operation ``k`` from ``(seed, k)``, calls the library, and returns an
``OpResult`` whose ``latency_s`` covers the library calls only.  Input
generation and the checks run outside that interval.

The checks use the paper's guarantees and an independent oracle kept in
this file: exponential-mechanism tables recomputed in the log domain, and
their exact epsilon computed from those logs.

Known defect (ROADMAP item 3): at gamma=0.02 the calibrated beta is about
1000, ``tabulate`` stores probabilities that underflow to 0, and
``audit_privacy`` reports an infinite epsilon.  Operations that hit it fail
their checks and count in ``failed``; ``OpResult.known_defect`` marks
them so that they are told apart from a new, unexpected failure.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

import metricdp as mdp
from metricdp import cli

FAMILIES = ("planar", "grid", "discrete", "pseudo")
TARGETS = tuple((g, d) for g in (0.5, 0.2, 0.1, 0.05, 0.02) for d in (0.1, 0.01))

# Share of the EM rows in the audit workload's non-EM tables; the rest is
# the uniform row.
MIX_SHARE = 0.9
# Relative slack on epsilon comparisons: 2*C*beta*(1 + EPS_REL).
EPS_REL = 1e-9
# Absolute slack on ball masses.
MASS_TOL = 1e-9
# Probabilities at or below this read as exact zeros in the library's
# audit; a stored entry at or below it whose oracle probability is
# positive has underflowed.
UNDERFLOW = 1e-300
# Checks that the underflow defect makes fail; any other failed check is
# unexpected.
DEFECT_CHECKS = frozenset({
    "privacy_finite", "privacy_le_bound", "privacy_matches_oracle",
    "floor_le_bound", "cli_exit_audit_privacy",
})


@dataclass
class OpResult:
    latency_s: float
    failed_checks: list = field(default_factory=list)
    error: str | None = None
    underflowed: bool = False
    record: dict = field(default_factory=dict)
    # Host-speed probe around the operation, in ms, when it is timed.
    host_ms: float | None = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.failed_checks

    @property
    def known_defect(self) -> bool:
        return (self.error is None and self.underflowed and bool(self.failed_checks)
                and set(self.failed_checks) <= DEFECT_CHECKS)


def schedule(k: int) -> tuple:
    """(family, (gamma, delta)) of operation k: the target cycles fastest
    and the family shifts by one each cycle, so every 40 operations cover
    all 40 pairs and any run length sees an even mix."""
    t = k % len(TARGETS)
    return FAMILIES[(k // len(TARGETS) + k) % len(FAMILIES)], TARGETS[t]


def make_space(family: str, n: int, rng) -> tuple:
    """(labels, dist) of a seeded n-point space of diameter 1."""
    if family == "planar":
        dist = _planar(rng.uniform(size=(n, 2)))
    elif family == "grid":
        coords = rng.permutation(n) / (n - 1)
        dist = np.abs(coords[:, None] - coords[None, :])
    elif family == "discrete":
        dist = np.ones((n, n)) - np.eye(n)
    elif family == "pseudo":
        distinct = max(2, (2 * n) // 3)
        pts = rng.uniform(size=(distinct, 2))
        extra = pts[rng.integers(distinct, size=n - distinct)]
        dist = _planar(rng.permutation(np.vstack([pts, extra])))
    else:
        raise ValueError(f"unknown family {family!r}")
    return [f"{family[0]}{i}" for i in range(n)], dist


def _planar(pts) -> np.ndarray:
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff * diff).sum(axis=2))
    return dist / dist.max()


# ---------------------------------------------------------------- oracle

def em_log_table(weights, beta: float, dist) -> np.ndarray:
    """Log-probabilities of the identity-query exponential mechanism,
    by log-sum-exp, so no entry underflows."""
    with np.errstate(divide="ignore"):
        logits = np.log(np.asarray(weights, dtype=float))[None, :] - beta * dist
    top = logits.max(axis=1, keepdims=True)
    return logits - (top + np.log(np.exp(logits - top).sum(axis=1, keepdims=True)))


def mix_log_table(log_probs, share: float = MIX_SHARE) -> np.ndarray:
    m = log_probs.shape[1]
    return np.logaddexp(math.log(share) + log_probs, math.log((1.0 - share) / m))


def oracle_epsilon(log_probs, din) -> float:
    """Exact smallest epsilon of the table, from its log-probabilities.

    An output with probability 0 under the numerator row never binds; one
    with positive probability there and 0 under the other row gives inf.
    """
    n = len(din)
    best = 0.0
    for i in range(n):
        zero = (din[i] == 0) & (np.arange(n) != i)
        if np.any(log_probs[zero] != log_probs[i]):
            return math.inf
        pos = din[i] > 0
        if not pos.any():
            continue
        with np.errstate(invalid="ignore"):
            diff = log_probs[i][None, :] - log_probs[pos]
        diff[:, np.isneginf(log_probs[i])] = -math.inf
        best = max(best, float((diff.max(axis=1) / din[i][pos]).max()))
    return best


def normalized_modulus(weights, dist, radius: float) -> float:
    masses = (dist <= radius).astype(float) @ weights
    return float(masses.min() / weights.sum())


def disjoint_centers(dist, radius: float) -> list:
    """Greedy indices, in label order, whose closed balls are pairwise
    disjoint (identity query, so each input's image is itself)."""
    covered = np.zeros(len(dist), dtype=bool)
    chosen = []
    for i in range(len(dist)):
        ball = dist[i] <= radius
        if not (ball & covered).any():
            chosen.append(i)
            covered |= ball
    return chosen


def lower_bound_threshold(probs, dist, centers, radius: float) -> float:
    """Utility threshold the chosen centers meet with a margin: half the
    smallest own-ball mass, capped at the classical 1/2."""
    own = min(float(probs[c][dist[c] <= radius].sum()) for c in centers)
    return min(0.5, 0.5 * own)


def underflowed(probs, log_probs) -> bool:
    return bool(np.any((probs <= UNDERFLOW) & np.isfinite(log_probs)))


def rounded(x: float, digits: int = 10):
    """A float rounded to ``digits`` significant digits for the digest, so
    two implementations that agree to that precision digest alike."""
    return float(f"{x:.{digits - 1}e}") if math.isfinite(x) else repr(x)


def digest(records) -> str:
    text = json.dumps(list(records), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class _Checks:
    def __init__(self):
        self.failed = []

    def __call__(self, name: str, ok) -> None:
        if not ok:
            self.failed.append(name)


def _eps_checks(check, eps, bound, oracle_eps):
    check("privacy_finite", math.isfinite(eps))
    check("privacy_le_bound", eps <= bound * (1 + EPS_REL))
    check("privacy_matches_oracle",
          abs(eps - oracle_eps) <= EPS_REL * max(1.0, abs(oracle_eps)))


def _floor_checks(check, floor, eps, bound):
    check("floor_le_eps", floor <= eps * (1 + EPS_REL))
    check("floor_le_bound", floor <= bound * (1 + EPS_REL))


# -------------------------------------------------------------- workloads

class Workload:
    """Base: ``setup()`` builds the fixture, ``op(k)`` runs operation k.

    A run is whole cycles of ``cycle`` operations, which cover every
    (family, target) pair or every table equally.  ``cycle_s`` is the wall
    time of one cycle, checks included, on the reference host (Intel Xeon,
    2 vCPUs) at the library's first benchmarked speed; it sizes a run.
    """

    name = ""
    default_n = 96
    cycle = len(FAMILIES) * len(TARGETS)
    cycle_s: float

    def __init__(self, seed: int, n: int | None = None, scratch: str | None = None):
        self.seed = seed
        self.n = n or self.default_n
        self.scratch = scratch

    def setup(self) -> None:
        pass

    def close(self) -> None:
        pass

    def run_op(self, k: int) -> OpResult:
        """``op(k)``, with any exception it raises recorded as a failure
        whose latency is the wall time up to the exception."""
        t0 = time.perf_counter()
        try:
            return self.op(k)
        except Exception as exc:  # the loop must keep running; the result records it
            return OpResult(time.perf_counter() - t0, error=f"{type(exc).__name__}: {exc}")


class DesignWorkload(Workload):
    """The mechanism designer's constructive chain on a fresh space."""

    name = "design"
    cycle_s = 24.0
    draws = 1000
    probes = 3

    def op(self, k: int) -> OpResult:
        family, (gamma, delta) = schedule(k)
        rng = np.random.default_rng([self.seed, k, 1])
        labels, dist = make_space(family, self.n, rng)
        probes = [int(i) for i in rng.choice(self.n, size=self.probes, replace=False)]
        seeds = [int(s) for s in rng.integers(2**31, size=self.probes)]

        t0 = time.perf_counter()
        space = mdp.FiniteMetricSpace(labels, dist)
        query = mdp.identity_map(space)
        base, hier = mdp.covering_measure(space)
        modulus = base.modulus(gamma / 2) / base.total_mass
        beta = mdp.calibrate_beta(gamma, delta, modulus)
        params = mdp.ExpMechParams(base=base, beta=beta, query=query)
        table = mdp.tabulate(params)
        draws = [mdp.sample_many(params, labels[p], s, self.draws) for p, s in zip(probes, seeds)]
        util = mdp.audit_utility(table, query, gamma)
        latency = time.perf_counter() - t0

        check = _Checks()
        weights = np.asarray(base.values)
        check("lipschitz_is_1", abs(query.constant - 1.0) <= 1e-12)
        check("measure_mass", abs(base.total_mass - (1 - 2.0 ** -hier.depth)) <= 1e-12)
        want_beta = (2 / gamma) * math.log(1 / (delta * normalized_modulus(weights, dist, gamma / 2)))
        check("beta_calibrated", abs(beta - max(0.0, want_beta)) <= 1e-9 * max(1.0, beta))
        log_probs = em_log_table(weights, beta, dist)
        check("table_matches_oracle", float(np.abs(table.probs - np.exp(log_probs)).max()) <= 1e-12)
        check("utility_min_mass", util.min_mass >= 1 - delta - MASS_TOL)
        index = {lab: i for i, lab in enumerate(labels)}
        sigma = math.sqrt(delta * (1 - delta) / self.draws)
        for p, got in zip(probes, draws):
            check("sample_labels", len(got) == self.draws and all(lab in index for lab in got))
            inside = np.mean([dist[p, index.get(lab, p)] <= gamma for lab in got])
            check("sample_in_ball", inside >= 1 - delta - 6 * sigma - 1.0 / self.draws)
        return OpResult(latency, check.failed, record={
            "op": k, "family": family, "gamma": gamma, "delta": delta,
            "depth": hier.depth, "beta": rounded(beta), "min_mass": rounded(util.min_mass),
            "samples": digest(draws),
        })


@dataclass
class _AuditEntry:
    space: object
    query: object
    dist: np.ndarray
    table: object
    log_probs: np.ndarray
    gamma: float
    delta: float
    beta: float
    mixed: bool


class AuditWorkload(Workload):
    """The third-party auditor: exact audits of ready-made tables."""

    name = "audit"
    cycle = len(FAMILIES) * (len(TARGETS) + 1)
    cycle_s = 28.0

    def setup(self) -> None:
        entries = []
        for s, family in enumerate(FAMILIES):
            rng = np.random.default_rng([self.seed, s, 2])
            labels, dist = make_space(family, self.n, rng)
            space = mdp.FiniteMetricSpace(labels, dist)
            query = mdp.identity_map(space)
            base, _ = mdp.covering_measure(space)
            weights = np.asarray(base.values)
            for gamma, delta in TARGETS:
                beta = mdp.calibrate_beta(gamma, delta, base.modulus(gamma / 2) / base.total_mass)
                table = mdp.tabulate(mdp.ExpMechParams(base=base, beta=beta, query=query))
                entries.append(_AuditEntry(space, query, dist, table,
                                           em_log_table(weights, beta, dist),
                                           gamma, delta, beta, False))
            # One non-EM table per space, mixed from the EM table at a
            # fixed target per family.
            em = entries[-len(TARGETS) + 2 * s + 1]
            mixed = MIX_SHARE * em.table.probs + (1 - MIX_SHARE) / len(labels)
            entries.append(_AuditEntry(space, query, dist, mdp.MechanismTable(space, space, mixed),
                                       mix_log_table(em.log_probs),
                                       em.gamma, em.delta, em.beta, True))
        self.entries = entries

    def entry(self, k: int) -> _AuditEntry:
        """Table of operation k: the table index within a space cycles
        fastest and the space shifts by one each cycle, so every 44
        operations audit all 44 tables once."""
        per_space = len(self.entries) // len(FAMILIES)
        turn, t = divmod(k, per_space)
        return self.entries[(turn + t) % len(FAMILIES) * per_space + t]

    def op(self, k: int) -> OpResult:
        e = self.entry(k)
        radius = e.gamma / 2
        oracle_probs = np.exp(e.log_probs)
        want_centers = disjoint_centers(e.dist, radius)
        threshold = lower_bound_threshold(oracle_probs, e.dist, want_centers, radius)

        t0 = time.perf_counter()
        priv = mdp.audit_privacy(e.table)
        util = mdp.audit_utility(e.table, e.query, e.gamma)
        centers = mdp.propose_centers(e.query, radius)
        floor = mdp.impossibility_lower_bound(e.table, e.query, centers, radius,
                                              utility_threshold=threshold)
        latency = time.perf_counter() - t0

        check = _Checks()
        bound = 2 * e.query.constant * e.beta
        _eps_checks(check, priv.epsilon_max, bound, oracle_epsilon(e.log_probs, e.dist))
        floor_mass = (MIX_SHARE if e.mixed else 1.0) * (1 - e.delta)
        check("utility_min_mass", util.min_mass >= floor_mass - MASS_TOL)
        check("centers_greedy", centers == [e.space.labels[i] for i in want_centers])
        _floor_checks(check, floor.eps_lower, priv.epsilon_max, bound)
        return OpResult(latency, check.failed, underflowed=underflowed(e.table.probs, e.log_probs),
                        record={
                            "op": k, "gamma": e.gamma, "delta": e.delta, "mixed": e.mixed,
                            "epsilon": rounded(priv.epsilon_max),
                            "witness": list(priv.witness) if priv.witness else None,
                            "min_mass": rounded(util.min_mass),
                            "eps_lower": rounded(floor.eps_lower), "centers": len(centers),
                        })


class CliWorkload(Workload):
    """The JSON pipeline: six CLI commands chained through report files.

    n=40 rather than the 96 of the other workloads: a chain validates its
    spaces 11 times, and at n=40 (about 0.35 s a chain) a run holds enough
    chains for a tail percentile above the median.
    """

    name = "cli"
    default_n = 40
    cycle_s = 22.0

    def setup(self) -> None:
        self.tmp = tempfile.mkdtemp(prefix="cli-", dir=self.scratch)

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def op(self, k: int) -> OpResult:
        family, (gamma, delta) = schedule(k)
        rng = np.random.default_rng([self.seed, k, 3])
        labels, dist = make_space(family, self.n, rng)
        work = tempfile.mkdtemp(prefix=f"op{k}-", dir=self.tmp)
        try:
            return self._chain(k, family, gamma, delta, labels, dist, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)

    def _chain(self, k, family, gamma, delta, labels, dist, work) -> OpResult:
        path = {name: os.path.join(work, name + ".json") for name in
                ("space", "map", "measure", "calib", "table", "privacy", "utility", "floor")}
        space_doc = {"labels": labels, "dist": dist.tolist()}
        _write_json(path["space"], space_doc)
        _write_json(path["map"], {"domain": space_doc, "codomain": space_doc,
                                  "table": {lab: lab for lab in labels}})
        codes = {}
        latency = 0.0

        def invoke(command, *args):
            nonlocal latency
            t0 = time.perf_counter()
            codes[command] = cli.main([command, *map(str, args), "--out", path[_OUT[command]]])
            latency += time.perf_counter() - t0

        invoke("build-measure", "--space", path["space"])
        invoke("calibrate", "--gamma", gamma, "--delta", delta, "--measure", path["measure"])
        beta = _read_json(path["calib"])["result"]["beta"]
        bound = 2 * beta
        invoke("tabulate", "--map", path["map"], "--measure", path["measure"], "--beta", repr(beta))
        invoke("audit-privacy", "--mech", path["table"], "--space", path["space"], "--per-pair",
            "--threshold", repr(bound * (1 + EPS_REL)))
        invoke("audit-utility", "--mech", path["table"], "--map", path["map"], "--gamma", gamma,
            "--threshold", repr(1 - delta - MASS_TOL))
        weights = np.array([_read_json(path["measure"])["result"]["weights"][lab] for lab in labels])
        log_probs = em_log_table(weights, beta, dist)
        radius = gamma / 2
        centers = disjoint_centers(dist, radius)
        threshold = lower_bound_threshold(np.exp(log_probs), dist, centers, radius)
        invoke("lower-bound", "--mech", path["table"], "--map", path["map"],
            "--centers", ",".join(labels[c] for c in centers), "--r", radius,
            "--utility-threshold", repr(threshold))

        check = _Checks()
        for command, code in codes.items():
            check(f"cli_exit_{command.replace('-', '_')}", code == 0)
        tab = _read_json(path["table"])["result"]
        probs = np.array([tab["rows"][lab] for lab in labels])
        check("lipschitz_is_1", tab["lipschitz_c"] == 1.0)
        check("privacy_bound_reported", tab["privacy_bound"] == bound)
        want_beta = (2 / gamma) * math.log(1 / (delta * normalized_modulus(weights, dist, radius)))
        check("beta_calibrated", abs(beta - max(0.0, want_beta)) <= 1e-9 * max(1.0, beta))
        priv = _read_json(path["privacy"])["result"]
        eps = _decode(priv["epsilon_max"])
        _eps_checks(check, eps, bound, oracle_epsilon(log_probs, dist))
        util = _read_json(path["utility"])["result"]
        eps_lower = _decode(_read_json(path["floor"])["result"]["eps_lower"])
        _floor_checks(check, eps_lower, eps, bound)
        return OpResult(latency, check.failed, underflowed=underflowed(probs, log_probs), record={
            "op": k, "family": family, "gamma": gamma, "delta": delta,
            "beta": rounded(beta), "epsilon": rounded(eps), "witness": priv["witness"],
            "min_mass": rounded(util["min_mass"]), "eps_lower": rounded(eps_lower),
        })


_OUT = {"build-measure": "measure", "calibrate": "calib", "tabulate": "table",
        "audit-privacy": "privacy", "audit-utility": "utility", "lower-bound": "floor"}


def _write_json(path, doc) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def _read_json(path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _decode(v) -> float:
    return math.inf if v == "infinity" else float(v)


WORKLOADS = {w.name: w for w in (DesignWorkload, AuditWorkload, CliWorkload)}
