"""Acceptance gate: one test per headline guarantee, each printing a
single PASS line with its measured margin.  Every check is exhaustive or
exact; nothing here is statistical except the sampler-fidelity binomial
bands, whose tolerance (5 standard deviations per label) is part of the
stated criterion.
"""

import math
from pathlib import Path

import numpy as np

import metricdp

from conftest import (
    check_em_inequalities,
    random_map,
    random_measure,
    random_space,
    subset_epsilon,
)
from metricdp import (
    DiscreteMeasure,
    ExpMechParams,
    FiniteMetricSpace,
    LipschitzMap,
    MechanismTable,
    audit_privacy,
    audit_utility,
    calibrate_beta,
    covering_measure,
    discrete_space,
    distribution,
    greedy_net,
    grid_space,
    identity_map,
    impossibility_lower_bound,
    level_for_radius,
    max_packing,
    min_database_size,
    positivity_lower_bound,
    privacy_bound,
    sample_many,
    tabulate,
    uniform_measure,
)
from metricdp.cli import DEMO_SPACES


def test_criterion_1_privacy_never_exceeds_twice_c_beta():
    # 200 random instances: exhaustively audited epsilon <= 2*C*beta + 1e-9
    rng = np.random.default_rng(2024)
    worst_gap = -math.inf
    for _ in range(200):
        dom = random_space(rng, int(rng.integers(2, 13)))
        cod = random_space(rng, int(rng.integers(2, 13)))
        query = random_map(rng, dom, cod)
        beta = float(rng.uniform(0.0, 20.0))
        params = ExpMechParams(base=random_measure(rng, cod), beta=beta, query=query)
        eps = audit_privacy(tabulate(params)).epsilon_max
        bound = privacy_bound(beta, query.constant)
        assert eps <= bound + 1e-9, (eps, bound, beta, query.constant)
        worst_gap = max(worst_gap, eps - bound)
    print(f"CRITERION 1 PASS: 200/200 instances, worst eps - 2*C*beta = {worst_gap:.3e}")


def test_criterion_2_calibration_meets_the_utility_target():
    # full (gamma, delta, n) grid with the hierarchical base measure;
    # audited worst-case in-ball mass must reach 1 - delta exactly
    checked = 0
    for n in (3, 5, 9):
        space = grid_space(n)
        base, _ = covering_measure(space)
        query = identity_map(space)
        for gamma in (0.1, 0.25, 0.5, 1.0):
            for delta in (0.01, 0.1, 0.5):
                modulus = base.modulus(gamma / 2.0) / base.total_mass
                beta = calibrate_beta(gamma, delta, modulus)
                mech = tabulate(ExpMechParams(base=base, beta=beta, query=query))
                rep = audit_utility(mech, query, gamma)
                assert rep.min_mass >= 1.0 - delta, (n, gamma, delta, rep.min_mass)
                checked += 1
    print(f"CRITERION 2 PASS: {checked}/36 grid points met min_mass >= 1 - delta")


def test_criterion_3_covering_measure_certificate():
    # every demo space: per-point ball masses beat the certified bound on a
    # 20-radius grid, and total mass equals 1 - 2^-L to 1e-12
    spaces_checked = 0
    for name in sorted(DEMO_SPACES):
        space = DEMO_SPACES[name]()
        measure, hier = covering_measure(space)
        depth = hier.depth
        assert abs(measure.total_mass - (1.0 - 2.0 ** (-depth))) <= 1e-12, name
        for r in np.linspace(2.0 ** (-depth), 1.0, 20):
            assert level_for_radius(float(r)) <= depth
            bound = positivity_lower_bound(hier, float(r))
            assert not bound.truncated
            masses = measure.ball_masses(float(r))
            assert masses.min() >= bound.value, (name, float(r))
        spaces_checked += 1
    print(f"CRITERION 3 PASS: {spaces_checked} spaces x 20 radii certified, "
          "total mass exact to 1e-12")


def test_criterion_4_impossibility_scaling_on_the_discrete_family():
    # every admissible beta forces eps_lower >= ln(N/2), and the exhaustive
    # audit of the same table can never fall below its own lower bound
    cases = 0
    for n in (4, 8, 16, 32):
        space = discrete_space(n)
        query = identity_map(space)
        base = uniform_measure(space)
        beta_floor = math.log(n - 1)  # below this the self-ball mass drops to 1/2
        for beta in np.linspace(beta_floor + 0.05, beta_floor + 5.0, 8):
            mech = tabulate(ExpMechParams(base=base, beta=float(beta), query=query))
            self_mass = float(mech.probs[0, 0])
            assert self_mass > 0.5
            rep = impossibility_lower_bound(mech, query, list(space.labels), 0.5)
            assert rep.eps_lower >= math.log(n / 2.0) - 1e-9, (n, beta, rep.eps_lower)
            assert audit_privacy(mech).epsilon_max >= rep.eps_lower, (n, beta)
            cases += 1
    print(f"CRITERION 4 PASS: {cases} (N, beta) cases, eps_lower >= ln(N/2) and "
          "audit >= eps_lower")


def test_criterion_5_subset_exhaustion_matches_singleton_audit():
    # 50 random instances with |Y| <= 6: the max over all 2^|Y| output sets
    # equals the singleton audit, and both unnormalized inequalities hold.
    # The inequalities assume a short map, so dilate each domain until the
    # query is exactly 1-Lipschitz (the dilated space is validated anew).
    rng = np.random.default_rng(4096)
    worst = 0.0
    for _ in range(50):
        dom = random_space(rng, int(rng.integers(2, 7)))
        cod = random_space(rng, int(rng.integers(2, 7)))
        query = random_map(rng, dom, cod)
        if query.constant > 1.0:
            dom = FiniteMetricSpace(dom.labels, dom.dist * query.constant)
            query = LipschitzMap(dom, cod, dict(query.table))
        assert query.constant <= 1.0 + 1e-12
        params = ExpMechParams(base=random_measure(rng, cod),
                               beta=float(rng.uniform(0.0, 6.0)),
                               query=query)
        mech = tabulate(params)
        full = subset_epsilon(mech)
        singleton = audit_privacy(mech).epsilon_max
        assert abs(full - singleton) <= 1e-9, (full, singleton)
        worst = max(worst, abs(full - singleton))
        for x in dom.labels:
            for z in dom.labels:
                assert check_em_inequalities(params, x, z).ok, (x, z)
    print(f"CRITERION 5 PASS: 50/50 instances, worst |subset - singleton| = {worst:.3e}")


def test_criterion_6_net_packing_duality():
    # greedy nets cover at radius r, their centers pack at r/2, and the net
    # size equals the greedy half-radius packing size
    rng = np.random.default_rng(616)
    for trial in range(100):
        space = random_space(rng, int(rng.integers(2, 13)))
        r = float(rng.uniform(0.05, 1.2)) * space.diameter()
        net = greedy_net(space, r)
        idx = [space.index_of(c) for c in net]
        covered = (space.dist[:, idx] <= r + 1e-12).any(axis=1)
        assert covered.all(), trial
        half = r / 2.0
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                overlap = (space.dist[idx[a]] <= half) & (space.dist[idx[b]] <= half)
                assert not overlap.any(), trial
        assert len(net) == len(max_packing(space, half)), trial
    print("CRITERION 6 PASS: 100/100 random metrics, cover + packing + size equality")


def test_criterion_7_database_size_arithmetic():
    # anchor value, then exact integer agreement with an independent ceiling
    # computation across a 10-point epsilon grid, with halving doubling N
    assert min_database_size(0.1, 1.0, 0.5, 1.0) == 28
    assert min_database_size(0.05, 1.0, 0.5, 1.0) == 56
    eps_star = 2.0 * calibrate_beta(1.0, 0.5, 1.0)  # 4 ln 2
    checked = 0
    for j in range(1, 11):
        eps = eps_star / (j + 0.6)
        expected = math.ceil(eps_star / eps)
        n = min_database_size(eps, 1.0, 0.5, 1.0)
        assert n == expected == j + 1, (j, n, expected)
        assert min_database_size(eps / 2.0, 1.0, 0.5, 1.0) == 2 * n, j
        checked += 1
    print(f"CRITERION 7 PASS: anchor 28 and {checked}/10 grid points with exact doubling")


def test_criterion_8_sampler_fidelity():
    # three fixed instances: 1e5 seeded draws per input stay within 5
    # binomial standard deviations of the exact pmf on every label, and
    # identical seeds reproduce identical outputs
    instances = [
        (grid_space(3), uniform_measure(grid_space(3)), 1.0),
        (grid_space(5), covering_measure(grid_space(5))[0], 2.5),
        (discrete_space(4), uniform_measure(discrete_space(4)), math.log(6.0)),
    ]
    count = 100_000
    worst_sigma = 0.0
    for k, (space, base, beta) in enumerate(instances):
        params = ExpMechParams(base=base, beta=beta, query=identity_map(space))
        for i, x in enumerate(space.labels):
            seed = 7_000 + 97 * k + i
            draws = sample_many(params, x, seed=seed, count=count)
            assert draws == sample_many(params, x, seed=seed, count=count)
            probs = distribution(params, x)
            counts = {lab: 0 for lab in space.labels}
            for lab in draws:
                counts[lab] += 1
            for lab, p in zip(space.labels, probs):
                if p == 0.0:
                    assert counts[lab] == 0
                    continue
                sigma = math.sqrt(count * p * (1.0 - p))
                dev = abs(counts[lab] - count * p)
                limit = 5.0 * sigma if sigma > 0 else 0.0
                assert dev <= limit, (k, x, lab, dev, limit)
                if sigma > 0:
                    worst_sigma = max(worst_sigma, dev / sigma)
    print(f"CRITERION 8 PASS: 3 instances x all inputs x 1e5 draws, "
          f"worst deviation {worst_sigma:.2f} sigma")


def test_readme_quick_start_runs_on_the_public_api(capsys):
    # The README's library example runs as printed, and every exported name
    # exists, so a name deleted from the library cannot linger in either.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    scope = {}
    exec(compile(block, "README.md", "exec"), scope)
    epsilon, min_mass = map(float, capsys.readouterr().out.split())
    assert epsilon <= privacy_bound(scope["beta"], 1.0)
    assert min_mass >= 1 - scope["delta"]
    missing = [name for name in metricdp.__all__ if not hasattr(metricdp, name)]
    assert not missing
    print(f"README PASS: quick start runs, epsilon {epsilon:.4g}, "
          f"{len(metricdp.__all__)} exported names resolve")
