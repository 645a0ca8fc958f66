"""Whole chains on small random spaces, drawn by derandomized ``hypothesis``.

A chain is a domain and a codomain at scale 2^k (|k| <= 6), each a cloud or
a closure from ``conftest.random_space``, a closure with twins or points
near a line, the identity or a random map between them (twins go where
their first twin goes), a random or a covering base, and beta with
beta * scale log-uniform in 10^-3..10^4.  It runs tabulate, both audits,
the lower bound and the document round trip, and checks the paper's
guarantees on what they report:

1. a finite audited epsilon is at most 2*C*beta (McSherry & Talwar;
   ``privacy_bound``), at the drawn and at the calibrated beta;
2. a full-support base gives a finite epsilon: strict xfail until ROADMAP
   item 1's log rows, since ``tabulate`` stores exp(-beta * d) as a
   probability that underflows to 0.0;
3. at the calibrated beta every input keeps mass >= 1 - delta inside its
   closed gamma-ball (the utility theorem);
4. the impossibility floor of the calibrated table is at most its audited
   epsilon;
5. the chain at (2^j * D, 2^-j * beta), |j| <= 30, gives the same table
   bits, epsilon times exactly 2^-j, the same witness, the same masses at
   gamma * 2^j and the calibrated beta times exactly 2^-j; the validation
   verdict should not depend on the unit either, a strict xfail until
   ROADMAP item 27 (an absolute slack rejects the x1000 collinear line);
6. relabeling the points gives the same table and epsilon bits: strict
   xfail until ROADMAP item 19, since the rows are normalized by sums in
   label order;
7. the table that ``sample_many`` realizes, ``conftest.sampler_table`` over
   2^53, audits to a finite epsilon wherever the stored table does: strict
   xfail until ROADMAP item 26 or 31, since 53 random bits never draw an
   entry far below 2^-53;
8. a table, a measure and a space written by ``dump_doc`` and read back
   keep their float bits.

The numbers follow ROADMAP item 30.
Chain scales stop at 2^6 because ``random_space`` matrices start to fail the
absolute ``METRIC_TOL`` above about x100 (ROADMAP item 27); the 2^j
rescaling of invariant 5 skips the rare draw that then fails validation.
"""

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import Phase, assume, given, settings
from hypothesis import strategies as st

from conftest import closure_metric, random_measure, random_space, sampler_table
from metricdp import (
    DiscreteMeasure,
    ExpMechParams,
    FiniteMetricSpace,
    InvalidMetricError,
    LipschitzMap,
    MechanismTable,
    audit_privacy,
    audit_utility,
    covering_measure,
    identity_map,
    impossibility_lower_bound,
    privacy_bound,
    propose_centers,
    tabulate,
    tradeoff_upper_bound,
    validate_metric,
)
from metricdp.formats import (
    dump_doc,
    measure_from_doc,
    measure_to_doc,
    space_from_doc,
    space_to_doc,
    table_from_doc,
    table_to_doc,
)

# A covering base on a space of diameter above 1 warns that its shallow
# levels may need many centers; at these sizes that is expected.
pytestmark = pytest.mark.filterwarnings("ignore:space diameter .* exceeds 1:UserWarning")


@dataclass(frozen=True)
class Chain:
    query: LipschitzMap
    base: DiscreteMeasure
    beta: float
    gamma: float
    delta: float


def twin_closure(rng, n: int, scale: float) -> FiniteMetricSpace:
    """A closure on 2..n-1 points, each of the n points a copy of one of them,
    every one used: a pseudometric in which some points are twins, at 0.0."""
    distinct = int(rng.integers(2, n))
    copies = rng.permutation(np.concatenate([np.arange(distinct), rng.integers(distinct, size=n - distinct)]))
    dist = closure_metric(rng, distinct, scale)
    return FiniteMetricSpace([f"p{i}" for i in range(n)], dist[np.ix_(copies, copies)])


def near_collinear(rng, n: int, scale: float) -> FiniteMetricSpace:
    """Points along a line, gaps in [0.2, 1] * scale / n, each moved off it by
    at most 1e-3 * scale: triangles nearly tight, yet with a slack far above
    the rounding of their sums, so they validate at every 2^j scale."""
    pts = np.column_stack([np.cumsum(rng.uniform(0.2, 1.0, n)) / n, rng.uniform(0.0, 1e-3, n)]) * scale
    diff = pts[:, None, :] - pts[None, :, :]
    return FiniteMetricSpace([f"p{i}" for i in range(n)], np.sqrt((diff * diff).sum(axis=2)))


def twin_map(rng, domain: FiniteMetricSpace, codomain: FiniteMetricSpace) -> LipschitzMap:
    """``conftest.random_map``'s draw, with each point sent where its first
    twin goes, so that a map from a space with twins stays Lipschitz."""
    first = np.argmax(domain.dist == 0.0, axis=1)
    images = rng.integers(len(codomain), size=len(domain))[first]
    return LipschitzMap(domain, codomain, {x: codomain.labels[int(i)] for x, i in zip(domain.labels, images)})


@st.composite
def spaces(draw, rng, scale) -> FiniteMetricSpace:
    make = draw(st.sampled_from((random_space, twin_closure, near_collinear)))
    return make(rng, draw(st.integers(3 if make is twin_closure else 2, 13)), scale)


@st.composite
def chains(draw) -> Chain:
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 2.0 ** draw(st.integers(-6, 6))
    domain = draw(spaces(rng, scale))
    if draw(st.booleans()):
        query = identity_map(domain)
    else:
        query = twin_map(rng, domain, draw(spaces(rng, scale)))
    codomain = query.codomain
    base = covering_measure(codomain)[0] if draw(st.booleans()) else random_measure(rng, codomain)
    return Chain(
        query=query,
        base=base,
        beta=10.0 ** draw(st.floats(-3.0, 4.0)) / scale,
        gamma=draw(st.floats(1.0 / 16, 1.0)) * scale,
        delta=draw(st.floats(0.01, 0.4)),
    )


def table(chain: Chain) -> MechanismTable:
    return tabulate(ExpMechParams(chain.base, chain.beta, chain.query))


def rebuilt(chain: Chain, rebuild, beta, gamma) -> Chain:
    """The chain on ``rebuild(space)`` for each of its spaces (one space for an
    identity map) with the same label table, the same weight at each label,
    and the given beta and gamma."""
    query = chain.query
    domain = rebuild(query.domain)
    codomain = domain if query.codomain is query.domain else rebuild(query.codomain)
    weights = chain.base.as_dict()
    base = DiscreteMeasure(codomain, [weights[y] for y in codomain.labels])
    return Chain(LipschitzMap(domain, codomain, query.table), base, beta, gamma, chain.delta)


def within_bound(epsilon, beta, query) -> bool:
    """Invariant 1 with the slack of ``TestClosedFormBound``: entries rounded
    to doubles put a few units of 2**-52 into each log ratio, which the
    relative slack no longer covers as beta nears 0."""
    rounding = 16 * 2.0**-52 / (query.domain.min_positive_distance() or 1.0)
    return epsilon <= privacy_bound(beta, query.constant) * (1 + 1e-9) + rounding


@settings(max_examples=400, deadline=None, derandomize=True)
@given(chains())
def test_a_chain_keeps_its_guarantees(chain):
    query = chain.query
    epsilon = audit_privacy(tabulate(ExpMechParams(chain.base, chain.beta, query))).epsilon_max
    assert math.isinf(epsilon) or within_bound(epsilon, chain.beta, query)

    beta = tradeoff_upper_bound(chain.base, chain.gamma, chain.delta).beta
    mech = tabulate(ExpMechParams(chain.base, beta, query))
    calibrated = audit_privacy(mech).epsilon_max
    assert math.isinf(calibrated) or within_bound(calibrated, beta, query)
    assert audit_utility(mech, query, chain.gamma).min_mass >= 1.0 - chain.delta

    # Every own-ball mass is at least 1 - delta > 1/2, so the floor's
    # hypotheses hold for any disjoint family of gamma-balls.
    centers = propose_centers(query, chain.gamma)
    if len(centers) >= 2:
        floor = impossibility_lower_bound(mech, query, centers, chain.gamma).eps_lower
        # Each ball mass is a sum of at most 13 entries, whose rounding
        # moves a log ratio by a few units of 2**-52 over the distance.
        rounding = 64 * 2.0**-52 / query.domain.min_positive_distance()
        assert floor <= calibrated * (1 + 1e-9) + rounding

    for to_doc, from_doc, obj, bits in (
        (table_to_doc, lambda doc: table_from_doc(doc, query.domain, query.codomain).probs, mech, mech.probs),
        (measure_to_doc, lambda doc: measure_from_doc(doc).values, chain.base, chain.base.values),
        (space_to_doc, lambda doc: space_from_doc(doc).dist, query.codomain, query.codomain.dist),
    ):
        assert from_doc(json.loads(dump_doc(to_doc(obj)))).tobytes() == bits.tobytes()


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 1: tabulate stores "
                   "probabilities, exp(-beta * d) underflows to 0.0, and the audit reads the exact "
                   "zero as epsilon = inf")
@settings(max_examples=250, deadline=None, derandomize=True, phases=[Phase.generate])
@given(chains())
def test_a_full_support_base_audits_finite(chain):
    assume((chain.base.values > 0.0).all())
    mech = tabulate(ExpMechParams(chain.base, chain.beta, chain.query))
    assert math.isfinite(audit_privacy(mech).epsilon_max)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP items 26 and 31: "
                   "sample_many maps 53 random bits through the float cumsum, so an entry far "
                   "below 2^-53 is never drawn and the realized epsilon is inf")
@settings(max_examples=200, deadline=None, derandomize=True, phases=[Phase.generate])
@given(chains())
def test_the_sampler_realizes_a_finite_epsilon(chain):
    params = ExpMechParams(chain.base, chain.beta, chain.query)
    assume(math.isfinite(audit_privacy(tabulate(params)).epsilon_max))
    realized = MechanismTable(params.input_space, params.output_space, sampler_table(params) / 2.0**53)
    assert math.isfinite(audit_privacy(realized).epsilon_max)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(chains(), st.integers(-30, 30))
def test_a_chain_rescaled_by_a_power_of_two_keeps_its_bits(chain, j):
    try:
        other = rebuilt(chain, lambda space: FiniteMetricSpace(space.labels, np.ldexp(space.dist, j)),
                        math.ldexp(chain.beta, -j), math.ldexp(chain.gamma, j))
    except InvalidMetricError:  # ROADMAP item 27: the slack does not scale with the matrix
        assume(False)
    mech, scaled = table(chain), table(other)
    assert scaled.probs.tobytes() == mech.probs.tobytes()
    report, scaled_report = audit_privacy(mech), audit_privacy(scaled)
    assert scaled_report.epsilon_max == math.ldexp(report.epsilon_max, -j)
    assert scaled_report.witness == report.witness
    masses = audit_utility(mech, chain.query, chain.gamma).per_input_mass
    assert audit_utility(scaled, other.query, other.gamma).per_input_mass.tobytes() == masses.tobytes()
    beta = tradeoff_upper_bound(chain.base, chain.gamma, chain.delta).beta
    assert tradeoff_upper_bound(other.base, other.gamma, other.delta).beta == math.ldexp(beta, -j)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 27: METRIC_TOL is an "
                   "absolute slack, so 300 collinear points 0.1 apart validate and the same points "
                   "x1000 are rejected with 50,368 triangle violations")
def test_a_verdict_does_not_depend_on_the_unit():
    line = np.zeros((300, 2))
    line[:, 0] = 0.1 * np.arange(300)
    verdicts = []
    for pts in (line, 1000.0 * line):
        diff = pts[:, None, :] - pts[None, :, :]
        verdicts.append(validate_metric(np.sqrt((diff * diff).sum(axis=2))).ok)
    assert verdicts == [True, True]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 19: tabulate normalizes "
                   "each row by a sum in label order, so a relabeling moves the table's bits and "
                   "with them epsilon's")
@settings(max_examples=300, deadline=None, derandomize=True, phases=[Phase.generate])
@given(chains(), st.data())
def test_a_relabeled_chain_keeps_its_bits(chain, data):
    def relabeled(space):
        order = data.draw(st.permutations(range(len(space))))
        return FiniteMetricSpace([space.labels[i] for i in order], space.dist[np.ix_(order, order)])

    other = rebuilt(chain, relabeled, chain.beta, chain.gamma)
    mech, moved = table(chain), table(other)
    rows = [mech.input_space.index_of(x) for x in moved.input_space.labels]
    cols = [mech.output_space.index_of(y) for y in moved.output_space.labels]
    assert moved.probs.tobytes() == mech.probs[np.ix_(rows, cols)].tobytes()
    epsilon = np.float64(audit_privacy(mech).epsilon_max)
    assert np.float64(audit_privacy(moved).epsilon_max).tobytes() == epsilon.tobytes()
