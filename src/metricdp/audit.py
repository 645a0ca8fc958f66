"""Exact privacy, utility, and impossibility audits of mechanism tables.

Everything here works on the finite table itself, so the reported numbers
are exact maxima/minima, not statistical estimates.  The privacy audit
only needs singleton output sets: for nonnegative vectors the ratio of
set sums never exceeds the largest entrywise ratio (mediant inequality),
so the singleton maximum already dominates every output set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import _disjoint_scan
from .errors import DomainError, StructuralError
from .mechanisms import MechanismTable
from .spaces import LipschitzMap

# Probabilities at or below this are treated as exact zeros in log-ratio
# audits; a set both rows give zero mass imposes no constraint at all.
PROB_FLOOR = 1e-300


@dataclass(frozen=True)
class PrivacyAuditReport:
    """Exact privacy level of a table: the smallest epsilon it satisfies.

    ``epsilon_max`` is inf when some output has positive mass under one
    input and zero under another (no finite epsilon works), or when two
    zero-distance inputs have different rows.  ``witness`` is the first
    (x, z, y) triple in label order attaining the maximum, None when
    there is no constraint at all (single-input spaces).
    ``per_pair_max`` is the optional matrix of per-(x, z) maxima in label
    order: 0 where a pair constrains nothing, inf where zero-distance
    rows differ.  Asking for it changes neither ``epsilon_max`` nor
    ``witness``.
    """

    epsilon_max: float
    witness: tuple | None
    per_pair_max: np.ndarray | None = None


@dataclass(frozen=True)
class UtilityAuditReport:
    """Worst-case in-ball mass at radius ``gamma``.

    The mechanism achieves the (gamma, delta) target exactly when
    1 - min_mass <= delta.
    """

    gamma: float
    min_mass: float
    worst_input: object
    per_input_mass: np.ndarray


def audit_privacy(mech: MechanismTable, include_per_pair: bool = False) -> PrivacyAuditReport:
    """Smallest epsilon the table satisfies, by exhaustive enumeration.

    Maximizes (ln rows[x][y] - ln rows[z][y]) / dist(x, z) over ordered
    input pairs and single output labels.  A pair at distance zero gives
    an infinite ratio at every output where its rows differ and none
    elsewhere.  Without the per-pair matrix the audit stops after the
    first row whose maximum is infinite.
    """
    space = mech.input_space
    labels = space.labels
    out_labels = mech.output_space.labels
    n = len(labels)
    probs = mech.probs
    per_pair = np.zeros((n, n)) if include_per_pair else None
    # math.log, not np.log: the two differ by an ulp on some inputs, and
    # the audit must be reproducible to the bit.  Floored entries get the
    # placeholder ln 1, and zero distances the placeholder 1.0; the masks
    # below overwrite every ratio either one touches.
    floored = probs <= PROB_FLOOR
    logs = np.array(list(map(math.log, np.where(floored, 1.0, probs).ravel().tolist())))
    logs = logs.reshape(probs.shape)
    zero = space.dist == 0.0
    dist = np.where(zero, 1.0, space.dist)
    others = ~np.eye(n, dtype=bool)

    eps_max = 0.0
    witness = None
    # A near-zero distance overflows its quotients to inf, the exact value.
    with np.errstate(over="ignore"):
        for i in range(n):
            js = np.flatnonzero(others[i])
            # ratio[r, k] = (ln probs[i, k] - ln probs[js[r], k]) / dist[i, js[r]]:
            # infinite where the denominator's entry is floored, and never
            # binding (-inf) where the numerator's is.  A zero-distance pair
            # is infinite wherever the rows differ and never binding elsewhere.
            ratio = (logs[i] - logs[js]) / dist[i, js][:, None]
            ratio[floored[js]] = math.inf
            ratio[:, floored[i]] = -math.inf
            twins = zero[i, js]
            ratio[twins] = np.where(probs[js[twins]] != probs[i], math.inf, -math.inf)
            best_k = ratio.argmax(axis=1)
            pair_max = ratio[np.arange(js.size), best_k]
            # A pair whose every ratio is -inf constrains nothing.
            rows = np.flatnonzero(pair_max > -math.inf)
            if per_pair is not None:
                per_pair[i, js[rows]] = pair_max[rows]
            if rows.size:
                r = rows[np.argmax(pair_max[rows])]
                if witness is None or pair_max[r] > eps_max:
                    eps_max = float(pair_max[r])
                    witness = (labels[i], labels[int(js[r])], out_labels[int(best_k[r])])
            if eps_max == math.inf and per_pair is None:
                break
    return PrivacyAuditReport(max(eps_max, 0.0), witness, per_pair)


def _require_query_spaces(mech: MechanismTable, query: LipschitzMap) -> None:
    """The query must map the table's input space to its output space."""
    if query.codomain != mech.output_space:
        raise StructuralError("query codomain does not match the table's output space")
    if query.domain != mech.input_space:
        raise StructuralError("query domain does not match the table's input space")


def audit_utility(mech: MechanismTable, query: LipschitzMap, gamma) -> UtilityAuditReport:
    """Per-input mass inside the closed gamma-ball around the true image."""
    if gamma < 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    _require_query_spaces(mech, query)
    images = [query.image_index(x) for x in mech.input_space.labels]
    inside = mech.output_space.dist[images] <= gamma
    masses = np.array([row[mask].sum() for row, mask in zip(mech.probs, inside)])
    worst = int(np.argmin(masses))
    return UtilityAuditReport(
        gamma=float(gamma),
        min_mass=float(masses[worst]),
        worst_input=mech.input_space.labels[worst],
        per_input_mass=masses,
    )


@dataclass(frozen=True)
class ImpossibilityReport:
    """Privacy floor extracted from disjoint well-served balls.

    ``eps_lower``: no epsilon below this is consistent with the table.
    ``witness_index`` indexes into the supplied centers list; the first
    center is the reference input, so the witness is always >= 1.
    ``ball_mass_self[i]`` / ``ball_mass_ref[i]`` are the i-th ball's mass
    under its own center's row and under the reference row.
    """

    eps_lower: float
    witness_index: int
    ball_mass_self: tuple
    ball_mass_ref: tuple


def impossibility_lower_bound(
    mech: MechanismTable,
    query: LipschitzMap,
    centers,
    radius,
    utility_threshold: float = 0.5,
) -> ImpossibilityReport:
    """Lower-bound the privacy level of any table that serves each of k
    disjoint target balls with mass above ``utility_threshold``.

    With reference input x1 = centers[0], the reference row spreads at
    most total mass 1 over the disjoint balls, so some ball B_i gets
    little of it while x_i's own row gives it more than the threshold;
    the log-ratio over dist(x_i, x1) is then forced up.  With k balls the
    pigeonhole gives at least ln(k * threshold) / diameter; the returned
    value is the exact per-instance maximum, normalized by the actual
    pair distance rather than the diameter.

    ``utility_threshold`` defaults to the classical 1/2.  Raising or
    lowering it rescales the guaranteed floor to ln(k * threshold); the
    check and the returned maximum are otherwise unchanged.

    Raises StructuralError if ``query`` does not map the table's input
    space to its output space, and DomainError if the balls are not
    pairwise disjoint or some center's ball mass is not above the
    threshold (the hypothesis of the argument, validated rather than
    assumed).
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if not 0 < utility_threshold < 1:
        raise ValueError(f"utility threshold must be in (0, 1), got {utility_threshold}")
    centers = list(centers)
    if len(centers) < 2:
        raise ValueError("need at least two centers (one reference, one challenger)")
    if len(set(centers)) != len(centers):
        raise DomainError("centers must be distinct")
    _require_query_spaces(mech, query)
    out = mech.output_space
    space = mech.input_space

    balls = np.array([out.ball_mask(query.image_index(c), radius) for c in centers])
    # shared[a, b] counts the points balls a and b have in common; the
    # first overlapping pair with a < b in row-major order is reported.
    shared = balls.astype(float) @ balls.T.astype(float)
    overlaps = np.argwhere(np.triu(shared, 1) > 0)
    if overlaps.size:
        a, b = overlaps[0]
        raise DomainError(
            f"target balls around {centers[a]!r} and {centers[b]!r} overlap; "
            "the disjointness hypothesis fails"
        )

    idx = [space.index_of(c) for c in centers]
    rows = mech.probs[idx]
    mass_self = tuple(float(rows[i][balls[i]].sum()) for i in range(len(centers)))
    mass_ref = tuple(float(rows[0][balls[i]].sum()) for i in range(len(centers)))
    for c, m in zip(centers, mass_self):
        if not m > utility_threshold:
            raise DomainError(
                f"utility hypothesis violated: input {c!r} gives its own ball "
                f"mass {m:g}, not above {utility_threshold:g}"
            )

    best = -math.inf
    best_i = None
    for i in range(1, len(centers)):
        rho = float(space.dist[idx[i], idx[0]])
        if rho <= 0.0:
            raise DomainError(
                f"centers {centers[i]!r} and {centers[0]!r} are at input distance 0 "
                "yet target disjoint balls; the table cannot be a Lipschitz image"
            )
        if mass_ref[i] <= PROB_FLOOR:
            value = math.inf
        else:
            value = (math.log(mass_self[i]) - math.log(mass_ref[i])) / rho
        if value > best:
            best = value
            best_i = i
    return ImpossibilityReport(
        eps_lower=best,
        witness_index=best_i,
        ball_mass_self=mass_self,
        ball_mass_ref=mass_ref,
    )


def propose_centers(query: LipschitzMap, radius) -> list:
    """Greedy input labels whose image balls form a disjoint family.

    Convenience feeder for :func:`impossibility_lower_bound`: scans the
    domain in label order and keeps an input iff the closed ``radius``-ball
    around its image avoids every ball kept so far.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    labels = query.domain.labels
    images = [query.image_index(x) for x in labels]
    return [labels[p] for p in _disjoint_scan(query.codomain, images, radius)]
