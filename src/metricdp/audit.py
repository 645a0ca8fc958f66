"""Exact privacy, utility, and impossibility audits of mechanism tables.

Everything here works on the finite table itself, so the reported numbers
are exact maxima/minima, not statistical estimates.  A probability is zero
only when it is 0.0; any positive entry, however small, keeps its finite
log.  The privacy audit only needs singleton output sets: for nonnegative
vectors the ratio of set sums never exceeds the largest entrywise ratio
(mediant inequality), so the singleton maximum already dominates every
output set.  Division by a positive distance is monotone, so each input
pair's maximum is one max-plus reduction of log differences divided once,
over blocks of rows that stop at the first infinite maximum: the logs are
held once, transposed, one buffer takes each block's logs from them, the
other rows' are subtracted in place and the reduction writes into the pair
matrix.  An output that no input produces (zero in every row) constrains no
pair, so the sweep reads only the others; its error state and twin mask are
set up once per sweep.  Twins (inputs at distance 0.0) are decided from
their rows, inf where x's row exceeds z's.  The witness output is read from
the chosen pair by the same rule.  Every log is ``_ieee._logs``, fdlibm's
``e_log.c`` (Sun, 1993) as a fixed sequence of numpy ufunc calls written in
place, so the reported bits are the same on every IEEE host, whatever its
libm or SIMD; every ball mass is one fixed-order sum per row,
``measures._mass_inside``.  The codomain rows of a query's images are read
by one in-place rule, ``spaces._image_rows``: the matrix itself for an
identity map's images, a gathered copy for any others, in the utility
audit, the lower bound and the disjoint scan alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._ieee import _logs
from .covering import _disjoint_scan
from .errors import DomainError, StructuralError
from .measures import _mass_inside
from .mechanisms import MechanismTable
from .spaces import _BLOCK_CELLS, LipschitzMap, _image_rows

@dataclass(frozen=True)
class PrivacyAuditReport:
    """Exact privacy level of a table: the smallest epsilon it satisfies.

    ``epsilon_max`` is inf when some output has positive mass under one
    input and zero under another (no finite epsilon works), or when twins
    (inputs at distance 0.0) have different rows: the ordered twin pair
    (x, z) is inf where x's row exceeds z's at some output.  ``witness`` is
    the first (x, z, y) triple in label order attaining the maximum, None
    when there is no constraint at all (single-input spaces); for twins,
    P[x->y] > P[z->y].  ``per_pair_max`` is the optional matrix of per-(x, z)
    maxima in label order: 0 where a pair constrains nothing.  Asking for it
    changes neither ``epsilon_max`` nor ``witness``.
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


def _sweep(mech, lt, stop) -> np.ndarray:
    """Per-pair maxima, -inf for x = z; with ``stop``, rows after the first block
    holding an inf stay at -inf.  It reads one log array, ``lt``, the table's logs of
    the swept outputs transposed to (outputs, n) and contiguous: each block of x rows
    is copied from the view ``lt.T`` into one reused (rows, outputs, n) buffer, ``lt``
    is subtracted in place, and the reduction over y writes into the pair matrix,
    which it divides in place.  The error state and the mask of twins off the diagonal
    are set up once per sweep, the mask before the sweep's arrays and kept only when
    it holds a twin; each block then takes its diagonal, twin and stop steps in that
    order."""
    dist = mech.input_space.dist
    twins = dist == 0.0
    np.fill_diagonal(twins, False)
    if not twins.any():  # the n x n mask outlives the set-up only where there are twins
        twins = None
    (m, n), step = lt.shape, max(1, _BLOCK_CELLS // lt.size)
    pair_max, buf = np.full(dist.shape, -math.inf), np.empty((min(step, n), m, n))
    # A zero numerator entry gives -inf, a zero denominator one inf, both nan (fmax skips
    # it); a near-zero distance overflows the quotient to inf, the exact value.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for r0 in range(0, n, step):
            block = slice(r0, r0 + step)
            top = pair_max[block]
            diff = buf[:len(top)]
            np.copyto(diff, lt.T[block, :, None])
            diff -= lt
            np.fmax.reduce(diff, axis=1, initial=-math.inf, out=top)
            top /= dist[block]
            # x = z constrains nothing.  Twins off the diagonal: inf where x's row exceeds
            # z's at some output, compared as probabilities, since two tiny ones can share
            # a log.
            np.fill_diagonal(top[:, r0:], -math.inf)
            if twins is not None and twins[block].any():  # the gather's fixed cost is not small
                a, b = np.nonzero(twins[block])
                top[a, b] = np.where((mech.probs[a + r0] > mech.probs[b]).any(axis=1), math.inf, -math.inf)
            if stop and (top == math.inf).any():
                break
    return pair_max


def audit_privacy(mech: MechanismTable, include_per_pair: bool = False) -> PrivacyAuditReport:
    """Smallest epsilon the table satisfies, by exhaustive enumeration.

    Fills the matrix of per-pair maxima of (ln rows[x][y] - ln rows[z][y]) / dist(x, z)
    over single outputs y, -inf where a pair constrains nothing: one max-plus reduction
    per pair over blocks of rows, divided once; twins, x = z among them, are inf where
    x's row exceeds z's at some output and -inf where it nowhere does.  One argmax
    gives ``epsilon_max`` and the witness pair; the same rule, run on that pair's rows
    alone, gives its first maximizing output.

    Every log is ``_logs``, read once and held as the contiguous transpose of the
    outputs some input produces, which the sweep and the witness read; an output with
    no mass in any row constrains no pair and is left out, and the witness is mapped
    back to its own output index.  A table with no mass at all keeps every output.
    Both modes run the same reduction; without the matrix it stops after the first
    block of rows holding an inf, and with it the pair matrix is zeroed in place.

    It audits the stored table.  At tiny beta epsilon can pass ``privacy_bound`` by a few
    units of 2**-52 over the least distance, from two errors: ``tabulate`` rounds entries
    to doubles, and ln p - ln q cancels here when two rows are nearly equal.
    """
    # A column whose largest entry is 0.0 gives only nan differences.  With no column
    # left the sweep would have no cells to size its blocks by, so it keeps them all.
    kept = np.flatnonzero(mech.probs.max(axis=0))
    if not kept.size:
        kept = np.arange(mech.probs.shape[1])
    lt = np.ascontiguousarray(mech.logs.T[kept])
    pair_max = _sweep(mech, lt, stop=not include_per_pair)
    space = mech.input_space
    i, j = np.unravel_index(np.argmax(pair_max), pair_max.shape)
    # The chosen pair's first maximizing output, by the sweep's rule for that one pair.
    with np.errstate(over="ignore", invalid="ignore"):
        if space.dist[i, j] == 0.0:
            k = np.argmax(mech.probs[i] > mech.probs[j])
        else:
            k = kept[np.argmax(np.fmax((lt[:, i] - lt[:, j]) / space.dist[i, j], -math.inf))]
    live = pair_max[i, j] > -math.inf
    witness = (space.labels[i], space.labels[j], mech.output_space.labels[k]) if live else None
    epsilon = max(0.0, float(pair_max[i, j]))
    if include_per_pair:  # a pair that constrains nothing reports 0, zeroed in place
        pair_max[pair_max == -math.inf] = 0.0
    return PrivacyAuditReport(epsilon, witness, pair_max if include_per_pair else None)


def _require_query_spaces(mech: MechanismTable, query: LipschitzMap) -> None:
    """The query must map the table's input space to its output space."""
    if query.codomain != mech.output_space:
        raise StructuralError("query codomain does not match the table's output space")
    if query.domain != mech.input_space:
        raise StructuralError("query domain does not match the table's input space")


def audit_utility(mech: MechanismTable, query: LipschitzMap, gamma) -> UtilityAuditReport:
    """Per-input mass inside the closed gamma-ball around the true image; an
    identity map's balls are read from the codomain's matrix in place."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    _require_query_spaces(mech, query)
    masses = _mass_inside(_image_rows(mech.output_space, query.images), gamma, mech.probs)
    worst = int(np.argmin(masses))
    return UtilityAuditReport(gamma=float(gamma), min_mass=float(masses[worst]),
                              worst_input=mech.input_space.labels[worst], per_input_mass=masses)


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
    assumed).  Twin centers share an image, so the overlap check stops them.
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
    space = mech.input_space
    idx = [space.index_of(c) for c in centers]
    rows = _image_rows(mech.output_space, query.images[idx])
    balls = rows <= radius
    # A point in two balls means some pair overlaps; the first such pair
    # with a < b in row-major order is reported.
    if (balls.sum(axis=0) > 1).any():
        for a in range(len(centers) - 1):
            hits = np.flatnonzero((balls[a + 1:] & balls[a]).any(axis=1))
            if hits.size:
                b = a + 1 + int(hits[0])
                raise DomainError(
                    f"target balls around {centers[a]!r} and {centers[b]!r} overlap; "
                    "the disjointness hypothesis fails"
                )

    mass_self = tuple(_mass_inside(rows, radius, mech.probs[idx]).tolist())
    mass_ref = tuple(_mass_inside(rows, radius, mech.probs[idx[0]]).tolist())
    for c, m in zip(centers, mass_self):
        if not m > utility_threshold:
            raise DomainError(
                f"utility hypothesis violated: input {c!r} gives its own ball "
                f"mass {m:g}, not above {utility_threshold:g}"
            )

    rho = space.dist[idx[1:], idx[0]]
    # Own-ball masses exceed the threshold, so only a reference log can be
    # -inf; a near-zero positive rho overflows to the exact infinity.
    with np.errstate(over="ignore"):
        own, ref = _logs([mass_self[1:], mass_ref[1:]])
        values = (own - ref) / rho
    best_i = int(np.argmax(values)) + 1
    return ImpossibilityReport(
        eps_lower=float(values[best_i - 1]),
        witness_index=best_i,
        ball_mass_self=mass_self,
        ball_mass_ref=mass_ref,
    )


def propose_centers(query: LipschitzMap, radius) -> list:
    """Greedy input labels whose image balls form a disjoint family.

    Convenience feeder for :func:`impossibility_lower_bound`: scans the
    domain in label order and keeps an input iff the closed ``radius``-ball
    around its image avoids every ball kept so far.  An identity map's
    balls are scanned in the codomain's matrix in place; any other map's
    rows are gathered first.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    rows = _image_rows(query.codomain, query.images)
    return [query.domain.labels[p] for p in _disjoint_scan(rows, radius)]
