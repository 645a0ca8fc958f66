"""Exact privacy, utility, and impossibility audits of mechanism tables.

Everything here works on the finite table itself, so the reported numbers
are exact maxima/minima, not statistical estimates.  A probability is zero
only when it is 0.0; any positive entry, however small, keeps its finite
log.  The privacy audit only needs singleton output sets: for nonnegative
vectors the ratio of set sums never exceeds the largest entrywise ratio
(mediant inequality), so the singleton maximum already dominates every
output set.  Division by a positive distance is monotone, so each input
pair's maximum is one max-plus reduction of log differences divided once,
over blocks of rows that stop at the first infinite maximum; the pairs it
cannot take go output by output through ``_pair_ratios``.  np.log picks the
pairs that can hold the maximum and math.log sets every reported bit: the
reduction runs first on np.log, assumed within ``_SCREEN_ERR`` (2**-40,
relative) of math.log, then on math.log over the rows that bound cannot
rule out; a kept entry past it sends the audit to math.log of the table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .covering import _disjoint_scan
from .errors import DomainError, StructuralError
from .mechanisms import MechanismTable
from .spaces import _BLOCK_CELLS, LipschitzMap

# A nonzero log difference is at least 2**-106, so over at most _BULK_MAX_DIST
# it does not round to zero.
_BULK_MAX_DIST = 2.0**900

# The privacy screen assumes np.log within _SCREEN_ERR relative of math.log (hosts
# measured differ by one ulp at most); a pair's screened value is then within
# _SCREEN_SLACK times its rows' largest |log|s (at least 1 each) over its distance.
_SCREEN_ERR = 2.0**-40
_SCREEN_SLACK = 2.0**-38


@dataclass(frozen=True)
class PrivacyAuditReport:
    """Exact privacy level of a table: the smallest epsilon it satisfies.

    ``epsilon_max`` is inf when some output has positive mass under one
    input and zero under another (no finite epsilon works), or when twins
    (inputs at distance 0.0) have different rows.  ``witness`` is the
    first (x, z, y) triple in label order attaining the maximum, None when
    there is no constraint at all (single-input spaces).  ``per_pair_max``
    is the optional matrix of per-(x, z) maxima in label order: 0 where a
    pair constrains nothing, inf where twins' rows differ.  Asking for it
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


def _logs(probs) -> np.ndarray:
    """Entrywise math.log (np.log can differ by an ulp, and the audits must
    be reproducible to the bit), once per distinct value in chunks whose sort
    fits in a block: -inf exactly at 0.0, a subnormal entry keeps its finite log."""
    probs = np.asarray(probs, dtype=float)
    flat, logs, chunk = probs.ravel(), np.empty(probs.size), _BLOCK_CELLS // 8
    for c0 in range(0, flat.size, chunk):
        values, where = np.unique(flat[c0:c0 + chunk], return_inverse=True)
        exact, live = np.full(values.size, -math.inf), values != 0.0
        exact[live] = list(map(math.log, values[live].tolist()))
        logs[c0:c0 + chunk] = exact[where]
    return logs.reshape(probs.shape)


def _screen_logs(probs) -> np.ndarray:
    """np.log of the table; math.log at subnormal entries, which a vector log may
    flush to -inf, so that exactly the 0.0 entries are -inf."""
    with np.errstate(divide="ignore"):
        logs = np.log(probs)
    tiny = (probs > 0.0) & (probs < np.finfo(float).tiny)
    logs[tiny] = _logs(probs[tiny])
    return logs


def _pair_ratios(mech, logs, i, j) -> np.ndarray:
    """Ratios of the pairs (i[p], j[p]), output by output: -inf where the numerator's entry
    is 0.0, else inf where the denominator's is; for twins or i = j, inf where rows differ."""
    rho = mech.input_space.dist[i, j][:, None]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ratio = (logs[i] - logs[j]) / rho
    ratio[logs[j] == -math.inf] = math.inf
    ratio[logs[i] == -math.inf] = -math.inf
    return np.where(rho == 0.0, np.where(mech.probs[i] != mech.probs[j], math.inf, -math.inf), ratio)


def _sweep(mech, logs, rows, stop) -> np.ndarray:
    """Per-pair maxima among ``rows`` (ascending indices, or a slice), -inf for x = z;
    with ``stop``, rows after the first block holding an inf stay at -inf."""
    index, dist, lx = np.arange(len(logs))[rows], mech.input_space.dist[rows][:, rows], logs[rows]
    lt, pair_max = np.ascontiguousarray(lx.T), np.full(dist.shape, -math.inf)
    step = max(1, _BLOCK_CELLS // lx.size)
    for r0 in range(0, len(lx), step):
        block = slice(r0, r0 + step)
        # A zero numerator entry gives -inf, a zero denominator one inf, both nan (fmax
        # skips it); a near-zero distance overflows the quotient to inf, the exact value.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            top = np.fmax.reduce(lx[block, :, None] - lt, axis=1, initial=-math.inf)
            pair_max[block] = top / dist[block]
        a, b = np.nonzero((dist[block] == 0.0) | (dist[block] > _BULK_MAX_DIST))
        a, b = a[a + r0 != b] + r0, b[a + r0 != b]
        if a.size:  # the first maximum, as np.max may prefer 0.0 to an earlier -0.0
            ratio = _pair_ratios(mech, logs, index[a], index[b])
            pair_max[a, b] = ratio[np.arange(a.size), ratio.argmax(axis=1)]
        if stop and (pair_max[block] == math.inf).any():
            break
    np.fill_diagonal(pair_max, -math.inf)
    return pair_max


def _screen(mech):
    """(logs, pair maxima) whose argmax is the witness pair: a pair is kept when its np.log
    value plus its slack reaches the best value minus the best pair's slack, and the kept
    pairs' rows get math.log.  None where the screen cannot decide."""
    logs = _screen_logs(mech.probs)
    pair_max = _sweep(mech, logs, slice(None), stop=True)
    at = np.argmax(pair_max)
    best, (x, z) = pair_max.flat[at], divmod(at, len(logs))
    if best == -math.inf:  # no pair constrains anything
        return None
    size = np.max(np.abs(logs), axis=1, initial=1.0, where=logs > -math.inf) * _SCREEN_SLACK
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        floor = best - (size[x] + size[z]) / mech.input_space.dist[x, z] if best < math.inf else best
        keep = np.add.outer(size, size) / mech.input_space.dist + pair_max >= floor
        keep.flat[at + 1:] &= best < math.inf  # the first exact inf is at or before the screen's
        rows = np.flatnonzero(keep.any(axis=0) | keep.any(axis=1))
        exact = _logs(mech.probs[rows])
        if (np.abs(exact - logs[rows]) > _SCREEN_ERR * np.abs(exact)).any():
            return None
    if not np.array_equal(exact, logs[rows]):
        logs[rows] = exact
        pair_max.fill(-math.inf)
        pair_max[np.ix_(rows, rows)] = _sweep(mech, logs, rows, stop=True)
    i, j = np.unravel_index(np.argmax(pair_max), pair_max.shape)
    if best == math.inf and not (pair_max[i, j] == math.inf and keep[i, j]):
        return None  # the screen's inf does not hold up
    return logs, pair_max


def audit_privacy(mech: MechanismTable, include_per_pair: bool = False) -> PrivacyAuditReport:
    """Smallest epsilon the table satisfies, by exhaustive enumeration.

    Fills the matrix of per-pair maxima of (ln rows[x][y] - ln rows[z][y]) / dist(x, z)
    over single outputs y, -inf where a pair constrains nothing: one max-plus reduction
    per pair over blocks of rows, divided once, -inf for x = z, and ``_pair_ratios`` for
    twins and distances beyond ``_BULK_MAX_DIST``.  One argmax gives ``epsilon_max`` and
    the witness pair, whose first maximizing output ``_pair_ratios`` finds.

    np.log picks the pairs and math.log sets every reported bit.  Without the per-pair
    matrix a screen runs the reduction on np.log, stopping after the first block of rows
    holding an inf; then math.log, once per distinct value, redoes only the rows of pairs
    that np.log within ``_SCREEN_ERR`` = 2**-40 relative of math.log lets reach the top.
    A kept entry past that bound, or a screen inf that does not hold, falls back to
    math.log of the whole table, as the per-pair matrix always takes.

    It audits the stored table.  At tiny beta epsilon can pass ``privacy_bound`` by a few
    units of 2**-52 over the least distance, from two errors: ``tabulate`` rounds entries
    to doubles, and ln p - ln q cancels here when two rows are nearly equal.
    """
    found = None if include_per_pair else _screen(mech)
    if found is None:
        logs = _logs(mech.probs)
        found = logs, _sweep(mech, logs, slice(None), stop=not include_per_pair)
    logs, pair_max = found
    space = mech.input_space
    i, j = np.unravel_index(np.argmax(pair_max), pair_max.shape)
    k = np.argmax(_pair_ratios(mech, logs, [i], [j])[0])
    live = pair_max[i, j] > -math.inf
    witness = (space.labels[i], space.labels[j], mech.output_space.labels[k]) if live else None
    per_pair = np.where(pair_max > -math.inf, pair_max, 0.0) if include_per_pair else None
    return PrivacyAuditReport(max(0.0, float(pair_max[i, j])), witness, per_pair)


def _require_query_spaces(mech: MechanismTable, query: LipschitzMap) -> None:
    """The query must map the table's input space to its output space."""
    if query.codomain != mech.output_space:
        raise StructuralError("query codomain does not match the table's output space")
    if query.domain != mech.input_space:
        raise StructuralError("query domain does not match the table's input space")


def audit_utility(mech: MechanismTable, query: LipschitzMap, gamma) -> UtilityAuditReport:
    """Per-input mass inside the closed gamma-ball around the true image."""
    if not gamma >= 0:
        raise ValueError(f"gamma must be nonnegative, got {gamma}")
    _require_query_spaces(mech, query)
    inside = mech.output_space.dist[query.images] <= gamma
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
    balls = mech.output_space.dist[query.images[idx]] <= radius
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

    rows = mech.probs[idx]
    mass_self = tuple(float(rows[i][balls[i]].sum()) for i in range(len(centers)))
    mass_ref = tuple(float(rows[0][balls[i]].sum()) for i in range(len(centers)))
    for c, m in zip(centers, mass_self):
        if not m > utility_threshold:
            raise DomainError(
                f"utility hypothesis violated: input {c!r} gives its own ball "
                f"mass {m:g}, not above {utility_threshold:g}"
            )

    rho = space.dist[idx[1:], idx[0]]
    # Own-ball masses exceed the threshold, so their logs are finite as they
    # are; a near-zero positive rho overflows to the exact infinity.
    with np.errstate(over="ignore"):
        values = (np.array(list(map(math.log, mass_self[1:]))) - _logs(mass_ref[1:])) / rho
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
    around its image avoids every ball kept so far.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    labels = query.domain.labels
    return [labels[p] for p in _disjoint_scan(query.codomain, query.images, radius)]
