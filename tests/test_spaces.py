import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import MATRIX_ENTRIES, cloud_metric, closure_metric, random_space
from metricdp import (
    METRIC_TOL,
    FiniteMetricSpace,
    InvalidMetricError,
    LipschitzMap,
    MetricValidationReport,
    NotLipschitzError,
    StructuralError,
    UnknownLabelError,
    discrete_space,
    grid_space,
    identity_map,
    lipschitz_constant,
    validate_metric,
)
from metricdp import formats, spaces
from metricdp.spaces import _BLOCK_CELLS


class TestValidateMetric:
    def test_valid_grid_passes(self):
        report = validate_metric(grid_space(4).dist)
        assert report.ok
        assert report.violations == ()

    def test_negative_entry(self):
        report = validate_metric([[0, -1], [-1, 0]])
        assert not report.ok
        assert {v.axiom for v in report.violations} == {"nonnegativity"}
        assert report.violations[0].witness == (0, 1)

    def test_nonzero_diagonal(self):
        report = validate_metric([[0.5, 1], [1, 0]])
        axioms = [v.axiom for v in report.violations]
        assert "zero_diagonal" in axioms
        diag = next(v for v in report.violations if v.axiom == "zero_diagonal")
        assert diag.witness == (0,)

    def test_asymmetry(self):
        report = validate_metric([[0, 1], [2, 0]])
        sym = next(v for v in report.violations if v.axiom == "symmetry")
        assert sym.witness == (0, 1)

    def test_triangle_violation_names_the_triple(self):
        # dist[0][2] = 5 but the path through 1 costs 2
        report = validate_metric([[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        tri = [v for v in report.violations if v.axiom == "triangle"]
        assert tri
        assert (0, 2, 1) in [v.witness for v in tri]
        assert "via 1" in tri[0].detail

    def test_all_violations_reported_not_just_first(self):
        report = validate_metric([[1, -1], [-1, 1]])
        assert len(report.violations) >= 3  # two diagonal, at least one negative

    def test_tolerance_absorbs_float_noise(self):
        d = np.array(grid_space(3).dist)
        d = d + np.where(np.eye(3, dtype=bool), 0.0, 1e-14)
        assert validate_metric(d).ok

    def test_pseudometric_is_accepted(self):
        # distinct points at distance 0 violate no axiom checked here
        assert validate_metric([[0, 0], [0, 0]]).ok

    def test_non_square_is_structural(self):
        with pytest.raises(StructuralError):
            validate_metric([[0, 1]])

    def test_non_finite_is_structural(self):
        with pytest.raises(StructuralError):
            validate_metric([[0, np.inf], [np.inf, 0]])

    def test_non_numeric_is_structural(self):
        with pytest.raises(StructuralError):
            validate_metric([["a", "b"], ["c", "d"]])
        # A space converts its matrix before it compares the label count.
        with pytest.raises(StructuralError, match="not a numeric matrix"):
            FiniteMetricSpace(["a", "b", "c"], [["a", "b"], ["c", "d"]])

    def test_fuzz_random_metrics_validate(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 10))
            make = cloud_metric if rng.integers(2) == 0 else closure_metric
            assert validate_metric(make(rng, n)).ok

    def test_peak_memory_is_one_copy_and_a_tile(self):
        """Each path has its own allowance.  A cloud is certified from its
        coordinates and never copied whole: the coordinate columns and two
        row-block buffers stay under 2 MB (1.19 MB at n=600 and at n=1000).
        The closure metric is not Euclidean: its certificate stops at the
        first row block, and it takes the pass, which holds one float copy
        of the matrix and one tile buffer beside the sign check's boolean
        mask (3.99 of the 4.29 MB allowed at n=600).  The per-point slabs
        the pass replaced peaked at 6.9 MB, about 2.4 copies."""
        for make, n in ((cloud_metric, 600), (cloud_metric, 1000), (closure_metric, 600)):
            d = make(np.random.default_rng(5), n)
            tracemalloc.start()
            try:
                assert validate_metric(d).ok
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            bound = 2e6 if make is cloud_metric else (n * n + _BLOCK_CELLS) * 8 + n * n
            assert peak <= bound, (make.__name__, n)

    @pytest.mark.parametrize("case", ["violation", "in-band twin", "twin with a violation"])
    def test_peak_memory_on_the_error_paths(self, case):
        """Input that is not exactly symmetric, or that takes the report
        slab, holds at most one float copy, one tile buffer and one n x n
        boolean mask: 4.29 MB at n=600.  The pass peaks at 4.0 MB; a
        transposed copy beside the diagonal-masked one peaked at 6.9 MB."""
        n = 600
        d = cloud_metric(np.random.default_rng(5), n)
        if case != "violation":
            upper = np.triu_indices(n, 1)
            d[upper] = np.nextafter(d[upper], math.inf)
        if case != "in-band twin":
            d[3, 7] *= 3.0
            d[7, 3] *= 3.0
        tracemalloc.start()
        try:
            report = validate_metric(d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok == (case == "in-band twin")
        assert peak <= (n * n + _BLOCK_CELLS) * 8 + n * n

    @pytest.mark.parametrize("family", ["planar", "near-equilateral"])
    def test_decided_without_the_pass_means_no_float_copy(self, family):
        """A C-ordered matrix that the certificate or the near-equilateral
        rule decides is never copied whole: besides the boolean sign mask
        it holds row-block temporaries and the certificate's coordinates,
        1.2 and 1.05 MB at n=1000.  Building the 8 MB lower envelope before
        the rule ran peaked at 9.2 and 8.0 MB."""
        n = 1000
        rng = np.random.default_rng(1000)
        if family == "planar":
            pts = rng.uniform(size=(n, 2))
            diff = pts[:, None, :] - pts[None, :, :]
            mat = np.sqrt((diff * diff).sum(axis=2))
            del diff
        else:
            mat = np.triu(rng.uniform(0.6, 1.0, size=(n, n)), 1)
            mat += mat.T
        tracemalloc.start()
        try:
            report = validate_metric(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.ok and mat.flags.c_contiguous
        assert report.certified_by == ("euclidean" if family == "planar" else family)
        assert peak < 4e6

    def test_a_strided_view_is_read_a_block_at_a_time(self):
        """The near-equilateral rule reads the least off-diagonal entry a
        row block at a time for any strides, so a view that is neither C-
        nor Fortran-ordered is not copied whole: 1.05 MB at n=1000, as
        C-ordered.  Reading it through a flattened copy peaked at 8.07 MB."""
        n = 1000
        mat = np.triu(np.random.default_rng(1000).uniform(0.6, 1.0, size=(n, n)), 1)
        mat += mat.T
        wide = np.zeros((n, 2 * n))
        wide[:, ::2] = mat
        view = wide[:, ::2]
        assert not (view.flags.c_contiguous or view.flags.f_contiguous)
        tracemalloc.start()
        try:
            report = validate_metric(view)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report == validate_metric(mat) and report.ok
        assert peak <= 2e6

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_large_cloud_returns_with_its_scaled_gap(self, seed):
        # Past 24 points the gap shrinks as 24/n, so this takes a few draws.
        d = cloud_metric(np.random.default_rng(seed), 400, scale=2.0)
        assert d[~np.eye(400, dtype=bool)].min() >= 0.03 * 2.0 * 24 / 400


class TestCertifiedBy:
    """The report and the space name the path that decided the triangle
    check; each family takes the path its shape allows."""

    @staticmethod
    def families(n):
        """{family: (matrix, path)}, perfbench's four families of diameter 1
        (pseudo: a third of the planar points repeated, then shuffled) and an
        ℓ1 grid graph, which is neither near-equilateral nor Euclidean."""
        rng = np.random.default_rng(n)

        def planar(pts):
            diff = pts[:, None, :] - pts[None, :, :]
            dist = np.sqrt((diff * diff).sum(axis=2))
            return dist / dist.max()

        distinct = (2 * n) // 3
        pts = rng.uniform(size=(distinct, 2))
        pseudo = rng.permutation(np.vstack([pts, pts[rng.integers(distinct, size=n - distinct)]]))
        line = rng.permutation(n) / (n - 1)
        x, y = np.divmod(np.arange(n), 8)
        return {"discrete": (np.ones((n, n)) - np.eye(n), "near-equilateral"),
                "planar": (planar(rng.uniform(size=(n, 2))), "euclidean"),
                "1-D grid": (np.abs(line[:, None] - line[None, :]), "euclidean"),
                "pseudo": (planar(pseudo), "euclidean"),
                "l1 grid graph": ((np.abs(x[:, None] - x) + np.abs(y[:, None] - y)).astype(float), "tiled")}

    @pytest.mark.parametrize("n", [24, 96])
    def test_each_family_names_its_path(self, n, tmp_path, validations):
        """The report and the space built from it name one path, and a
        loader memo hit returns the space built before with its path."""
        for family, (mat, path) in self.families(n).items():
            labels = [f"{family}{i}" for i in range(n)]
            assert validate_metric(mat).certified_by == path, family
            assert FiniteMetricSpace(labels, mat).certified_by == path, family
            doc = tmp_path / f"{n}.json"
            doc.write_text(json.dumps({"labels": labels, "dist": mat.tolist()}))
            validations.clear()
            first = formats.space_from_doc(str(doc))
            assert formats.space_from_doc(str(doc)) is first and first.certified_by == path, family
            assert formats.space_from_doc({"labels": labels, "dist": mat}) is first
            assert validations == [n], family
        assert grid_space(n).certified_by == "euclidean"
        assert discrete_space(n).certified_by == "near-equilateral"

    def test_the_cheaper_certificate_names_what_both_accept(self):
        """The 120 points of {0, 1}^16 with two ones are 2^0.5 or 2 apart,
        near-equilateral and Euclidean of rank 15 = 120 // 8: the rule
        tried first names them."""
        pts = np.array([np.isin(np.arange(16), pair) for pair in itertools.combinations(range(16), 2)], float)
        diff = pts[:, None, :] - pts[None, :, :]
        mat = np.sqrt((diff * diff).sum(axis=2))
        assert spaces._euclidean(mat, 2.0)
        assert validate_metric(mat).certified_by == "near-equilateral"

    def test_below_three_points_is_trivial(self):
        for mat in (np.zeros((0, 0)), [[0.0]], [[0.0, 1.0], [1.0, 0.0]], [[0.0, -1.0], [2.0, 0.0]]):
            assert validate_metric(mat).certified_by == "trivial"
        for space in (grid_space(1), grid_space(2), discrete_space(2), FiniteMetricSpace("ab", [[0, 0], [0, 0]])):
            assert space.certified_by == "trivial"

    def test_equality_and_hash_ignore_the_path(self):
        assert MetricValidationReport(True, (), "tiled") == MetricValidationReport(True, ())
        space, other = grid_space(5), grid_space(5)
        other.certified_by = "tiled"
        assert other == space and hash(other) == hash(space)


class TestFiniteMetricSpace:
    def test_invalid_metric_carries_report(self):
        with pytest.raises(InvalidMetricError) as exc:
            FiniteMetricSpace(["a", "b"], [[0, -1], [-1, 0]])
        assert exc.value.report.violations

    def test_duplicate_labels(self):
        with pytest.raises(StructuralError):
            FiniteMetricSpace(["a", "a"], [[0, 1], [1, 0]])

    def test_empty_space(self):
        with pytest.raises(StructuralError):
            FiniteMetricSpace([], [])

    def test_never_equal_to_other_types(self):
        s = grid_space(2)
        assert s.__eq__(s.dist) is NotImplemented
        assert s != s.dist.tolist()
        assert s != "grid"

    def test_label_matrix_size_mismatch(self):
        with pytest.raises(StructuralError):
            FiniteMetricSpace(["a", "b", "c"], [[0, 1], [1, 0]])

    def test_label_count_is_checked_before_validation(self, monkeypatch):
        # The matrix also breaks the triangle inequality; the count is
        # reported first, and the O(n^3) check never runs.
        calls, validate = [], spaces.validate_metric
        monkeypatch.setattr(spaces, "validate_metric", lambda *args: calls.append(args) or validate(*args))
        with pytest.raises(StructuralError, match="^2 labels but a 3x3 matrix$"):
            FiniteMetricSpace(["a", "b"], [[0, 1, 5], [1, 0, 1], [5, 1, 0]])
        assert calls == []

    def test_matrix_is_frozen(self):
        s = grid_space(3)
        with pytest.raises(ValueError):
            s.dist[0, 1] = 9.0

    def test_value_equality_and_hash(self):
        a = grid_space(4)
        b = grid_space(4)
        assert a == b
        assert hash(a) == hash(b)
        assert a != discrete_space(4)

    def test_a_space_equals_itself_without_a_matrix_compare(self, monkeypatch):
        s, twin = grid_space(4), grid_space(4)
        apart = FiniteMetricSpace(s.labels, 2.0 * s.dist)
        calls, array_equal = [], np.array_equal
        monkeypatch.setattr(spaces.np, "array_equal", lambda *args: calls.append(args) or array_equal(*args))
        assert s == s and not s != s
        assert calls == []
        # Equal but distinct spaces still compare by content.
        assert s == twin and s != apart
        assert len(calls) == 2

    def test_signed_zeros_hash_alike(self):
        a = FiniteMetricSpace(["a", "b"], [[-0.0, 1], [1, 0]])
        b = FiniteMetricSpace(["a", "b"], [[0.0, 1], [1, 0]])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_index_of_unknown_label(self):
        with pytest.raises(UnknownLabelError):
            grid_space(3).index_of("7")

    def test_unknown_label_is_a_key_error(self):
        with pytest.raises(KeyError):
            grid_space(3).index_of("7")

    def test_distance_lookup(self):
        s = grid_space(3)
        assert s.dist[s.index_of("0"), s.index_of("1")] == 1.0
        assert s.dist[s.index_of("0.5"), s.index_of("0")] == 0.5

    def test_ball_is_closed(self):
        s = grid_space(3)
        assert s.ball("0", 0.5) == ["0", "0.5"]
        assert s.ball("0.5", 0.5) == ["0", "0.5", "1"]
        assert s.ball("0", 0.49) == ["0"]

    def test_zero_radius_ball_holds_center(self):
        assert grid_space(3).ball("1", 0.0) == ["1"]

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            grid_space(3).ball("0", -0.1)

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius must be nonnegative, got nan"):
            grid_space(3).ball("0", math.nan)

    def test_ball_mask_agrees_with_ball(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            s = random_space(rng, int(rng.integers(2, 9)))
            r = float(rng.uniform(0, 1.2))
            for i, lab in enumerate(s.labels):
                from_mask = [l for l, ok in zip(s.labels, s.ball_mask(i, r)) if ok]
                assert from_mask == s.ball(lab, r)

    def test_diameter(self):
        assert grid_space(5).diameter() == 1.0
        assert grid_space(1).diameter() == 0.0

    def test_min_positive_distance(self):
        assert grid_space(5).min_positive_distance() == 0.25
        assert grid_space(1).min_positive_distance() == 0.0
        assert FiniteMetricSpace(list("abc"), np.zeros((3, 3))).min_positive_distance() == 0.0
        twins = FiniteMetricSpace(list("abc"), [[0, 0, 1e-310], [0, 0, 1e-310], [1e-310, 1e-310, 0]])
        assert twins.min_positive_distance() == 1e-310

    def test_min_positive_distance_reads_the_matrix_in_place(self):
        """One boolean mask beside the matrix: 1.0 MB at n=1000.  Copying
        every positive entry out first peaked at 9 MB, and at 36 MB for
        n=2000."""
        n = 1000
        space = grid_space(n)
        want = float(space.dist[space.dist > 0.0].min())
        tracemalloc.start()
        try:
            least = space.min_positive_distance()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert least == want and type(least) is float
        assert peak <= n * n + (1 << 16)


@st.composite
def band_matrices(draw):
    """Square matrices of ``MATRIX_ENTRIES`` that mostly pass the axioms
    only within ``METRIC_TOL``: entries at most that far below zero, and
    a lower triangle that mirrors the upper one exactly, a step within
    the band off, or with its sign flipped."""
    n = draw(st.sampled_from([1, 2, 2, 3, 3, 3, 4]))
    upper = MATRIX_ENTRIES.filter(lambda x: x >= -METRIC_TOL)
    mat = np.array(draw(st.lists(upper, min_size=n * n, max_size=n * n))).reshape(n, n)
    steps = draw(st.lists(st.sampled_from([0.0, 1e-13, -1e-13, None]), min_size=n * n, max_size=n * n))
    for (i, j), step in zip(zip(*np.tril_indices(n)), steps):
        mirror = mat[j, i] if i > j else 0.0
        mat[i, j] = -mirror if step is None else mirror + step
    return mat


class TestStoredMatrix:
    """A built space stores the metric the validator accepted: the band
    around zero and between a pair's two entries is read once, here."""

    @settings(max_examples=200, deadline=None)
    @given(band_matrices())
    def test_accepted_matrices_are_stored_exact(self, raw):
        assume(validate_metric(raw).ok)
        labels = [f"p{i}" for i in range(len(raw))]
        dist = FiniteMetricSpace(labels, raw).dist
        assert dist.tobytes() == dist.T.copy().tobytes()
        assert not np.signbit(dist).any()
        assert not np.diagonal(dist).any()
        assert validate_metric(dist).ok
        assert FiniteMetricSpace(labels, dist).dist.tobytes() == dist.tobytes()
        off = ~np.eye(len(raw), dtype=bool)
        agreed = (raw == raw.T) & (raw > 0.0) & off
        assert (dist[agreed] == raw[agreed]).all()
        # Every positive entry stored is one of the pair's given entries.
        positive = dist > 0.0
        assert ((dist == raw) | (dist == raw.T))[positive].all()


class TestGenerators:
    def test_grid_labels_and_distances(self):
        s = grid_space(3)
        assert s.labels == ["0", "0.5", "1"]
        assert s.dist[0, 1] == 0.5

    def test_grid_singleton(self):
        s = grid_space(1)
        assert s.labels == ["0"]
        assert len(s) == 1

    def test_grid_size_validation(self):
        with pytest.raises(ValueError):
            grid_space(0)

    def test_discrete_size_validation(self):
        with pytest.raises(ValueError, match="discrete size"):
            discrete_space(0)

    def test_discrete_distances(self):
        s = discrete_space(4)
        assert s.labels == ["0", "1", "2", "3"]
        assert s.dist[0, 3] == 1.0
        assert s.dist[2, 2] == 0.0

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 257])
    def test_generators_store_their_snapped_metrics(self, n):
        # Each generator's stored matrix is a metric and the snap of its raw
        # matrix, bit for bit.
        coords = np.arange(n) / (n - 1) if n > 1 else np.zeros(1)
        raws = {grid_space: np.abs(coords[:, None] - coords[None, :]),
                discrete_space: np.ones((n, n)) - np.eye(n)}
        for generator, raw in raws.items():
            space = generator(n)
            assert validate_metric(space.dist).ok
            snapped = np.maximum(raw, raw.T)
            snapped[~(snapped > 0.0) | np.eye(n, dtype=bool)] = 0.0
            assert space.dist.tobytes() == snapped.tobytes()


class TestLipschitz:
    def test_identity_constant_is_one(self):
        assert lipschitz_constant(grid_space(5), grid_space(5),
                                  {lab: lab for lab in grid_space(5).labels}) == 1.0

    def test_constant_map_has_constant_zero(self):
        s = grid_space(4)
        assert lipschitz_constant(s, s, {lab: "0" for lab in s.labels}) == 0.0

    def test_singleton_domain_constant_zero(self):
        assert lipschitz_constant(grid_space(1), grid_space(3), {"0": "1"}) == 0.0

    def test_contraction(self):
        # halving map from grid3 into grid5 scales every distance by 1/2
        dom = grid_space(3)
        cod = grid_space(5)
        c = lipschitz_constant(dom, cod, {"0": "0", "0.5": "0.25", "1": "0.5"})
        assert c == pytest.approx(0.5)

    def test_missing_table_entry(self):
        s = grid_space(3)
        with pytest.raises(StructuralError):
            lipschitz_constant(s, s, {"0": "0", "0.5": "0"})

    def test_zero_distance_pair_with_separated_images(self):
        pseudo = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
        with pytest.raises(NotLipschitzError):
            lipschitz_constant(pseudo, grid_space(3), {"a": "0", "b": "1"})

    def test_zero_distance_pair_with_equal_images_is_fine(self):
        pseudo = FiniteMetricSpace(["a", "b"], [[0, 0], [0, 0]])
        assert lipschitz_constant(pseudo, grid_space(3), {"a": "0", "b": "0"}) == 0.0

    def test_peak_memory_is_a_few_blocks(self):
        # Row blocks of at most _BLOCK_CELLS pairs, never index arrays of every
        # pair, which took the n=1000 identity map to a 25 MB peak.  The
        # identity on one space enumerates no pair, so the blocks are
        # measured on an equal copy of the space.
        space = grid_space(1000)
        copy = FiniteMetricSpace(space.labels, space.dist)
        table = {x: x for x in space.labels}
        for constant_of in (lambda: identity_map(space).constant,
                            lambda: lipschitz_constant(space, copy, table)):
            tracemalloc.start()
            try:
                constant = constant_of()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert constant == 1.0
            assert peak <= 4 * _BLOCK_CELLS * 8

    def test_constant_bounds_all_pairs(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            dom = random_space(rng, int(rng.integers(2, 9)))
            cod = random_space(rng, int(rng.integers(2, 9)))
            table = {x: cod.labels[int(rng.integers(len(cod)))] for x in dom.labels}
            c = lipschitz_constant(dom, cod, table)
            for a in dom.labels:
                for b in dom.labels:
                    sigma = cod.dist[cod.index_of(table[a]), cod.index_of(table[b])]
                    assert sigma <= c * dom.dist[dom.index_of(a), dom.index_of(b)] + METRIC_TOL


class TestLipschitzMap:
    def test_call_and_image_index(self):
        f = identity_map(grid_space(3))
        assert f("0.5") == "0.5"
        assert f.images[f.domain.index_of("1")] == 2
        assert f.constant == 1.0

    def test_unknown_input(self):
        with pytest.raises(UnknownLabelError):
            identity_map(grid_space(3))("2")

    def test_unknown_label_message_is_not_quoted(self):
        with pytest.raises(KeyError) as caught:
            grid_space(3).index_of("zz")
        assert str(caught.value) == "unknown label 'zz'"

    def test_images_are_one_read_only_array(self):
        dom, cod = grid_space(4), grid_space(3)
        f = LipschitzMap(dom, cod, {"0": "0", "0.333333": "0.5", "0.666667": "0.5", "1": "1"})
        assert f.images.dtype == np.intp
        assert f.images.tolist() == [cod.index_of(f(x)) for x in dom.labels] == [0, 1, 1, 2]
        with pytest.raises(ValueError):
            f.images[0] = 2

    def test_extra_table_labels_rejected(self):
        s = grid_space(2)
        with pytest.raises(StructuralError):
            LipschitzMap(s, s, {"0": "0", "1": "1", "7": "0"})

    def test_declared_constant_must_match(self):
        s = grid_space(3)
        table = {lab: lab for lab in s.labels}
        assert LipschitzMap(s, s, table, declared_constant=1.0).constant == 1.0
        with pytest.raises(StructuralError):
            LipschitzMap(s, s, table, declared_constant=0.5)

    def test_declared_constant_tolerates_rounding(self):
        s = grid_space(3)
        table = {lab: lab for lab in s.labels}
        f = LipschitzMap(s, s, table, declared_constant=1.0 + 1e-12)
        assert f.constant == 1.0
