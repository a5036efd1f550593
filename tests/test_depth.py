"""Exact depth kernels against frozen values and the brute-force oracle."""

import random
import warnings
from collections import Counter
from fractions import Fraction as F

import pytest

from halfmed.depth import (
    _cell_witness_2d,
    _circle_sides,
    _depth3_int,
    _edge_witness,
    _groups_python,
    _max_window,
    _pseudo_angle,
    _query_vectors,
    _recount,
    _row_vectors,
    _sort_by_angle,
    _vec_rank3,
    approximate_depth,
    convex_hull_contains,
    depth_count,
    directional_quantile,
    max_depth_1d,
    median_interval_1d,
    optimal_direction_cone,
    quantile_index,
    tukey_depth,
    witness_cut,
)
from halfmed.distributions import degenerate_sampler, sample, uniform_ball
from halfmed import depth
from halfmed.geometry import angular_cmp, canonical_direction, cross3, dataset, point, primitive

from oracles import (
    oracle_depth_count,
    random_dataset,
    random_probe,
    reference_cell_witness_2d,
    reference_depth3_int,
    reference_edge_witness,
    reference_groups,
    reference_low_dim_depth,
    reference_max_depth_1d,
    reference_max_window,
    reference_median_interval_1d,
    reference_planar_groups,
    reference_convex_hull_contains,
    reference_recount,
    reference_vec_rank3,
)

DS_A = dataset([(0, 0), (2, 0), (1, 1), (1, 1)])
DS_B = dataset([(0, 0), (1, 0), (0, 1), (1, 1)])


class TestFrozenValues:
    def test_duplicated_apex(self):
        r = tukey_depth((1, 1), DS_A)
        assert r.value == F(1, 2)
        assert r.count == 2
        assert r.n == 4
        assert r.witness == (F(0), F(-1))
        assert r.boundary_count == 2

    def test_base_vertex(self):
        assert tukey_depth((0, 0), DS_A).value == F(1, 4)

    def test_outside_is_zero(self):
        assert tukey_depth((5, 5), DS_A).value == 0
        assert tukey_depth((1, 2), DS_A).value == 0

    def test_square_center_and_corners(self):
        assert tukey_depth((F(1, 2), F(1, 2)), DS_B).value == F(1, 2)
        for corner in DS_B.points:
            assert tukey_depth(corner, DS_B).value == F(1, 4)

    def test_1d_with_duplicate(self):
        ds = dataset([(0,), (1,), (2,), (2,)])
        assert tukey_depth((1,), ds).value == F(1, 2)
        assert tukey_depth((2,), ds).value == F(1, 2)
        assert tukey_depth((0,), ds).value == F(1, 4)
        assert tukey_depth((3,), ds).value == 0

    def test_simplex_3d(self):
        ds = dataset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert tukey_depth((F(1, 4), F(1, 4), F(1, 4)), ds).value == F(1, 4)
        assert tukey_depth((0, 0, 0), ds).value == F(1, 4)
        assert tukey_depth((2, 2, 2), ds).value == 0

    def test_all_points_identical(self):
        ds = dataset([(3, 3), (3, 3)])
        assert tukey_depth((3, 3), ds).value == 1
        assert tukey_depth((0, 0), ds).value == 0

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            tukey_depth((0, 0, 0), DS_A)
        ds4 = dataset([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)])
        with pytest.raises(ValueError):
            tukey_depth((0, 0, 0, 0), ds4)


class TestWitness:
    def test_witness_achieves_count(self):
        rng = random.Random(101)
        for _ in range(60):
            d = rng.choice([1, 2, 3])
            ds = random_dataset(rng, d, max_n=9 if d < 3 else 7)
            x = random_probe(rng, ds)
            r = tukey_depth(x, ds)
            got = sum(
                1
                for p in ds.points
                if sum(w * (pc - xc) for w, pc, xc in zip(r.witness, p, x)) <= 0
            )
            assert got == r.count

    def test_boundary_count_is_ties_on_witness_plane(self):
        r = tukey_depth((1, 1), DS_A)
        ties = sum(
            1
            for p in DS_A.points
            if sum(w * (pc - 1) for w, pc in zip(r.witness, p)) == 0
        )
        assert r.boundary_count == ties == 2


class TestOracleEquivalence:
    def test_planar_battery(self):
        rng = random.Random(20260817)
        for _ in range(150):
            ds = random_dataset(rng, 2, max_n=12)
            for _ in range(3):
                x = random_probe(rng, ds)
                assert tukey_depth(x, ds).count == oracle_depth_count(x, ds)

    def test_spatial_battery(self):
        rng = random.Random(9090)
        for _ in range(40):
            ds = random_dataset(rng, 3, max_n=8)
            for _ in range(3):
                x = random_probe(rng, ds)
                assert tukey_depth(x, ds).count == oracle_depth_count(x, ds)

    def test_line_battery(self):
        rng = random.Random(55)
        for _ in range(40):
            ds = random_dataset(rng, 1, max_n=12)
            x = random_probe(rng, ds)
            assert tukey_depth(x, ds).count == oracle_depth_count(x, ds)

    def test_depth_count_matches_full_result(self):
        rng = random.Random(77)
        for _ in range(40):
            d = rng.choice([1, 2, 3])
            ds = random_dataset(rng, d, max_n=8)
            x = random_probe(rng, ds)
            assert depth_count(x, ds) == tukey_depth(x, ds).count


class TestAffineInvariance:
    def test_planar_affine_maps(self):
        rng = random.Random(404)
        for _ in range(25):
            ds = random_dataset(rng, 2, max_n=9)
            x = random_probe(rng, ds)
            while True:
                a, b, c, d = (F(rng.randint(-3, 3)) for _ in range(4))
                if a * d - b * c != 0:
                    break
            shift = (F(rng.randint(-5, 5)), F(rng.randint(-5, 5)))

            def apply(p):
                return (a * p[0] + b * p[1] + shift[0], c * p[0] + d * p[1] + shift[1])

            ds2 = dataset([apply(p) for p in ds.points])
            assert tukey_depth(x, ds).count == tukey_depth(apply(x), ds2).count


class TestDirectionalQuantile:
    def test_frozen(self):
        assert directional_quantile(DS_A, (0, -1), F(1, 2)) == -1
        assert directional_quantile(DS_A, (1, 0), F(3, 4)) == 1
        assert directional_quantile(DS_A, (1, 0), F(1, 4)) == 0
        assert directional_quantile(DS_A, (1, 0), 1) == 2

    def test_order_statistic_property(self):
        rng = random.Random(31)
        for _ in range(40):
            d = rng.choice([1, 2, 3])
            ds = random_dataset(rng, d, max_n=10)
            u = tuple(F(rng.randint(-4, 4)) for _ in range(d))
            if all(c == 0 for c in u):
                continue
            tau = F(rng.randint(1, ds.n), ds.n)
            q = directional_quantile(ds, u, tau)
            k = quantile_index(ds.n, tau)
            projs = [sum(uc * pc for uc, pc in zip(u, p)) for p in ds.points]
            assert sum(1 for pr in projs if pr <= q) >= k
            assert sum(1 for pr in projs if pr < q) <= k - 1

    def test_scale_invariant_index(self):
        assert quantile_index(4, F(1, 2)) == 2
        assert quantile_index(4, F(1, 4)) == 1
        assert quantile_index(5, F(1, 2)) == 3
        assert quantile_index(7, F(2, 7)) == 2
        assert quantile_index(7, F(3, 14)) == 2

    def test_rejects_bad_tau(self):
        with pytest.raises(ValueError):
            directional_quantile(DS_A, (1, 0), 0)
        with pytest.raises(ValueError):
            directional_quantile(DS_A, (1, 0), F(5, 4))


class TestOptimalCone:
    def test_apex_cone_contains_downward(self):
        cones = optimal_direction_cone((1, 1), DS_A)
        assert (F(0), F(-1)) in cones

    def test_each_cone_achieves_minimum(self):
        rng = random.Random(202)
        for _ in range(30):
            d = rng.choice([1, 2])
            ds = random_dataset(rng, d, max_n=9)
            x = random_probe(rng, ds)
            best = tukey_depth(x, ds).count
            for u in optimal_direction_cone(x, ds):
                got = sum(
                    1
                    for p in ds.points
                    if sum(w * (pc - xc) for w, pc, xc in zip(u, p, x)) <= 0
                )
                assert got == best


class TestWitnessCut:
    def test_cut_separates_probe_from_quantile(self):
        # the region builder relies on this: if depth(x) has count c, the
        # witness direction's (c+1)/n-quantile halfspace excludes x
        rng = random.Random(303)
        for _ in range(50):
            d = rng.choice([2, 3])
            ds = random_dataset(rng, d, max_n=9 if d == 2 else 7)
            x = random_probe(rng, ds)
            c, u = witness_cut(x, ds)
            assert c == depth_count(x, ds)
            # the planar cutting loop reads the witness as an integer vector
            assert all(uc.denominator == 1 for uc in u), u
            if c >= ds.n:
                continue
            tau = F(c + 1, ds.n)
            q = directional_quantile(ds, u, tau)
            assert sum(uc * xc for uc, xc in zip(u, x)) < q

    def test_one_dimensional_data_raises(self):
        with pytest.raises(ValueError, match="witness_cut supports d = 2 or 3"):
            witness_cut((1,), dataset([(0,), (1,), (2,)]))


class TestOneDimensionalSummaries:
    def test_max_depth_frozen(self):
        vals = [F(0), F(1), F(2), F(2)]
        v, c = max_depth_1d(vals)
        assert (v, c) == (F(1, 2), 2)
        lo, hi, lam = median_interval_1d(vals)
        assert (lo, hi, lam) == (F(1), F(2), F(1, 2))

    def test_median_interval_is_argmax(self):
        rng = random.Random(67)
        for _ in range(40):
            vals = [F(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(rng.randint(1, 11))]
            lo, hi, lam = median_interval_1d(vals)
            n = len(vals)
            ds = dataset([(v,) for v in vals])
            assert tukey_depth((lo,), ds).value == lam
            assert tukey_depth((hi,), ds).value == lam
            eps = F(1, 100)
            assert tukey_depth((lo - eps,), ds).value < lam
            assert tukey_depth((hi + eps,), ds).value < lam

    def test_closed_form_matches_group_scans(self):
        # the deepest level read from v_k <= v_{n-k+1} against the scans of
        # the groups of equal values, on multisets with many ties
        rng = random.Random(2201)
        deeper = 0
        for _ in range(10_000):
            n = rng.randint(1, 14)
            spread = rng.randint(0, 4)
            vals = [F(rng.randint(-spread, spread), rng.choice((1, 1, 2, 3))) for _ in range(n)]
            assert repr(max_depth_1d(vals)) == repr(reference_max_depth_1d(vals)), vals
            assert repr(median_interval_1d(vals)) == repr(reference_median_interval_1d(vals)), vals
            deeper += max_depth_1d(vals)[1] > (n + 1) // 2
        # a deepest level above ceil(n/2) needs a tie at the middle
        assert deeper > 1_000


def _fraction_recount(ds, x, u):
    """(points with u . Xi <= u . x, points with u . Xi == u . x), in Fractions."""
    level = sum(uc * xc for uc, xc in zip(u, x))
    proj = [sum(uc * pc for uc, pc in zip(u, p)) for p in ds.points]
    return sum(1 for s in proj if s <= level), sum(1 for s in proj if s == level)


class TestApproximateDepth:
    def test_upper_bounds_exact(self):
        rng = random.Random(505)
        for _ in range(10):
            ds = random_dataset(rng, 2, max_n=8)
            x = random_probe(rng, ds)
            approx = approximate_depth(x, ds, n_directions=64, seed=1)
            assert approx.value >= tukey_depth(x, ds).value
            assert approx.exact is False
            assert (approx.count, approx.boundary_count) == _fraction_recount(ds, x, approx.witness)

    def test_higher_dimensions_run(self):
        ds = dataset(
            [
                (1, 0, 0, 0), (-1, 0, 0, 0),
                (0, 1, 0, 0), (0, -1, 0, 0),
                (0, 0, 1, 0), (0, 0, -1, 0),
                (0, 0, 0, 1), (0, 0, 0, -1),
            ]
        )
        x = (0, 0, 0, 0)
        r = approximate_depth(x, ds, n_directions=128, seed=3)
        assert 0 < r.value <= F(1, 2)
        assert r.exact is False
        assert (r.count, r.boundary_count) == _fraction_recount(ds, x, r.witness)

    def test_large_coordinates_snap_exactly(self):
        # point differences near 2^60, times the 2^24 snapping scale, are
        # past int64; scaling data and query by 2^60 must change nothing
        pts = [(0, 0), (3, 1), (1, 4), (-2, 2), (2, -3), (1, 1), (-1, -1)]
        x = (F(1, 4), F(1, 2))
        big = 2**60
        want = approximate_depth(x, dataset(pts), n_directions=16, seed=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = approximate_depth(
                tuple(c * big for c in x),
                dataset([(a * big, b * big) for a, b in pts]),
                n_directions=16,
                seed=2,
            )
        assert (got.count, got.boundary_count, got.witness) == (
            want.count, want.boundary_count, want.witness)


class TestLargeSampleDepth:
    """Planar depth on the sizes and coordinate ranges of sampled data."""

    def test_dyadic_data_with_duplicates_matches_oracle(self):
        rng = random.Random(808)
        pts = [
            (F(rng.randint(-2**20, 2**20), 2**20), F(rng.randint(-2**20, 2**20), 2**20))
            for _ in range(200)
        ]
        pts += pts[:10]  # duplicates
        ds = dataset(pts)
        for x in (pts[0], (F(0), F(0)), (F(1, 3), F(-1, 7))):
            assert tukey_depth(x, ds).count == oracle_depth_count(x, ds)

    def test_21_bit_ball_sample_at_data_points_matches_oracle(self):
        ds = sample(uniform_ball(2), n=120, bits=21)
        for i in (0, 17, 59, 101):
            x = ds.points[i]
            assert tukey_depth(x, ds).count == oracle_depth_count(x, ds)


def _spatial_cases():
    """3-D (dataset, query) pairs covering the kernel's degenerate inputs."""
    rng = random.Random(4711)
    cases = []
    # duplicates and collinear triples; probes at data points, at averages
    # of two points and off the data
    for _ in range(60):
        ds = random_dataset(rng, 3, max_n=11, dup_prob=0.3, collinear_prob=0.3)
        cases += [(ds, random_probe(rng, ds)) for _ in range(3)]
    # six or more coplanar points plus a few off the plane
    for _ in range(10):
        pts = [(F(rng.randint(-6, 6)), F(rng.randint(-6, 6)), F(1)) for _ in range(7)]
        pts += [tuple(F(rng.randint(-6, 6)) for _ in range(3)) for _ in range(3)]
        ds = dataset(pts)
        cases += [(ds, pts[0]), (ds, (F(0), F(1, 3), F(1))), (ds, (F(1, 2), F(0), F(0)))]
    # antipodal pairs: the query is the midpoint of several segments
    for _ in range(10):
        x = tuple(F(rng.randint(-4, 4), 2) for _ in range(3))
        pts = []
        for _ in range(rng.randint(2, 5)):
            a = tuple(F(rng.randint(-6, 6)) for _ in range(3))
            pts += [a, tuple(2 * xc - ac for xc, ac in zip(x, a))]
        pts += [tuple(F(rng.randint(-6, 6)) for _ in range(3)) for _ in range(rng.randint(1, 3))]
        cases.append((dataset(pts), x))
    # difference vectors of rank 1 (a line through the query) and rank 2
    # (a plane through the query)
    for _ in range(10):
        x = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        u = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        w = (u[1] + 1, -u[0], F(2))
        line = [tuple(xc + F(t) * uc for xc, uc in zip(x, u)) for t in (-2, -1, 1, 1, 3, 0)]
        plane = [
            tuple(xc + F(s) * uc + F(t) * wc for xc, uc, wc in zip(x, u, w))
            for s, t in ((1, 0), (-1, 2), (0, -1), (2, 2), (-1, -1), (1, 0))
        ]
        cases += [(dataset(line), x), (dataset(plane), x)]
    # nearly parallel directions: their float angles tie or cross
    big = 2**80
    pts = [(F(big + k), F(1), F(j)) for k in range(3) for j in range(2)]
    pts += [(F(-big), F(k), F(1)) for k in range(3)] + [(F(1), F(-2), F(-3))]
    ds = dataset(pts)
    cases += [(ds, (F(0), F(0), F(0))), (ds, pts[0])]
    # sampled 53-bit data, general and with duplicates and collinear triples
    for seed, spec in ((1, uniform_ball(3)), (2, degenerate_sampler(uniform_ball(3), 0.2, 0.4))):
        ds = sample(spec, 24, seed, bits=53)
        cases += [(ds, ds.points[3]), (ds, (F(1, 7), F(-2, 9), F(1, 11)))]
    return cases


class TestSpatialKernelMatchesEdgeReference:
    """The circle-sweep kernel against the per-edge sweep it replaced."""

    def test_count_and_witness_match_reference(self):
        for ds, x in _spatial_cases():
            c0, vecs = _query_vectors(ds, x)
            count, lift = _depth3_int(c0, vecs)
            assert (count, lift()) == reference_depth3_int(c0, vecs)

    def test_depth_count_matches_full_result(self):
        for ds, x in _spatial_cases():
            assert depth_count(x, ds) == tukey_depth(x, ds).count

    def test_counts_match_brute_force_oracle(self):
        for ds, x in _spatial_cases():
            if ds.n <= 10:
                assert depth_count(x, ds) == oracle_depth_count(x, ds)

    def test_circle_sides_match_direct_counts(self):
        for ds, x in _spatial_cases():
            _, vecs = _query_vectors(ds, x)
            weight = Counter(primitive(v) for v in vecs)
            dirs = list(weight)
            for d in dirs:
                sides = _circle_sides(d, dirs, list(weight.values()))
                for k, side in zip(dirs, sides):
                    e = cross3(d, k)
                    if e == (0, 0, 0):
                        assert side is None
                        continue
                    dots = [sum(a * b for a, b in zip(e, v)) for v in vecs]
                    assert side == (sum(t < 0 for t in dots), sum(t > 0 for t in dots))


class TestRankScanMatchesReference:
    def test_rank_basis_and_normal(self):
        for ds, x in _spatial_cases():
            _, vecs = _query_vectors(ds, x)
            if vecs:
                assert _vec_rank3(vecs) == reference_vec_rank3(vecs), (ds.points, x)


class TestWitnessTiltsMatchFractionReference:
    """The tilts found by integer cross-multiplication against one Fraction
    per candidate ratio."""

    def test_cell_witness_2d(self):
        rng = random.Random(515)
        for _ in range(400):
            vecs = [(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 9))]
            vecs = [v for v in vecs if v != (0, 0)] or [(1, 0)]
            groups, _ = _groups_python(vecs)
            for anchor in groups:
                assert _cell_witness_2d(anchor, groups) == reference_cell_witness_2d(anchor, groups)

    def test_edge_witness(self):
        rng = random.Random(516)
        cells = 0
        while cells < 200:
            vecs = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(rng.randint(3, 9))]
            vecs = [v for v in vecs if v != (0, 0, 0)]
            if len(vecs) < 2:
                continue
            e = cross3(vecs[0], vecs[1])
            if e == (0, 0, 0):
                continue
            ortho = [v for v in vecs if sum(a * b for a, b in zip(e, v)) == 0]
            bb1 = ortho[0]
            bb2 = cross3(e, bb1)
            groups, mult = _groups_python(
                [(sum(a * b for a, b in zip(bb1, v)), sum(a * b for a, b in zip(bb2, v)))
                 for v in ortho]
            )
            _, anchors = _max_window(groups, mult)
            cell = (e, bb1, bb2, groups, anchors)
            assert _edge_witness(vecs, *cell) == reference_edge_witness(vecs, *cell)
            cells += 1


def _group_lists(rng):
    """Angular group lists of the shapes the half-turn sweep must get right."""
    def vec():
        while True:
            v = (rng.randint(-5, 5), rng.randint(-5, 5))
            if v != (0, 0):
                return v

    out = []
    for _ in range(40):
        v = vec()
        # one ray, all the weight on it
        out.append(reference_groups([v] * rng.randint(1, 6)))
        # antipodal pairs, with lengths that differ along each pair
        pairs = [vec() for _ in range(rng.randint(1, 5))]
        out.append(reference_groups(pairs + [(-2 * a, -2 * b) for a, b in pairs]))
        # random rays, two of them exactly a half-turn apart
        out.append(reference_groups([vec() for _ in range(rng.randint(1, 8))] + [v, (-3 * v[0], -3 * v[1])]))
        # random rays, one of them carrying most of the weight
        out.append(reference_groups([vec() for _ in range(rng.randint(1, 8))] + [v] * 12))
        out.append(reference_groups([vec() for _ in range(rng.randint(1, 12))]))
    return out


class TestHalfTurnSweep:
    """``_max_window`` and ``_circle_sides`` share one half-turn pass; both
    against the one-anchor-at-a-time window and against direct counts."""

    def test_max_window_matches_reference(self):
        for groups, mult in _group_lists(random.Random(1001)):
            assert _max_window(groups, mult) == reference_max_window(groups, mult)

    def test_circle_sides_match_direct_counts(self):
        rng = random.Random(1002)
        for groups, mult in _group_lists(rng):
            # the groups seen along the z axis and along the x axis, each with
            # random heights; heights project away, so rays stay rays
            for d, embed in (((0, 0, 1), lambda g, h: (*g, h)), ((1, 0, 0), lambda g, h: (h, *g))):
                dirs = [embed(g, rng.randint(-3, 3)) for g in groups] + [d]
                weights = mult + [rng.randint(1, 3)]
                sides = _circle_sides(d, dirs, weights)
                for k, side in zip(dirs, sides):
                    e = cross3(d, k)
                    if e == (0, 0, 0):
                        assert side is None
                        continue
                    dots = [sum(a * b for a, b in zip(e, v)) for v in dirs]
                    right = sum(w for t, w in zip(dots, weights) if t < 0)
                    left = sum(w for t, w in zip(dots, weights) if t > 0)
                    assert side == (right, left)


    def test_circle_sides_fall_back_to_the_exact_sort(self, monkeypatch):
        # seen along the z axis, (v0, v1, v2) projects to (v1, -v0): the
        # first two directions project to rays that ``_pseudo_angle`` ties,
        # listed against their angular order, so only the exact sort orders
        # them; the small directions leave the float sort nothing to fix
        big = 2**60
        d = (0, 0, 1)
        tied = [(-1, big, 5), (-1, big + 1, -2), (1, -big, 0), (0, 1, 0), (3, -2, 1), d]
        small = [(1, 0, 2), (0, 1, -1), (-1, -1, 0), (2, -1, 3), (0, -1, 0), d]
        assert _pseudo_angle((big, 1)) == _pseudo_angle((big + 1, 1))
        exact_calls = []

        def counted_cmp(a, b):
            exact_calls.append(1)
            return angular_cmp(a, b)

        monkeypatch.setattr(depth, "angular_cmp", counted_cmp)
        fell_back = []
        for dirs in (tied, small):
            weights = [1 + i % 3 for i in range(len(dirs))]
            exact_calls.clear()
            sides = _circle_sides(d, dirs, weights)
            fell_back.append(bool(exact_calls))
            for k, side in zip(dirs, sides):
                e = cross3(d, k)
                if e == (0, 0, 0):
                    assert side is None
                    continue
                dots = [sum(a * b for a, b in zip(e, v)) for v in dirs]
                right = sum(w for t, w in zip(dots, weights) if t < 0)
                left = sum(w for t, w in zip(dots, weights) if t > 0)
                assert side == (right, left)
        assert fell_back == [True, False]
        items: list = []
        _sort_by_angle(items)
        assert items == [] and _circle_sides(d, [d], [2]) == [None]


def _degenerate_sets(rng):
    """1-D, 2-D and 3-D sets with duplicates and collinear points, and 3-D
    sets that span only a line or a plane."""
    sets = []
    for dim in (1, 2, 3):
        for _ in range(25):
            sets.append(random_dataset(rng, dim, max_n=9 if dim == 3 else 12,
                                       dup_prob=0.4, collinear_prob=0.4))
    for _ in range(15):
        base = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))
        u = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        w = tuple(F(rng.randint(-3, 3)) for _ in range(3))
        line = [tuple(b + rng.randint(-3, 3) * c for b, c in zip(base, u)) for _ in range(7)]
        plane = [tuple(b + rng.randint(-3, 3) * c + rng.randint(-3, 3) * e
                       for b, c, e in zip(base, u, w)) for _ in range(9)]
        sets += [dataset(line), dataset(plane)]
    return sets


class TestEntryPointsAgree:
    """The four depth entry points are views of one kernel per dimension."""

    def test_counts_and_first_witness_agree(self):
        rng = random.Random(1003)
        for ds in _degenerate_sets(rng):
            for x in [random_probe(rng, ds) for _ in range(3)] + [ds.points[0]]:
                res = tukey_depth(x, ds)
                assert depth_count(x, ds) == res.count
                assert optimal_direction_cone(x, ds)[0] == res.witness
                if ds.dim > 1:
                    count, u = witness_cut(x, ds)
                    assert count == res.count
                    assert canonical_direction(u) == res.witness


class TestHullMembershipMatchesSimplex:
    """``convex_hull_contains`` is a positive depth count; the phase-one
    simplex over convex weights is the reference."""

    @staticmethod
    def _queries(rng, ds):
        pts = ds.points
        qs = list(pts) + [random_probe(rng, ds) for _ in range(4)]
        for _ in range(4):
            a, b = rng.choice(pts), rng.choice(pts)
            t = F(rng.randint(0, 4), 4)
            qs.append(tuple(t * ac + (1 - t) * bc for ac, bc in zip(a, b)))  # on a segment
        far = max(abs(c) for p in pts for c in p) + 1
        qs += [tuple(far if j == i else pts[0][j] for j in range(ds.dim)) for i in range(ds.dim)]
        qs.append(tuple(c + F(1, 7) for c in pts[0]))  # next to a data point
        return qs

    def test_matches_reference_on_degenerate_sets(self):
        rng = random.Random(2011)
        seen = Counter()
        for ds in _degenerate_sets(rng):
            for x in self._queries(rng, ds):
                got = convex_hull_contains(ds, x)
                assert got == reference_convex_hull_contains(ds, x), (ds.points, x)
                seen[got] += 1
        assert seen[True] > 300 and seen[False] > 300

    def test_four_dimensions_raise(self):
        ds = dataset([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)])
        with pytest.raises(ValueError):
            convex_hull_contains(ds, (0, 0, 0, 0))


def _low_dim_cases():
    """1-D and 2-D (dataset, query) pairs, most with a long common scale."""
    rng = random.Random(1996)
    cases = []
    # sampled 53-bit data with duplicates and collinear triples: the moved
    # middle points carry long denominators of their own, and the common
    # scale runs to about 2,200 bits
    spec = degenerate_sampler(uniform_ball(2), 0.2, 0.4)
    for seed in (3, 4):
        ds = sample(spec, 300, seed, bits=53)
        queries = [ds.points[i] for i in (0, 7, 150, 299)]
        queries += [(F(rng.randint(-q, q), q), F(rng.randint(-q, q), q)) for q in (3, 77, 999)]
        cases += [(ds, x) for x in queries]
    # one prime denominator per point, so the common scale is their product;
    # then duplicates and collinear midpoints
    primes = [p for p in range(3, 1400) if all(p % k for k in range(2, int(p**0.5) + 1))]
    for dim in (1, 2):
        pts = [tuple(F(rng.randint(-p, p), p) for _ in range(dim)) for p in primes[:200]]
        pts += pts[:20]
        pts += [tuple((a + b) / 2 for a, b in zip(pts[i], pts[i + 1])) for i in range(0, 40, 2)]
        ds = dataset(pts)
        queries = [pts[0], pts[205], pts[-1], tuple(F(1, 3 * (j + 1)) for j in range(dim))]
        queries.append(tuple(F(rng.randint(-997, 997), 997) for _ in range(dim)))
        cases += [(ds, x) for x in queries]
    # 1-D samples, and small grids whose queries hit many ties
    for seed in (5, 6):
        ds = sample(degenerate_sampler(uniform_ball(1), 0.2, 0.4), 150, seed, bits=53)
        cases += [(ds, ds.points[11]), (ds, (F(2, 7),)), (ds, (F(-5, 9),))]
    for _ in range(30):
        ds = random_dataset(rng, rng.choice([1, 2]), max_n=12, dup_prob=0.3, collinear_prob=0.3)
        cases += [(ds, random_probe(rng, ds)) for _ in range(2)]
    cases.append(_near_parallel_case())
    return cases


def _near_parallel_case():
    """Directions that ``_pseudo_angle`` ties, listed against their angular order."""
    big = 2**60
    pts = [(F(big), F(1)), (F(big + 1), F(1)), (F(-big), F(-1)), (F(-big - 1), F(-1))]
    pts += [(F(1), F(big)), (F(-1), F(-big)), (F(-3), F(2)), (F(0), F(0))]
    return dataset(pts), (F(0), F(0))


class TestLowDimKernelMatchesCommonScaleReference:
    """Per-row 1-D and 2-D queries against the common-scale path they replaced."""

    def test_planar_groups_match_reference(self):
        for ds, x in _low_dim_cases():
            if ds.dim == 2:
                c0, vecs = _row_vectors(ds, x)
                assert (c0, *_groups_python(vecs)) == reference_planar_groups(ds, x)

    def test_near_parallel_case_needs_the_exact_sort(self):
        ds, x = _near_parallel_case()
        _, groups, _ = reference_planar_groups(ds, x)
        first, second = (2**60 + 1, 1), (2**60, 1)
        assert groups.index(first) + 1 == groups.index(second)
        assert _pseudo_angle(first) == _pseudo_angle(second)
        # listed in the data the other way round
        assert ds.points.index(second) < ds.points.index(first)

    def test_results_match_reference(self):
        for ds, x in _low_dim_cases():
            count, boundary, raw, cones = reference_low_dim_depth(ds, x)
            res = tukey_depth(x, ds)
            s = abs(next(c for c in raw if c != 0))
            assert (res.count, res.boundary_count) == (count, boundary)
            assert res.witness == tuple(F(c, s) for c in raw)
            assert depth_count(x, ds) == count
            assert optimal_direction_cone(x, ds) == cones
            if ds.dim == 2:
                assert witness_cut(x, ds) == (count, tuple(F(c) for c in raw))

    def test_recount_matches_reference(self):
        rng = random.Random(307)
        for ds, x in _low_dim_cases():
            dirs = [tukey_depth(x, ds).witness]
            if ds.dim == 2:
                _, groups, _ = reference_planar_groups(ds, x)
                # along a group and across it: points on the boundary line
                for gx, gy in rng.sample(groups, min(3, len(groups))):
                    dirs += [(F(gx), F(gy)), (F(-gy), F(gx))]
            else:
                dirs.append((F(-1),))
            dirs += [tuple(F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in x) for _ in range(2)]
            for u in dirs:
                if any(u):
                    assert _recount(ds, x, u) == reference_recount(ds, x, u)


class TestQueryLength:
    """The depth functions and ``directional_quantile`` reject vectors of the
    wrong length."""

    FUNCS = (tukey_depth, depth_count, witness_cut, optimal_direction_cone)

    @pytest.mark.parametrize("func", FUNCS, ids=lambda f: f.__name__)
    def test_wrong_length_raises(self, func):
        for x in ((0, 0, 5), (0,)):
            with pytest.raises(ValueError, match="query point dimension does not match dataset"):
                func(x, DS_A)

    def test_approximate_depth_wrong_length_raises(self):
        for x in ((0, 0, 5), (1,)):
            with pytest.raises(ValueError, match="query point dimension does not match dataset"):
                approximate_depth(x, DS_A, n_directions=8)

    def test_directional_quantile_wrong_length_raises(self):
        for u in ((1,), (1, 0, 7)):
            with pytest.raises(ValueError, match="direction dimension does not match dataset"):
                directional_quantile(DS_A, u, "1/2")

    @pytest.mark.parametrize("func", FUNCS, ids=lambda f: f.__name__)
    def test_above_three_dimensions_raises(self, func):
        ds = dataset([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
        with pytest.raises(ValueError, match="exact depth supports d <= 3"):
            func((0, 0, 0, 0), ds)
