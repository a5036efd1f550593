"""Depth regions, certificates, and the maximal-depth region.

Frozen expected values were derived by hand from the counting definition and
double-checked against the brute-force oracle in ``oracles.py``; the random
batteries re-verify the region machinery against that oracle on degenerate
(duplicated / collinear) instances.
"""

import itertools
import math
import random
import time
from fractions import Fraction as F

import pytest

from halfmed import (
    affine_dimension,
    dataset,
    degenerate_sampler,
    depth_region,
    enumerate_irrotatable,
    certificate_for,
    halfspace,
    halfspace_median,
    is_irrotatable,
    max_depth,
    median_region,
    quantile_index,
    sample,
    tukey_depth,
    uniform_ball,
)

from halfmed import polytope, regions
from halfmed.depth import depth_count
from halfmed.geometry import hull_halfspaces, int_point
from halfmed.regions import _bracketing_criticals_2d, _contact_location
from oracles import (
    oracle_depth_count,
    random_dataset,
    random_flat_dataset_3d,
    random_probe,
    reference_bisect_levels,
    reference_bracketing_criticals_2d,
    reference_candidate_planes_3d,
    reference_certificate_for,
    reference_contact_location,
    reference_coordinatewise_median,
    reference_enumerate_irrotatable_2d,
    reference_enumerate_irrotatable_3d,
    reference_intersect_3d,
    reference_polyhedron_centroid,
    reference_reduce_dataset,
    reference_region_3d_lazy_certificates,
    reference_region_by_cuts_2d,
    reference_region_certificates,
)

DS_A = dataset([(0, 0), (2, 0), (1, 1), (1, 1)])
DS_B = dataset([(0, 0), (1, 0), (0, 1), (1, 1)])
TRIANGLE = dataset([(0, 0), (1, 0), (0, 1)])


def verts(region_result):
    return sorted(region_result.polytope.vertices)


def both_routes(ds, tau):
    """The region of ``depth_region`` and of the certificate reference."""
    return depth_region(ds, tau).polytope, reference_region_certificates(ds, tau)[0]


# ---------------------------------------------------------------------------
# frozen fixtures: the degenerate four-point example


class TestDegenerateExample:
    def test_region_quarter_is_data_triangle(self):
        want = sorted([(F(0), F(0)), (F(1), F(1)), (F(2), F(0))])
        for poly in both_routes(DS_A, F(1, 4)):
            assert sorted(poly.vertices) == want

    def test_region_half_is_singleton(self):
        want = [(F(1), F(1))]
        for poly in both_routes(DS_A, F(1, 2)):
            assert sorted(poly.vertices) == want

    def test_region_above_max_depth_empty(self):
        for poly in both_routes(DS_A, F(3, 4)):
            assert poly.empty

    def test_exactly_four_certificates_at_half(self):
        certs = enumerate_irrotatable(DS_A, F(1, 2))
        assert len(certs) == 4
        shapes = sorted((len(c.boundary_indices), c.cut_count) for c in certs)
        assert shapes == [(3, 0), (3, 0), (3, 1), (3, 1)]

    def test_certificate_with_three_boundary_and_zero_cut(self):
        # the degenerate hallmark: a supporting halfspace holding three
        # sample points (> d) while cutting away none (< ceil(n*tau) - 1)
        certs = enumerate_irrotatable(DS_A, F(1, 2))
        assert any(
            len(c.boundary_indices) == 3 and c.cut_count == 0 for c in certs
        )

    def test_median_is_duplicated_point(self):
        res = median_region(DS_A)
        assert res.lambda_star == F(1, 2)
        assert res.median == (F(1), F(1))
        assert res.region.vertices == ((F(1), F(1)),)
        assert halfspace_median(DS_A) == (F(1), F(1))
        assert max_depth(DS_A) == F(1, 2)


# ---------------------------------------------------------------------------
# frozen fixtures: square, triangle, 1-D, collinear


class TestSmallFixtures:
    def test_square_median_is_center(self):
        res = median_region(DS_B)
        assert res.lambda_star == F(1, 2)
        assert res.median == (F(1, 2), F(1, 2))
        assert len(enumerate_irrotatable(DS_B, F(1, 2))) == 4

    def test_triangle_median_region_is_whole_triangle(self):
        res = median_region(TRIANGLE)
        assert res.lambda_star == F(1, 3)
        assert res.median == (F(1, 3), F(1, 3))
        assert sorted(res.region.vertices) == sorted(
            [(F(0), F(0)), (F(1), F(0)), (F(0), F(1))]
        )
        assert len(enumerate_irrotatable(TRIANGLE, F(1, 3))) == 3

    def test_one_dimensional_median_interval(self):
        one = dataset([(0,), (1,), (2,), (2,)])
        res = median_region(one)
        assert res.lambda_star == F(1, 2)
        assert res.median == (F(3, 2),)
        assert sorted(res.region.vertices) == [(F(1),), (F(2),)]

    def test_collinear_with_duplicate(self):
        col = dataset([(0, 0), (1, 1), (2, 2), (3, 3), (3, 3)])
        r = depth_region(col, F(2, 5))
        assert verts(r) == sorted([(F(1), F(1)), (F(3), F(3))])
        res = median_region(col)
        assert res.lambda_star == F(3, 5)
        assert res.median == (F(2), F(2))


# ---------------------------------------------------------------------------
# frozen fixtures: three dimensions, including degenerate embeddings


class TestThreeDimensional:
    SIMPLEX = dataset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])

    def test_simplex_region_both_routes(self):
        want = sorted(self.SIMPLEX.points)
        for poly in both_routes(self.SIMPLEX, F(1, 4)):
            assert sorted(poly.vertices) == want

    def test_simplex_median(self):
        res = median_region(self.SIMPLEX)
        assert res.lambda_star == F(1, 4)
        assert res.median == (F(1, 4), F(1, 4), F(1, 4))

    def test_coplanar_points_reduce_exactly(self):
        # four points on the plane z = x + y: the square example, lifted
        cop = dataset([(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)])
        r = depth_region(cop, F(1, 2))
        assert verts(r) == [(F(1, 2), F(1, 2), F(1))]
        res = median_region(cop)
        assert res.lambda_star == F(1, 2)
        assert res.median == (F(1, 2), F(1, 2), F(1))

    def test_collinear_in_space(self):
        lin = dataset([(0, 0, 0), (1, 1, 1), (2, 2, 2), (2, 2, 2)])
        r = depth_region(lin, F(1, 2))
        assert verts(r) == sorted([(F(1), F(1), F(1)), (F(2), F(2), F(2))])

    def test_single_point_cloud(self):
        pt = dataset([(1, 2, 3), (1, 2, 3)])
        r = depth_region(pt, F(1, 2))
        assert verts(r) == [(F(1), F(2), F(3))]
        assert median_region(pt).median == (F(1), F(2), F(3))


# ---------------------------------------------------------------------------
# certificate predicate behavior


class TestCertificates:
    def test_certificate_fields(self):
        certs = enumerate_irrotatable(DS_A, F(1, 2))
        by_key = {
            (tuple(c.halfspace.normal), c.halfspace.offset): c for c in certs
        }
        # the halfspace x - y >= 0 holds (0,0) and both copies of (1,1) on
        # its boundary and cuts nothing away
        key = ((F(1), F(-1)), F(0))
        assert key in by_key
        cert = by_key[key]
        assert cert.boundary_indices == (0, 2, 3)
        assert cert.cut_count == 0
        assert cert.required == 2

    def test_certificate_for_rejects_deep_cut(self):
        # a halfspace cutting away two points cannot certify tau = 1/2
        h = halfspace((0, 1), 1)  # y >= 1: cuts (0,0) and (2,0)
        assert certificate_for(DS_A, h, F(1, 2)) is None
        assert not is_irrotatable(DS_A, h, F(1, 2))

    def test_certificate_for_accepts_known(self):
        h = halfspace((1, -1), 0)
        cert = certificate_for(DS_A, h, F(1, 2))
        assert cert is not None
        assert is_irrotatable(DS_A, h, F(1, 2))

    def test_enumeration_requires_full_dimension(self):
        col = dataset([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValueError):
            enumerate_irrotatable(col, F(1, 3))
        with pytest.raises(ValueError):
            reference_region_certificates(col, F(1, 3))

    def test_general_position_certificates_have_textbook_shape(self):
        rng = random.Random(20260817)
        checked = 0
        while checked < 50:
            ds = random_dataset(rng, 2, max_n=9, dup_prob=0.0, collinear_prob=0.0)
            if len(set(ds.points)) != ds.n or _has_collinear_triple(ds):
                continue
            lam = median_region(ds).lambda_star
            k_max = int(lam * ds.n)
            for k in range(1, k_max + 1):
                tau = F(k, ds.n)
                for cert in enumerate_irrotatable(ds, tau):
                    assert len(cert.boundary_indices) == 2
                    assert cert.cut_count == k - 1
            checked += 1


def _has_collinear_triple(ds) -> bool:
    for a, b, c in itertools.combinations(ds.points, 3):
        if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
            return True
    return False


# ---------------------------------------------------------------------------
# the integer helpers of the planar cutting loop


class TestCuttingHelpersMatchFractionFormulas:
    """Contacts and critical directions equal the Fraction reference exactly.

    The directions become the normals written to region files, so equal
    values (not just equal halfspaces) are required.
    """

    # duplicates, several points on rays from (1, 1), and ties of the
    # projection under axis and diagonal directions at every rank
    TIES = dataset(
        [(0, 0), (1, 1), (1, 1), (2, 2), (3, 3), (F(1, 2), F(1, 2)), (2, 0),
         (0, 2), (2, 0), (3, -1), (-1, 3), (1, 0), (0, 1), (F(5, 3), F(1, 3))]
    )
    DIRECTIONS = [(F(a), F(b)) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    DIRECTIONS += [(F(1, 3), F(-2, 5)), (F(-7, 2), F(7, 2))]

    def _check(self, ds):
        # the helpers take the direction's integer vector and the contact's
        # integer row, and each critical direction comes back primitive
        row_of = dict(zip(ds.points, ds.scaled_ints()[1]))
        for u in self.DIRECTIONS:
            ui = int_point(u)[1]
            for k in range(1, ds.n + 1):
                want = reference_contact_location(ds, u, k)
                assert _contact_location(ds, ui, k) == row_of[want]
            for contact in set(ds.points):
                got = _bracketing_criticals_2d(ds, ui, row_of[contact])
                assert got == reference_bracketing_criticals_2d(ds, ui, contact)

    def test_tied_data(self):
        self._check(self.TIES)

    def test_coordinatewise_median_inside_and_outside_a_scope(self):
        rng = random.Random(98)
        for dim in (2, 3):
            for _ in range(10):
                ds = random_dataset(rng, dim, max_n=9, dup_prob=0.4, collinear_prob=0.4)
                want = reference_coordinatewise_median(ds)
                assert regions._coordinatewise_median(ds) == want, ds.points
                with regions._level_scope(ds, None):
                    assert regions._coordinatewise_median(ds) == want, ds.points

    def test_random_degenerate_data(self):
        rng = random.Random(99)
        for _ in range(15):
            self._check(random_dataset(rng, 2, max_n=10, dup_prob=0.4, collinear_prob=0.4))


class TestPolygonLoopMatchesReference:
    """The clipped-polygon cutting loop against the re-intersecting one.

    Equal ``repr``s pin the halfspace tuple, the vertices and their order;
    equal directions pin every cut, and so the seeds of the next level.
    """

    DATASETS = [
        DS_A,
        TestCuttingHelpersMatchFractionFormulas.TIES,
        # every point on one line: the regions are segments and points
        dataset([(0, 0), (1, 2), (1, 2), (2, 4), (F(-1, 2), -1), (3, 6)]),
        # duplicated centre with collinear arms
        dataset([(0, 0), (0, 0), (0, 0), (1, 0), (2, 0), (-1, 0), (0, 1), (0, -2), (1, 1)]),
    ]

    def _check(self, ds, seen):
        n = ds.n
        fixed = [(1, 1), (-1, 2), (2, -3)]
        prev: list = []
        for k in range(1, n + 1):
            tau = F(k, n)
            for seeds in ([], fixed, prev):
                got = regions._region_by_cuts_2d(ds, tau, k, None, seeds)
                want = reference_region_by_cuts_2d(ds, tau, k, seeds)
                assert (repr(got[0]), got[1]) == (repr(want[0]), want[1]), (ds.points, k, seeds)
                poly = got[0]
                seen.add("empty" if poly.empty else min(len(poly.vertices), 3))
            prev = got[1]

    def test_degenerate_data(self):
        seen: set = set()
        for ds in self.DATASETS:
            self._check(ds, seen)
        assert seen == {"empty", 1, 2, 3}

    def test_random_degenerate_data(self):
        rng = random.Random(2031)
        seen: set = set()
        for _ in range(12):
            self._check(random_dataset(rng, 2, max_n=10, dup_prob=0.4, collinear_prob=0.4), seen)
        for seed in (1, 2):
            self._check(sample(uniform_ball(2), n=14, seed=seed, bits=21), seen)
        assert seen == {"empty", 1, 2, 3}

    def test_one_scope_serves_every_level_in_any_order(self):
        # one open scope, whose projection table outlives each level, against
        # the reference loop run outside any scope; the seeds are fixed
        # primitive directions and the previous level's cuts
        rng = random.Random(2034)
        sets = self.DATASETS + [
            random_dataset(rng, 2, max_n=10, dup_prob=0.4, collinear_prob=0.4) for _ in range(6)
        ]
        sets += [sample(uniform_ball(2), n=14, seed=seed, bits=21) for seed in (3, 4)]
        fixed = [(1, 2), (-1, 2), (2, -3)]
        for ds in sets:
            n = ds.n
            jobs, prev = [], []
            for k in range(1, n + 1):
                for seeds in ([], fixed, prev):
                    want = reference_region_by_cuts_2d(ds, F(k, n), k, seeds)
                    jobs.append((k, seeds, (repr(want[0]), want[1])))
                prev = want[1]
            rng.shuffle(jobs)
            with regions._level_scope(ds, None) as scope:
                for k, seeds, want in jobs:
                    got = regions._region_by_cuts_2d(ds, F(k, n), k, None, seeds)
                    assert (repr(got[0]), got[1]) == want, (ds.points, k, seeds)
                assert scope["sorted_rows"] and scope["counts"]
            # the loop leaves its vertices' exact counts in the scope
            for v, cnt in scope["counts"].items():
                assert cnt == oracle_depth_count(v, ds), (ds.points, v)
            assert regions._SCOPE not in ds._cache

    def test_planar_median_counts_one_point_only(self, monkeypatch):
        # the deepest-vertex scan reads the counts the loop already has, so
        # the coordinatewise median is the median's only separate query
        calls = []

        def counted(x, ds):
            calls.append(x)
            return depth_count(x, ds)

        monkeypatch.setattr(regions, "depth_count", counted)
        for ds in self.DATASETS + [sample(uniform_ball(2), n=30, seed=5, bits=21)]:
            calls.clear()
            median_region(ds)
            assert calls == [regions._coordinatewise_median(ds)], ds.points


# ---------------------------------------------------------------------------
# the integer certificate layer against the Fraction reference

# six coplanar points on z = 0 (square corners, centre, edge midpoint),
# collinear triples along y = 0, along both diagonals of the square and
# along (0, 0, 1) + t (1, 1, 1), and duplicated locations on and off z = 0
CLUSTER_3D = dataset(
    [(0, 0, 0), (2, 0, 0), (2, 2, 0), (0, 2, 0), (1, 1, 0), (1, 0, 0), (1, 1, 0),
     (1, 1, 2), (1, 1, 2), (0, 0, 1), (F(1, 2), F(1, 2), F(3, 2)), (3, 1, 1)]
)


def _degenerate_3d_sets(seed, count, max_n):
    """Full-dimensional 3-D sets on a coarse grid: duplicates, collinear
    triples and many coplanar quadruples."""
    from halfmed import affine_dimension

    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ds = random_dataset(rng, 3, max_n=max_n, dup_prob=0.3, collinear_prob=0.3,
                            denom=2, span=1)
        if affine_dimension(ds) == 3:
            out.append(ds)
    return out


def _scaled(h, s):
    return halfspace(tuple(s * c for c in h.normal), s * h.offset)


class TestCertificatesMatchFractionReference:
    """Certificates equal the Fraction reference in every field and in order.

    Their order fixes the cut order of the 3-D cutting loop, and so every
    vertex of a 3-D region.
    """

    def test_enumeration_at_every_level(self):
        for ds in [CLUSTER_3D] + _degenerate_3d_sets(2027, 8, 10):
            for k in range(1, ds.n + 1):
                got = enumerate_irrotatable(ds, F(k, ds.n))
                want = reference_enumerate_irrotatable_3d(ds, F(k, ds.n))
                assert got == want, (ds.points, k)
                assert repr(got) == repr(want)

    def test_enumeration_2d_at_every_level(self):
        rng = random.Random(2030)
        sets = [DS_A, DS_B, TRIANGLE]
        sets += [random_dataset(rng, 2, max_n=12, dup_prob=0.3, collinear_prob=0.4) for _ in range(40)]
        spec = degenerate_sampler(uniform_ball(2), 0.2, 0.4)
        sets += [sample(spec, 20, seed, bits=53) for seed in (5, 6)]
        checked = 0
        for ds in sets:
            if affine_dimension(ds) < 2:
                continue
            for k in range(1, ds.n + 1):
                got = enumerate_irrotatable(ds, F(k, ds.n))
                want = reference_enumerate_irrotatable_2d(ds, F(k, ds.n))
                assert repr(got) == repr(want), (ds.points, k)
            checked += 1
        assert checked >= 30

    def test_certificate_for_3d(self):
        rng = random.Random(31)
        for ds in [CLUSTER_3D] + _degenerate_3d_sets(2028, 4, 9):
            planes = list(reference_candidate_planes_3d(ds))
            # the same planes with rescaled Fraction data, and planes with
            # small normals through sample points
            planes += [_scaled(h, F(3, 7)) for h in planes[::3]]
            for _ in range(20):
                nrm = (rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(1, 2))
                p = rng.choice(ds.points)
                planes.append(halfspace(nrm, sum(a * b for a, b in zip(nrm, p))))
            for h in planes:
                for k in range(1, ds.n + 1):
                    tau = F(k, ds.n)
                    assert certificate_for(ds, h, tau) == reference_certificate_for(ds, h, tau)

    def test_certificate_for_1d_and_2d(self):
        rng = random.Random(32)
        for dim in (1, 2):
            for _ in range(12):
                ds = random_dataset(rng, dim, max_n=9, dup_prob=0.4, collinear_prob=0.4)
                pts = sorted(set(ds.points))
                normals = [(1,)] if dim == 1 else [
                    (a[1] - b[1], b[0] - a[0]) for a, b in itertools.combinations(pts, 2)
                ]
                planes = []
                for w in normals:
                    for a in pts:
                        h = halfspace(w, sum(x * y for x, y in zip(w, a)))
                        planes += [h, _scaled(h, F(-5, 3))]
                for h in planes:
                    for k in range(1, ds.n + 1):
                        tau = F(k, ds.n)
                        got = certificate_for(ds, h, tau)
                        assert got == reference_certificate_for(ds, h, tau)

    def test_regions_and_median_match_reference_route(self, monkeypatch):
        datasets = [CLUSTER_3D] + _degenerate_3d_sets(2029, 3, 9)

        def run():
            out = []
            for ds in datasets:
                res = median_region(ds)
                out.append(repr(res))
                k_star = int(res.lambda_star * ds.n)
                for k in range(1, min(k_star + 1, ds.n) + 1):
                    out.append(repr(depth_region(ds, F(k, ds.n))))
            return out

        def reference_loop(ds, tau, k, deadline, counts):
            return reference_region_3d_lazy_certificates(ds, tau, k, counts)

        got = run()
        monkeypatch.setattr(regions, "enumerate_irrotatable", reference_enumerate_irrotatable_3d)
        monkeypatch.setattr(regions, "_region_3d_lazy_certificates", reference_loop)
        monkeypatch.setattr(polytope, "_intersect_3d", reference_intersect_3d)
        monkeypatch.setattr(polytope, "_polyhedron_centroid", reference_polyhedron_centroid)
        assert got == run()


def _cutting_loop_3d_sets():
    """CLUSTER_3D, grid sets with duplicated, collinear and coplanar points,
    and two sampled ball sets."""
    sets = [CLUSTER_3D] + _degenerate_3d_sets(2032, 8, 11)
    sets += [sample(uniform_ball(3), n=9, seed=seed, bits=20) for seed in (1, 2)]
    return sets


class TestCuttingLoop3DMatchesReference:
    """The 3-D loop, which lets the certificate family decide membership and
    updates the polytope by its new cuts, against the loop that counts depth
    at every vertex and re-intersects every constraint in every round."""

    def test_every_level(self):
        kinds = set()
        for ds in _cutting_loop_3d_sets():
            with regions._level_scope(ds, None) as scope:
                for k in range(1, ds.n + 1):
                    tau = F(k, ds.n)
                    got = regions._region_3d_lazy_certificates(ds, tau, k, None, scope["counts"])
                    want = reference_region_3d_lazy_certificates(ds, tau, k)
                    assert repr(got) == repr(want), (ds.points, k)
                    kinds.add("empty" if got.empty else got.affine_dim)
        assert kinds == {"empty", 0, 1, 2, 3}

    def test_shallow_vertex_that_no_certificate_excludes_empties_the_level(self, monkeypatch):
        # the depth count is the loop's guard above the maximal depth: with
        # no certificates, the box vertices are all that is left to check
        ds = CLUSTER_3D
        k = int(median_region(ds).lambda_star * ds.n) + 1
        monkeypatch.setattr(regions, "enumerate_irrotatable", lambda _ds, _tau: ())
        got = regions._region_3d_lazy_certificates(ds, F(k, ds.n), k, None, {})
        assert repr(got) == repr(regions._empty_region(3))

    def test_one_depth_query_per_level(self, monkeypatch):
        # a level counts its first vertex that no certificate excludes, and
        # not even that one once a point of depth k or more is known; the
        # one more is the coordinatewise median's count
        loop = regions._region_3d_lazy_certificates
        calls = {"levels": 0, "depth": 0}

        def counted_loop(*args):
            calls["levels"] += 1
            return loop(*args)

        def counted_depth(x, ds):
            calls["depth"] += 1
            return depth_count(x, ds)

        monkeypatch.setattr(regions, "_region_3d_lazy_certificates", counted_loop)
        monkeypatch.setattr(regions, "depth_count", counted_depth)
        for ds in _cutting_loop_3d_sets():
            calls.update(levels=0, depth=0)
            median_region(ds)
            assert 1 <= calls["depth"] <= calls["levels"] + 1, (ds.points, calls)

    def test_family_excludes_exactly_the_shallow_points(self):
        rng = random.Random(2033)
        for ds in _cutting_loop_3d_sets():
            k_star = int(median_region(ds).lambda_star * ds.n)
            for k in range(1, k_star + 1):
                tau = F(k, ds.n)
                family = [c.halfspace for c in enumerate_irrotatable(ds, tau)]
                box = polytope.intersect_halfspaces(regions._axis_quantile_box(ds, tau))
                probes = list(box.vertices) + list(ds.points)
                for j in (k - 1, k, k + 1):
                    if 1 <= j <= ds.n:
                        probes += depth_region(ds, F(j, ds.n)).polytope.vertices
                probes += [random_probe(rng, ds) for _ in range(10)]
                shallow = set()
                for x in probes:
                    excluded = any(not h.contains(x) for h in family)
                    assert excluded == (depth_count(x, ds) < k), (ds.points, k, x)
                    shallow.add(excluded)
                assert shallow == {True, False}


def _level_search_2d_sets():
    """Sampled ball sets, degenerate sets with duplicated and collinear
    points, and small grids with n = 3 ... 12."""
    rng = random.Random(2035)
    sets = [DS_A, DS_B, TRIANGLE, TestCuttingHelpersMatchFractionFormulas.TIES]
    sets += TestPolygonLoopMatchesReference.DATASETS[2:]
    sets += [random_dataset(rng, 2, max_n=12, dup_prob=0.4, collinear_prob=0.4) for _ in range(20)]
    for n in range(3, 13):
        sets.append(dataset([(rng.randint(0, 3), rng.randint(0, 3)) for _ in range(n)]))
    sets += [sample(uniform_ball(2), n=n, seed=seed, bits=21) for n in (15, 40) for seed in (1, 2)]
    return sets


class TestLevelSearchMatchesReference:
    """The level search that certifies its floor by the coordinatewise
    median's count, against the one that builds the floor first and again
    after every deepest-vertex jump.  The deepest level and its region are
    the same; in the plane the recorded cuts may differ, as each build is
    seeded by the one before."""

    @staticmethod
    def _search(ds, bisect):
        with regions._level_scope(ds, None) as scope:
            return bisect(ds, None, scope["counts"])

    def test_same_level_vertices_and_median_2d(self):
        for ds in _level_search_2d_sets():
            got = self._search(ds, regions._bisect_levels)
            want = self._search(ds, reference_bisect_levels)
            assert got[1] == want[1], ds.points
            assert got[0].vertices == want[0].vertices, ds.points
            assert polytope.barycenter(got[0]) == polytope.barycenter(want[0])
            assert median_region(ds).median == polytope.barycenter(want[0])

    def test_same_reprs_3d(self):
        for ds in _cutting_loop_3d_sets():
            got = self._search(ds, regions._bisect_levels)
            want = self._search(ds, reference_bisect_levels)
            assert (repr(got[0]), got[1]) == (repr(want[0]), want[1]), ds.points
        # coplanar data never reach the level search: the median solves them
        # in the plane and lifts the region, whose cuts are the lifted ones
        ds = dataset(CLUSTER_3D.points[:6] * 2)
        got = median_region(ds)
        poly, k = self._search(ds, reference_bisect_levels)
        assert (got.lambda_star, got.region.vertices, got.region.affine_dim) == (
            F(k, ds.n), poly.vertices, poly.affine_dim)
        assert got.median == polytope.barycenter(poly)

    def test_floor_build_and_deepest_vertex_jump(self, monkeypatch):
        # both ends of the search occur: a maximal level equal to the
        # certified floor, whose region is built last, and a jump on the
        # counts of a nonempty level's vertices
        loop = regions._region_by_cuts_2d
        built = []

        def counted(ds, tau, k, *args):
            out = loop(ds, tau, k, *args)
            built.append((k, out[0]))
            return out

        monkeypatch.setattr(regions, "_region_by_cuts_2d", counted)
        seen = set()
        for ds in _level_search_2d_sets():
            built.clear()
            floor = max(depth_count(regions._coordinatewise_median(ds), ds), 1)
            with regions._level_scope(ds, None) as scope:
                poly, k_star = regions._bisect_levels(ds, None, scope["counts"])
                if k_star == floor:
                    seen.add("floor")
                    assert built[-1] == (floor, poly)
                    assert all(p.empty for k, p in built[:-1]), ds.points
                for k, p in built:
                    if not p.empty and max(scope["counts"][v] for v in p.vertices) > k:
                        seen.add("jump")
            assert k_star == reference_bisect_levels(ds)[1], ds.points
        assert seen == {"floor", "jump"}

    def test_floor_is_not_built_below_a_nonempty_level(self, monkeypatch):
        loop = regions._region_by_cuts_2d
        levels = []

        def counted(ds, tau, k, *args):
            levels.append(k)
            return loop(ds, tau, k, *args)

        monkeypatch.setattr(regions, "_region_by_cuts_2d", counted)
        deeper = 0
        for ds in _level_search_2d_sets():
            levels.clear()
            floor = max(depth_count(regions._coordinatewise_median(ds), ds), 1)
            k_star = int(median_region(ds).lambda_star * ds.n)
            # every level built is distinct; the floor only when it is k*
            assert len(levels) == len(set(levels)), (ds.points, levels)
            if k_star > floor:
                deeper += 1
                assert floor not in levels, (ds.points, levels)
        assert deeper >= 10

    def test_expired_deadline_raises_when_only_the_floor_is_built(self):
        # every point at one location: the floor is n, no level lies above
        # it, and the final floor build is the search's only build
        ds = dataset([(1, 2)] * 5)
        assert median_region(ds).lambda_star == 1
        with pytest.raises(TimeoutError):
            median_region(ds, deadline=time.monotonic() - 1)
        assert regions._SCOPE not in ds._cache


class TestDeadlineAndCallScope:
    def test_expired_deadline_stops_the_plane_table(self):
        with pytest.raises(TimeoutError):
            regions._plane_table(CLUSTER_3D, time.monotonic() - 1)

    def test_median_with_expired_deadline_raises(self):
        ds = dataset(CLUSTER_3D.points)
        with pytest.raises(TimeoutError):
            median_region(ds, deadline=time.monotonic() - 1)
        assert regions._SCOPE not in ds._cache

    def test_planar_region_and_median_with_expired_deadline_raise(self):
        ds = dataset(TestCuttingHelpersMatchFractionFormulas.TIES.points)
        with pytest.raises(TimeoutError):
            depth_region(ds, F(1, 4), deadline=time.monotonic() - 1)
        with pytest.raises(TimeoutError):
            median_region(ds, deadline=time.monotonic() - 1)
        assert regions._SCOPE not in ds._cache

    @pytest.mark.parametrize("points", [
        [(0, 0, 1)] * 4,
        [(0, 0, 0), (1, 1, 1), (2, 2, 2), (2, 2, 2)],
        [(0, 0, 0), (1, 0, 1), (0, 1, 1), (1, 1, 2)],
        [(0,), (1,), (3,), (3,)],
    ], ids=["point-3d", "collinear-3d", "coplanar-3d", "1d"])
    def test_expired_deadline_raises_in_every_dimension(self, points):
        ds = dataset(points)
        with pytest.raises(TimeoutError):
            depth_region(ds, F(1, 2), deadline=time.monotonic() - 1)
        with pytest.raises(TimeoutError):
            median_region(ds, deadline=time.monotonic() - 1)
        assert regions._SCOPE not in ds._cache

    def test_expired_deadline_stops_the_cutting_rounds(self):
        # the plane table is already built in the open scope, so the
        # timeout comes from the per-round check of the cutting loop
        ds = dataset(CLUSTER_3D.points)
        with regions._level_scope(ds, None) as scope:
            enumerate_irrotatable(ds, F(1, 4))
            assert scope["planes"] is not None
            with pytest.raises(TimeoutError):
                regions._region_3d_lazy_certificates(
                    ds, F(1, 4), quantile_index(ds.n, F(1, 4)), time.monotonic() - 1,
                    scope["counts"],
                )

    def test_plane_table_and_counts_do_not_outlive_the_call(self):
        for points in (CLUSTER_3D.points, TestCuttingHelpersMatchFractionFormulas.TIES.points):
            ds = dataset(points)
            median_region(ds)
            depth_region(ds, F(1, 4))
            assert regions._SCOPE not in ds._cache


class TestFlatDataReducedOnce:
    """3-D data on a plane or a line are reduced to the coordinates of their
    affine hull once per call, and answer as the same points in the plane
    or on the line do."""

    BALL = sample(uniform_ball(2), n=60, seed=0, bits=21)

    @staticmethod
    def _count_reductions(monkeypatch):
        calls = []
        reduce = regions.reduce_dataset

        def counted(ds):
            calls.append(ds.n)
            return reduce(ds)

        monkeypatch.setattr(regions, "reduce_dataset", counted)
        return calls

    def test_coplanar_median(self, monkeypatch):
        calls = self._count_reductions(monkeypatch)
        res = median_region(dataset([(x, y, x + 2 * y) for x, y in self.BALL.points]))
        assert calls == [60]
        want = median_region(self.BALL)
        assert res.lambda_star == want.lambda_star
        assert res.median == (*want.median, want.median[0] + 2 * want.median[1])
        assert sorted(v[:2] for v in res.region.vertices) == sorted(want.region.vertices)
        assert res.region.affine_dim == want.region.affine_dim == 2

    def test_collinear_median(self, monkeypatch):
        calls = self._count_reductions(monkeypatch)
        res = median_region(dataset([(x, 2 * x + 1, -x) for x, _ in self.BALL.points]))
        assert calls == [60]
        want = median_region(dataset([(x,) for x, _ in self.BALL.points]))
        assert res.lambda_star == want.lambda_star
        assert res.median == (want.median[0], 2 * want.median[0] + 1, -want.median[0])
        assert [v[:1] for v in res.region.vertices] == list(want.region.vertices)

    def test_coplanar_region_at_each_level(self, monkeypatch):
        calls = self._count_reductions(monkeypatch)
        flat = dataset([(x, y, x + 2 * y) for x, y in self.BALL.points])
        for k in (1, 10, 20, 26, 27):
            calls.clear()
            got = depth_region(flat, F(k, 60)).polytope
            assert calls == [60]
            want = depth_region(self.BALL, F(k, 60)).polytope
            assert got.empty == want.empty
            assert sorted(v[:2] for v in got.vertices) == sorted(want.vertices)


class TestFlatFrameMatchesGramReference:
    """Regions of 3-D data on a line or plane, solved in the dual-basis frame
    and in the Gram frame with the scanned basis, have equal ``repr``s."""

    @staticmethod
    def _outputs(points):
        ds = dataset(points)
        out = [repr(median_region(ds))]
        for k in {1, (ds.n + 1) // 3, ds.n // 2}:
            out.append(repr(depth_region(ds, F(k, ds.n))))
        return out

    def test_regions_and_medians(self, monkeypatch):
        rng = random.Random(2029)
        sets = [random_flat_dataset_3d(rng, adim, max_n=12) for adim in (1, 2) * 12]
        sets.append(dataset([(x, y, x + 2 * y) for x, y in TestFlatDataReducedOnce.BALL.points]))
        got = [self._outputs(ds.points) for ds in sets]
        monkeypatch.setattr(regions, "reduce_dataset", reference_reduce_dataset)
        assert got == [self._outputs(ds.points) for ds in sets]


class TestPlanarLoopWitnessesOncePerVertex:
    def test_witness_cut_runs_at_most_once_per_vertex(self, monkeypatch):
        # a shallow vertex is excluded by a cut admitted in the round that
        # finds it, so no vertex is asked for its witness twice
        calls = []
        witness = regions.witness_cut

        def spy(x, ds):
            calls.append(x)
            return witness(x, ds)

        monkeypatch.setattr(regions, "witness_cut", spy)
        sets = [DS_A, TestCuttingHelpersMatchFractionFormulas.TIES]
        sets += [sample(degenerate_sampler(uniform_ball(2), 0.2, 0.3), n, seed=s, bits=21)
                 for n, s in ((40, 0), (80, 1), (120, 2))]
        for ds in sets:
            for k in {1, ds.n // 4, ds.n // 3, ds.n // 2}:
                calls.clear()
                regions._region_by_cuts_2d(ds, F(k, ds.n), k, None)
                assert calls and len(calls) == len(set(calls)), (ds.n, k)


class TestHalfspacesAreReduced:
    """Every halfspace that leaves the region layer is stored as its reduced
    integer row over a positive denominator, on which equality relies."""

    @staticmethod
    def _check(hs, ds):
        for h in hs:
            a, b = h.ints
            assert h.den > 0 and math.gcd(*a, b, h.den) == 1, (ds.points, h)

    def test_degenerate_sets_2d_and_3d(self):
        rng = random.Random(1801)
        sets = _level_search_2d_sets()[:24] + [CLUSTER_3D] + _degenerate_3d_sets(1802, 4, 10)
        sets += [random_flat_dataset_3d(rng, adim) for adim in (1, 2, 2)]
        for ds in sets:
            self._check(hull_halfspaces(ds), ds)
            self._check(median_region(ds).region.halfspaces, ds)
            full = affine_dimension(ds) == ds.dim
            for k in {1, (ds.n + 3) // 4, ds.n // 2}:
                tau = F(k, ds.n)
                self._check(depth_region(ds, tau).polytope.halfspaces, ds)
                if full:
                    self._check(reference_region_certificates(ds, tau)[0].halfspaces, ds)
                    self._check([c.halfspace for c in enumerate_irrotatable(ds, tau)], ds)

    def test_planar_normals_are_primitive(self):
        # box sides and cuts alike: each normal is the primitive integer
        # vector of its direction, at every level, the empty ones included,
        # so no normal depends on the order in which points are scanned
        rng = random.Random(2410)
        sets = TestPolygonLoopMatchesReference.DATASETS + _level_search_2d_sets()[:16]
        sets += [random_dataset(rng, 2, max_n=10, dup_prob=0.4, collinear_prob=0.4)
                 for _ in range(12)]
        sets.append(sample(degenerate_sampler(uniform_ball(2), 0.2, 0.3), 50, seed=3, bits=21))
        empty = 0
        for ds in sets:
            polys = [depth_region(ds, F(k, ds.n)).polytope for k in range(1, ds.n + 1)]
            for poly in polys + [median_region(ds).region]:
                empty += poly.empty
                for h in poly.halfspaces:
                    assert all(c.denominator == 1 for c in h.normal), (ds.points, h)
                    assert math.gcd(*(c.numerator for c in h.normal)) == 1, (ds.points, h)
        assert empty > len(sets)


# ---------------------------------------------------------------------------
# invariants on random degenerate instances


def _lattice_sets(rng, dim, count):
    """Small full-dimensional sets on the lattice [-3, 3]^dim, ties included."""
    out = []
    while len(out) < count:
        ds = dataset([tuple(rng.randint(-3, 3) for _ in range(dim))
                      for _ in range(rng.randint(4, 8))])
        if affine_dimension(ds) == dim:
            out.append(ds)
    return out


class TestLevelsAboveTheMaximalDepth:
    """Every level in (lambda*, 1] is one empty ``Polytope``, from
    ``depth_region`` and from the certificate reference: ``affine_dim``
    None, no vertices, and no error where no certificate exists."""

    @staticmethod
    def _check_empty(poly, dim):
        assert (poly.empty, poly.vertices, poly.affine_dim, poly.dim) == (True, (), None, dim)

    @pytest.mark.parametrize("dim, count", [(1, 40), (2, 40), (3, 12)])
    def test_both_routes(self, dim, count):
        rng = random.Random(2206 + dim)
        levels = without_certificate = 0
        for ds in _lattice_sets(rng, dim, count):
            k_star = int(median_region(ds).lambda_star * ds.n)
            for k in range(k_star + 1, ds.n + 1):
                poly, certs = reference_region_certificates(ds, F(k, ds.n))
                for p in (depth_region(ds, F(k, ds.n)).polytope, poly):
                    self._check_empty(p, dim)
                levels += 1
                without_certificate += not certs
        assert levels > count
        # on a line both ends always certify; in the plane and in space some
        # levels above lambda* have no certificate at all
        assert (without_certificate > 0) == (dim > 1)

    @pytest.mark.parametrize("adim", [1, 2])
    def test_flat_data_in_space(self, adim):
        rng = random.Random(2209 + adim)
        for _ in range(10):
            ds = random_flat_dataset_3d(rng, adim)
            k_star = int(median_region(ds).lambda_star * ds.n)
            for k in range(k_star + 1, ds.n + 1):
                self._check_empty(depth_region(ds, F(k, ds.n)).polytope, 3)


class TestOneDimensionalLevels:
    def test_certificates_are_the_two_ends(self):
        # level k of a line is [v_k, v_{n-k+1}]: the halfspaces through the
        # two order statistics are its certificates at every level, and the
        # certificate reference gives depth_region's polytope at every level,
        # the empty ones above lambda* included
        rng = random.Random(2212)
        for ds in _lattice_sets(rng, 1, 40):
            vals = sorted(p[0] for p in ds.points)
            for k in range(1, ds.n + 1):
                tau = F(k, ds.n)
                ends = (halfspace((1,), vals[k - 1]), halfspace((-1,), -vals[ds.n - k]))
                want = tuple(reference_certificate_for(ds, h, tau) for h in ends)
                assert enumerate_irrotatable(ds, tau) == want, (ds.points, k)
                cuts = depth_region(ds, tau).polytope
                cert_poly, certs = reference_region_certificates(ds, tau)
                assert certs == want
                assert cuts.empty == cert_poly.empty == (vals[k - 1] > vals[ds.n - k])
                assert repr(cert_poly) == repr(cuts), (ds.points, k)


class TestRegionMatchesCertificateReference:
    @pytest.mark.parametrize("dim, count, max_n", [(1, 60, 10), (2, 100, 10), (3, 40, 8)])
    def test_every_level_of_full_dimensional_sets_with_ties(self, dim, count, max_n):
        # the certificates meet in the region up to lambda*, and above it
        # both give the empty polytope
        rng = random.Random(2300 + dim)
        done = 0
        while done < count:
            ds = random_dataset(rng, dim, max_n=max_n, dup_prob=0.3, collinear_prob=0.3)
            if affine_dimension(ds) < dim:
                continue
            for k in range(1, ds.n + 1):
                a, b = both_routes(ds, F(k, ds.n))
                assert (a.vertices, a.empty, a.affine_dim) == (
                    b.vertices, b.empty, b.affine_dim), (ds.points, k)
            done += 1


class TestRegionOracleBattery:
    def test_routes_agree_and_match_pointwise_depth_2d(self):
        rng = random.Random(1234)
        for _ in range(60):
            ds = random_dataset(rng, 2, max_n=9)
            lam = median_region(ds).lambda_star
            k_max = int(lam * ds.n)
            # every attainable level, plus one past the max (empty region)
            # when that still yields a valid tau <= 1
            for k in range(1, min(k_max + 1, ds.n) + 1):
                tau = F(k, ds.n)
                cuts = depth_region(ds, tau).polytope
                probes = list(cuts.vertices) + list(ds.points)
                probes += [random_probe(rng, ds) for _ in range(10)]
                for x in probes:
                    inside = cuts.contains(x)
                    assert inside == (tukey_depth(x, ds).count >= k)
                    assert inside == (oracle_depth_count(x, ds) >= k)
                if k <= k_max:
                    assert not cuts.empty
                    # vertices of the region are exactly depth-k-deep
                    for v in cuts.vertices:
                        assert tukey_depth(v, ds).count >= k
                else:
                    assert cuts.empty

    def test_certificate_route_agrees_on_full_dim_2d(self):
        rng = random.Random(5678)
        done = 0
        while done < 25:
            ds = random_dataset(rng, 2, max_n=8)
            from halfmed import affine_dimension

            if affine_dimension(ds) < 2:
                continue
            lam = median_region(ds).lambda_star
            for k in range(1, int(lam * ds.n) + 1):
                tau = F(k, ds.n)
                a, b = both_routes(ds, tau)
                assert sorted(a.vertices) == sorted(b.vertices), (ds.points, tau)
            done += 1

    def test_routes_agree_3d(self):
        rng = random.Random(91011)
        done = 0
        while done < 12:
            ds = random_dataset(rng, 3, max_n=7)
            from halfmed import affine_dimension

            full = affine_dimension(ds) == 3
            lam = median_region(ds).lambda_star
            for k in range(1, int(lam * ds.n) + 1):
                tau = F(k, ds.n)
                poly = depth_region(ds, tau).polytope
                probes = list(poly.vertices) + list(ds.points)
                probes += [random_probe(rng, ds) for _ in range(6)]
                for x in probes:
                    assert poly.contains(x) == (oracle_depth_count(x, ds) >= k)
                if full:
                    cert = reference_region_certificates(ds, tau)[0]
                    assert sorted(cert.vertices) == sorted(poly.vertices)
            done += 1

    def test_nesting_in_tau(self):
        rng = random.Random(1213)
        for _ in range(20):
            ds = random_dataset(rng, 2, max_n=9)
            lam = median_region(ds).lambda_star
            k_max = int(lam * ds.n)
            regions = [
                depth_region(ds, F(k, ds.n)).polytope for k in range(1, k_max + 1)
            ]
            for shallow, deep in zip(regions, regions[1:]):
                for v in deep.vertices:
                    assert shallow.contains(v)

    def test_median_vertex_depth_matches_lambda_star(self):
        rng = random.Random(1415)
        for _ in range(25):
            ds = random_dataset(rng, 2, max_n=9)
            res = median_region(ds)
            k_star = int(res.lambda_star * ds.n)
            assert tukey_depth(res.median, ds).count >= k_star
            for v in res.region.vertices:
                assert tukey_depth(v, ds).count == k_star
            # nothing is deeper: the region one level up is empty (when the
            # maximum is below depth one, where no higher level exists)
            if k_star < ds.n:
                assert depth_region(ds, F(k_star + 1, ds.n)).polytope.empty

    def test_median_region_1d_matches_interval(self):
        from halfmed import median_interval_1d

        rng = random.Random(1617)
        for _ in range(40):
            n = rng.randint(1, 9)
            vals = [F(rng.randint(-12, 12), rng.randint(1, 3)) for _ in range(n)]
            ds = dataset([(v,) for v in vals])
            res = median_region(ds)
            lo, hi, lam = median_interval_1d(vals)
            assert res.lambda_star == lam
            assert res.median == ((lo + hi) / 2,)
