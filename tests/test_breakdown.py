"""Breakdown bounds, projections, contamination plans, and exhaustive search.

Frozen values were derived by hand from the projection/counting definitions
(the projected 1-D depth values can be read off sorted lists) and confirmed
against the exact region machinery.
"""

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest

import halfmed.breakdown as breakdown
import halfmed.geometry as geometry
from halfmed.geometry import angular_cmp
from halfmed import (
    BREAKDOWN_CSV_HEADER,
    ContaminationPlan,
    DirectionSearchConfig,
    affine_dimension,
    ball_sphere_mixture,
    breakdown_csv_row,
    build_attack,
    dataset,
    degenerate_sampler,
    discrete_cloud,
    exact_breakdown,
    lower_bound,
    median_interval_1d,
    median_region,
    project_dataset,
    projected_lambda,
    projection_frame,
    sample,
    symmetrize,
    tukey_depth,
    uniform_ball,
    upper_bound,
    verify_attack,
)

from oracles import (
    random_dataset,
    reference_projected_lambda,
    reference_projection_frame,
    reference_projections,
    reference_sup_depth_on_hull,
    reference_tie_and_arc_directions,
    reference_upper_bound,
)

DS_A = dataset([(0, 0), (2, 0), (1, 1), (1, 1)])
DS_B = dataset([(0, 0), (1, 0), (0, 1), (1, 1)])


# ---------------------------------------------------------------------------
# projection frames and projected depth levels


class TestProjection:
    def test_frame_spans_orthocomplement(self):
        f = projection_frame((0, 1), 2)
        assert f.basis == ((F(1), F(0)),)
        f = projection_frame((1, 1), 2)
        assert f.basis == ((F(1), F(-1)),)
        f = projection_frame((1, 0, 0), 3)
        assert f.basis == ((F(0), F(1), F(0)), (F(0), F(0), F(1)))

    def test_frame_columns_orthogonal_to_direction(self):
        rng = random.Random(3)
        for d in (2, 3):
            for _ in range(20):
                u = tuple(F(rng.randint(-9, 9)) for _ in range(d))
                if all(c == 0 for c in u):
                    continue
                f = projection_frame(u, d)
                assert len(f.basis) == d - 1
                for col in f.basis:
                    assert sum(a * b for a, b in zip(col, u)) == 0

    def test_projected_points(self):
        proj = project_dataset(DS_A, projection_frame((0, 1), 2))
        assert [p[0] for p in proj.points] == [F(0), F(2), F(1), F(1)]

    def test_projected_lambda_sees_duplicates(self):
        # projecting out (0,1) leaves {0, 2, 1, 1}: the duplicate sits at the
        # median, so the projected maximal depth is 3/4, not 1/2
        assert projected_lambda(DS_A, (0, 1)) == F(3, 4)
        assert projected_lambda(DS_A, (1, 0)) == F(1, 2)


# ---------------------------------------------------------------------------
# integer frames, projections and the one search loop against the Fraction
# references (Gram-Schmidt, Fraction dot products, three loops)


def _degenerate_planar_sets():
    rng = random.Random(1901)
    out = []
    while len(out) < 12:
        ds = random_dataset(rng, 2, max_n=14, dup_prob=0.4, collinear_prob=0.4)
        if ds.n >= 4 and affine_dimension(ds) == 2:
            out.append(ds)
    return out


def _ball_sets_3d():
    return [sample(uniform_ball(3), n=n, seed=n, bits=21) for n in range(5, 10)]


_CONFIGS = [
    None,
    DirectionSearchConfig(probes=0, exhaustive=True),
    DirectionSearchConfig(probes=3, exhaustive=False),
]


class TestIntegerSearchMatchesReference:
    def test_frames_match_gram_schmidt(self):
        rng = random.Random(1902)
        dirs = [u for d in (2, 3) for u in itertools.product(range(-4, 5), repeat=d) if any(u)]
        for _ in range(200):
            d = rng.choice((2, 3))
            u = tuple(F(rng.randint(-60, 60), rng.randint(1, 40)) for _ in range(d))
            if any(u):
                dirs.append(u)
        for u in dirs:
            got = projection_frame(u, len(u))
            assert repr(got) == repr(reference_projection_frame(u, len(u))), u
        # the cross-product frame exists in the plane and in space only
        for bad in ((1,), (1, 0, 0, 0)):
            with pytest.raises(ValueError, match="d in"):
                projection_frame(bad)

    def test_projections_match_fraction_dot_products(self):
        rng = random.Random(1903)
        ends = set()
        for ds in _degenerate_planar_sets() + _ball_sets_3d():
            for _ in range(6):
                u = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(ds.dim))
                if not any(u):
                    continue
                frame = projection_frame(u, ds.dim)
                cols = reference_projections(ds, frame)
                assert repr(project_dataset(ds, frame).points) == repr(tuple(zip(*cols)))
                assert projected_lambda(ds, u) == reference_projected_lambda(ds, u)
                if ds.dim == 2:
                    # the planar attack anchors: both ends of the median
                    # interval, or its one point
                    lo, hi, lam = median_interval_1d(cols[0])
                    assert breakdown._anchors_1d(ds, frame) == (sorted({(lo,), (hi,)}), lam)
                    ends.add(lo == hi)
        assert ends == {True, False}

    def test_tie_order_matches_float_angles_on_small_sets(self):
        # where floats order the ties correctly, the exact order is atan2's
        rng = random.Random(2203)
        done = 0
        while done < 200:
            n = rng.randint(3, 9)
            ds = dataset([(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(n)])
            if affine_dimension(ds) < 2:
                continue
            got = breakdown._tie_and_arc_directions(ds)
            ties = sorted({w for v in breakdown._pair_directions(ds)
                           for w in (v, tuple(-c for c in v))},
                          key=lambda v: math.atan2(v[1], v[0]))
            assert got[:len(ties)] == ties, ds.points
            assert got == [tuple(map(int, v)) for v in reference_tie_and_arc_directions(ds)]
            done += 1

    def test_every_arc_gets_a_representative_at_2_60_scale(self):
        # differences to two points near (2^60, 2^60) are nearly parallel:
        # a float angle sorts them out of order, and the sums of neighbours
        # in that order miss arcs between exactly adjacent ties
        rng = random.Random(2204)
        big = 2**60
        for _ in range(300):
            pts = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(5)]
            pts += [(big + rng.randint(-3, 3), big + rng.randint(-3, 3)) for _ in range(2)]
            ds = dataset(pts)
            if affine_dimension(ds) < 2:
                continue
            out = breakdown._tie_and_arc_directions(ds)
            ties = {w for v in breakdown._pair_directions(ds) for w in (v, tuple(-c for c in v))}
            mids = out[len(ties):]
            assert set(out[:len(ties)]) == ties
            exact = sorted(ties, key=functools.cmp_to_key(angular_cmp))
            for a, b in zip(exact, exact[1:] + exact[:1]):
                assert any(a[0] * r[1] - a[1] * r[0] > 0 and r[0] * b[1] - r[1] * b[0] > 0
                           for r in mids), (pts, a, b)
            assert out == [tuple(map(int, v)) for v in reference_tie_and_arc_directions(ds)]

    def test_upper_bound_matches_three_loops(self):
        for ds in _degenerate_planar_sets() + _ball_sets_3d():
            for cfg in _CONFIGS:
                assert repr(upper_bound(ds, cfg)) == repr(reference_upper_bound(ds, cfg)), (
                    ds.points, cfg)

    def test_plans_and_exact_breakdown_match_reference(self, monkeypatch):
        sets = _degenerate_planar_sets() + _ball_sets_3d()

        def outputs():
            out = []
            for ds in sets:
                ub = breakdown.upper_bound(ds)
                out.append(repr(build_attack(ds, ub.direction)))
                if ds.dim == 2 and ds.n <= 10:
                    out.append(repr(exact_breakdown(ds)))
            return out

        got = outputs()
        assert any("BreakdownReport" in r for r in got)
        monkeypatch.setattr(breakdown, "projection_frame", reference_projection_frame)
        monkeypatch.setattr(breakdown, "_projections", reference_projections)
        monkeypatch.setattr(breakdown, "upper_bound", reference_upper_bound)
        monkeypatch.setattr(
            breakdown, "_tie_and_arc_directions", reference_tie_and_arc_directions)
        assert got == outputs()

    def test_planar_sweep_stops_at_the_floor(self, monkeypatch):
        # the reference sweeps every critical direction; the one loop stops
        # at the first that reaches the floor, with the same direction
        calls = []
        real = breakdown.projected_lambda

        def spy(ds, u):
            calls.append(u)
            return real(ds, u)

        monkeypatch.setattr(breakdown, "projected_lambda", spy)
        cfg = DirectionSearchConfig(probes=0, exhaustive=True)
        # draws from a 3x3 lattice: the axis projections tie, so the floor
        # is often first reached inside the sweep
        rng = random.Random(1904)
        stopped = 0
        for _ in range(30):
            n = rng.randint(5, 10)
            ds = dataset([(rng.randint(0, 2), rng.randint(0, 2)) for _ in range(n)])
            if affine_dimension(ds) < 2:
                continue
            calls.clear()
            ub = upper_bound(ds, cfg)
            assert repr(ub) == repr(reference_upper_bound(ds, cfg)), ds.points
            units = [(1, 0), (0, 1)]
            candidates = units + breakdown._tie_and_arc_directions(ds)
            if ub.inf_lambda == breakdown._pinch_floor(ds.n, 1):
                assert calls == candidates[: candidates.index(calls[-1]) + 1]
                assert tuple(calls[-1]) == ub.direction
                stopped += len(calls) > len(units) and len(calls) < len(candidates)
            else:
                assert calls == candidates
        assert stopped >= 3


# ---------------------------------------------------------------------------
# bounds


class TestBounds:
    def test_degenerate_example_pinches_at_one_third(self):
        assert lower_bound(DS_A) == F(1, 3)
        ub = upper_bound(DS_A)
        assert ub.bound == F(1, 3)
        assert ub.inf_lambda == F(1, 2)
        assert ub.exact

    def test_square_pinches_at_one_third(self):
        assert lower_bound(DS_B) == F(1, 3)
        assert upper_bound(DS_B).bound == F(1, 3)

    def test_result_unpacks_as_pair(self):
        bound, direction = upper_bound(DS_A)
        assert bound == F(1, 3)
        assert any(c != 0 for c in direction)

    def test_three_dimensional_upper_bound(self):
        simp = dataset([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
        ub = upper_bound(simp)
        assert ub.bound == F(2, 7)
        assert ub.inf_lambda == F(2, 5)
        assert ub.exact  # the pinch floor ceil(5/3)/5 = 2/5 is attained

    def test_three_dimensional_net(self, monkeypatch):
        # symmetric sets never reach the pinch floor, so the whole cross
        # product net runs; lambda* = 1/2 stops the search on its first probe
        nets = []
        real = breakdown._cross_directions

        def spy(ds):
            for u in real(ds):
                nets.append(u)
                yield u

        monkeypatch.setattr(breakdown, "_cross_directions", spy)
        for m, size in ((3, 23), (4, 102), (5, 300)):
            ds = symmetrize(sample(uniform_ball(3), m, 0, bits=8), (0, 0, 0))
            nets.clear()
            ub = upper_bound(ds)
            assert len(nets) == size
            assert repr(ub) == repr(reference_upper_bound(ds)), ds.points
            assert not ub.exact and ub.inf_lambda == F(1, 2)
            assert median_region(ds).lambda_star == F(1, 2)
            nets.clear()
            ub = upper_bound(ds, lambda_star=F(1, 2))
            assert nets == []
            assert ub.exact and ub.inf_lambda == F(1, 2)
            assert repr(ub) == repr(reference_upper_bound(ds, lambda_star=F(1, 2)))

    def test_requires_full_affine_dimension(self):
        col = dataset([(0, 0), (1, 1), (2, 2)])
        with pytest.raises(ValueError):
            lower_bound(col)
        with pytest.raises(ValueError):
            upper_bound(col)

    def test_sweep_agrees_with_probe_floor(self):
        # forcing the exhaustive sweep must reproduce the pinched value
        ub_fast = upper_bound(DS_B)
        ub_sweep = upper_bound(DS_B, DirectionSearchConfig(probes=0, exhaustive=True))
        assert ub_fast.bound == ub_sweep.bound == F(1, 3)

    def test_net_refinement_never_beats_exact_sweep(self):
        # the exact minimum over the critical direction set is a true
        # infimum: no direction from a finer random net goes below it
        rng = random.Random(17)
        done = 0
        while done < 15:
            ds = random_dataset(rng, 2, max_n=8)
            if affine_dimension(ds) < 2:
                continue
            exact = upper_bound(ds, DirectionSearchConfig(exhaustive=True))
            assert exact.exact
            for _ in range(60):
                u = (F(rng.randint(-30, 30)), F(rng.randint(-30, 30)))
                if u == (0, 0):
                    continue
                assert projected_lambda(ds, u) >= exact.inf_lambda
            done += 1

    def test_lambda_star_stops_the_search_exactly(self, monkeypatch):
        # no lambda_u is below lambda*, so the first direction reaching it
        # is the one the whole search keeps: only `exact` and the number of
        # directions tried can change
        tried = []
        real = breakdown.projected_lambda

        def spy(ds, u):
            tried.append(u)
            return real(ds, u)

        monkeypatch.setattr(breakdown, "projected_lambda", spy)
        reached = 0
        for ds in _degenerate_planar_sets() + _ball_sets_3d():
            lam = median_region(ds).lambda_star
            for cfg in _CONFIGS:
                tried.clear()
                full = upper_bound(ds, cfg)
                n_full = len(tried)
                tried.clear()
                ub = upper_bound(ds, cfg, lam)
                assert ub == dataclasses.replace(full, exact=ub.exact), (ds.points, cfg)
                assert ub.exact == (full.exact or full.inf_lambda == lam)
                assert repr(ub) == repr(reference_upper_bound(ds, cfg, lam))
                assert len(tried) <= n_full
                reached += full.inf_lambda == lam
        assert reached > 0

    def test_lambda_star_certifies_a_probe_search(self):
        # nine locations with multiplicity: the probes reach lambda* but not
        # the pinch floor, so only lambda* can certify the result
        spec = discrete_cloud(list(itertools.product((-1, 0, 1), repeat=2)))
        ds = sample(spec, n=1600, seed=0, bits=21)
        lam = median_region(ds).lambda_star
        cfg = DirectionSearchConfig(exhaustive=False)
        full = upper_bound(ds, cfg)
        assert (full.inf_lambda, full.exact) == (lam, False) == (F(173, 320), False)
        ub = upper_bound(ds, cfg, lam)
        assert ub.exact
        assert (ub.bound, ub.direction, ub.inf_lambda) == (
            full.bound, full.direction, full.inf_lambda)

    def test_bounds_sandwich_on_random_instances(self):
        rng = random.Random(23)
        done = 0
        while done < 30:
            ds = random_dataset(rng, 2, max_n=7)
            if affine_dimension(ds) < 2:
                continue
            lo = lower_bound(ds)
            ub = upper_bound(ds)
            assert lo <= ub.bound, (ds.points,)
            done += 1


# ---------------------------------------------------------------------------
# constructive attacks


class TestAttack:
    def test_plan_on_degenerate_example(self):
        plan = build_attack(DS_A, (1, 0), distance=10**6)
        assert plan.m == 2
        assert plan.lambda_u == F(1, 2)
        assert plan.x0_projected == (F(0),)
        assert plan.y0 == (F(10**6), F(0))

    def test_verification_certifies_escape(self):
        plan = build_attack(DS_A, (1, 0), distance=10**6)
        res = verify_attack(DS_A, plan)
        # Exact supremum of contaminated depth over the clean hull equals
        # the guaranteed ceiling n*lambda_u/(n+m) = 4*(1/2)/6 here.
        assert res.sup_depth_inside == F(1, 3)
        assert res.sup_depth_inside <= F(DS_A.n, 1) * plan.lambda_u / (DS_A.n + plan.m)
        # m copies at y0 give the contamination site depth exactly m/(n+m)
        assert res.depth_at_y0 == F(plan.m, DS_A.n + plan.m)
        assert res.escaped
        assert tuple(res) == (res.sup_depth_inside, res.depth_at_y0, res.escaped)

    def test_one_fewer_copy_cannot_escape(self):
        plan = build_attack(DS_A, (1, 0), distance=10**6, m=1)
        res = verify_attack(DS_A, plan)
        assert not res.escaped

    def test_attack_beats_hull_depth_at_every_scale(self):
        for scale in (10**3, 10**4, 10**5):
            plan = build_attack(DS_A, (1, 0), distance=scale)
            res = verify_attack(DS_A, plan)
            assert res.escaped
            assert res.depth_at_y0 > res.sup_depth_inside or (
                res.depth_at_y0 == res.sup_depth_inside and res.escaped
            )

    def test_contamination_inside_hull_is_rejected(self):
        plan = ContaminationPlan(
            u=(F(1), F(0)),
            x0_projected=(F(0),),
            y0=(F(1), F(1, 2)),  # strictly inside the clean hull
            m=2,
            distance_scale=F(1),
            gamma=F(1),
            lambda_u=F(1, 2),
        )
        with pytest.raises(ValueError):
            verify_attack(DS_A, plan)

    def test_malformed_plans_are_rejected(self):
        square = dataset([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
        plan = build_attack(square, (1, 0), distance=10**3)
        for m in (0, -1):
            with pytest.raises(ValueError, match="at least one"):
                verify_attack(square, dataclasses.replace(plan, m=m))
        with pytest.raises(ValueError, match="dimension"):
            verify_attack(square, dataclasses.replace(plan, u=(F(1), F(0), F(0))))

    def test_verification_returns_the_contaminated_median(self):
        plan = build_attack(DS_A, (1, 0), distance=10**6)
        res = verify_attack(DS_A, plan)
        contaminated = dataset(list(DS_A.points) + [plan.y0] * plan.m)
        assert res.median == median_region(contaminated).median
        assert len(tuple(res)) == 3

    def test_three_dimensional_attack(self):
        simp = dataset([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
        plan = build_attack(simp, (0, 0, 1), distance=10**4)
        res = verify_attack(simp, plan)
        assert plan.m == 2
        assert res.escaped
        assert res.sup_depth_inside <= F(simp.n, 1) * plan.lambda_u / (simp.n + plan.m)

    def test_missing_exposed_vertex_raises(self, monkeypatch):
        simp = dataset([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
        monkeypatch.setattr(breakdown, "_exposed_vertices", lambda region, proj: [])
        with pytest.raises(RuntimeError, match="no exposed vertex"):
            build_attack(simp, (0, 0, 1), distance=10**4)

    def test_planar_median_regions_have_exposed_vertices(self):
        # a 3-D attack takes x0 from the exposed vertices of a planar median
        # region; small lattice sets with ties and duplicates always have one
        rng = random.Random(2205)
        sizes = set()
        for _ in range(500):
            n = rng.randint(3, 12)
            r = rng.randint(1, 3)
            ds = dataset([(rng.randint(-r, r), rng.randint(-r, r)) for _ in range(n)])
            region = median_region(ds).region
            assert breakdown._exposed_vertices(region, ds), ds.points
            sizes.add(min(len(region.vertices), 4))
        assert sizes == {1, 2, 3, 4}

    def test_attack_soundness_random_instances(self):
        rng = random.Random(29)
        done = 0
        while done < 12:
            ds = random_dataset(rng, 2, max_n=7)
            if affine_dimension(ds) < 2:
                continue
            ub = upper_bound(ds)
            plan = build_attack(ds, ub.direction, distance=10**4)
            res = verify_attack(ds, plan)
            ceiling = F(ds.n, 1) * plan.lambda_u / (ds.n + plan.m)
            assert res.sup_depth_inside <= ceiling, (ds.points,)
            assert res.depth_at_y0 == F(plan.m, ds.n + plan.m)
            assert res.escaped, (ds.points,)
            done += 1


class TestHullCap:
    """The sup of the contaminated depth over the clean hull, read from the
    contaminated median's level or bisected below it."""

    @staticmethod
    def _check(ds, u, m, tops):
        plan = build_attack(ds, u, distance=10**3, m=m)
        res = verify_attack(ds, plan)
        contaminated = dataset(list(ds.points) + [plan.y0] * plan.m)
        assert res.sup_depth_inside == reference_sup_depth_on_hull(ds, contaminated), (
            ds.points, u, m,
        )
        # the sup equals the median's level exactly when its region meets the hull
        return res.sup_depth_inside == tops[-1]

    def test_matches_full_bisection(self, monkeypatch):
        tops = []
        sup = breakdown._sup_depth_on_hull

        def spy(clean, contaminated, top):
            tops.append(top.lambda_star)
            return sup(clean, contaminated, top)

        monkeypatch.setattr(breakdown, "_sup_depth_on_hull", spy)
        rng = random.Random(41)
        directions = [(1, 0), (0, 1), (1, 1), (3, 1), (1, -2), (-2, 3)]
        branches = []
        sets = 0
        while sets < 100:
            ds = random_dataset(rng, 2, max_n=6, denom=1)
            if affine_dimension(ds) < 2:
                continue
            sets += 1
            n = ds.n
            for m in sorted({1, n // 2, n - 1, n, n + 2, 2 * n}):
                branches.append(self._check(ds, rng.choice(directions), m, tops))
        simplex = dataset([(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)])
        for m in (1, 2, 6):
            branches.append(self._check(simplex, (0, 0, 1), m, tops))
        assert any(branches) and not all(branches)

    def test_escaping_plans_build_no_level_region(self, monkeypatch):
        calls = []
        region = breakdown.depth_region

        def counted(*args, **kwargs):
            calls.append(args[1])
            return region(*args, **kwargs)

        monkeypatch.setattr(breakdown, "depth_region", counted)
        spec = degenerate_sampler(ball_sphere_mixture(2), 0.1, 0.2)
        degenerate = next(
            ds
            for ds in (sample(spec, 10, seed, bits=21) for seed in range(100))
            if affine_dimension(ds) == 2
        )
        for ds, u in ((DS_A, (1, 0)), (degenerate, (3, 1))):
            plan = build_attack(ds, u, distance=10**3)
            assert verify_attack(ds, plan).escaped
        assert calls == []

    def test_clean_hull_is_built_once_per_dataset(self, monkeypatch):
        builds = []
        build = geometry._hull_halfspaces_2d

        def counted(pts):
            builds.append(len(pts))
            return build(pts)

        monkeypatch.setattr(geometry, "_hull_halfspaces_2d", counted)
        ds = dataset([(0, 0), (4, 0), (0, 4), (4, 4), (1, 2), (2, 1), (3, 3)])
        for distance in (10**3, 10**4, 10**5):
            verify_attack(ds, build_attack(ds, (3, 1), distance=distance))
        assert builds == [ds.n]


class TestScheduleMemo:
    """Consecutive tenfold placements share one contaminated median: the
    far median of one call is the median of the next when its ``y0`` and
    ``m`` are that far placement."""

    SCALES = (10**3, 10**4, 10**5)
    SIMPLEX = ((0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1), (1, 1, 1))

    @pytest.fixture
    def medians(self, monkeypatch):
        """The point tuples of every ``median_region`` call in breakdown."""
        seen = []
        real = breakdown.median_region

        def spy(ds, *args, **kwargs):
            seen.append(ds.points)
            return real(ds, *args, **kwargs)

        monkeypatch.setattr(breakdown, "median_region", spy)
        return seen

    @staticmethod
    def _run(ds, plans, medians):
        """Verdict reprs on ``ds``, and per call whether the plan's own
        contaminated median was computed (a memo miss); each verdict must
        equal that of a fresh copy of ``ds``, which holds no memo."""
        verdicts, missed = [], []
        for plan in plans:
            medians.clear()
            verdicts.append(repr(verify_attack(ds, plan)))
            missed.append(medians[:1] == [ds.points + (plan.y0,) * plan.m])
            assert verdicts[-1] == repr(verify_attack(dataset(ds.points), plan))
        return verdicts, missed

    def test_shared_dataset_matches_fresh_copies(self, medians):
        hits = 0
        sets = [(ds, upper_bound(ds).direction) for ds in _degenerate_planar_sets()]
        for ds, u in sets + [(dataset(self.SIMPLEX), (0, 0, 1))]:
            plans = [build_attack(ds, u, s) for s in self.SCALES]
            verdicts, missed = self._run(ds, plans, medians)
            assert missed[0]
            hits += missed.count(False)
        assert hits >= 10

    def test_escaping_schedule_computes_four_medians(self, medians):
        # fresh datasets: the memo lives in the clean dataset
        for ds, u in ((dataset(DS_A.points), (1, 0)), (dataset(self.SIMPLEX), (0, 0, 1))):
            calls = 0
            for scale in self.SCALES:
                plan = build_attack(ds, u, scale)
                medians.clear()
                assert verify_attack(ds, plan).escaped
                calls += len(medians)
            assert calls == 4

    def test_descending_scales_miss(self, medians):
        ds = dataset(DS_A.points)
        plans = [build_attack(ds, (1, 0), s) for s in reversed(self.SCALES)]
        assert self._run(ds, plans, medians)[1] == [True, True, True]

    def test_changed_m_misses(self, medians):
        # the low plan of the benchmark: one copy fewer at the next scale
        ds = dataset([(0, 0), (4, 0), (0, 4), (4, 4), (1, 2), (2, 1), (3, 3)])
        high = build_attack(ds, (3, 1), 10**3)
        low = build_attack(ds, (3, 1), 10**4, m=high.m - 1)
        same = build_attack(ds, (3, 1), 10**4)
        verdicts, missed = self._run(ds, [high, low, high, same], medians)
        assert missed == [True, True, True, False]
        assert "escaped=True" in verdicts[0] and "escaped=False" in verdicts[1]

    def test_doubled_gamma_misses(self, medians):
        # coordinates beyond the first distance: y0 is pushed out by
        # doubling gamma, so the next scale's y0 is not the far point
        ds = dataset([(c * 1000 for c in p) for p in DS_A.points])
        plans = [build_attack(ds, (1, 0), s) for s in self.SCALES]
        assert plans[0].gamma == 4 * 10**3 and plans[1].gamma == 10**4
        assert self._run(ds, plans, medians)[1] == [True, True, False]


# ---------------------------------------------------------------------------
# exhaustive small-instance search


class TestExactBreakdown:
    def test_degenerate_example(self):
        rep = exact_breakdown(DS_A)
        assert rep.exact_m == 2
        assert rep.exact_ratio == F(1, 3)
        assert rep.lower == rep.upper == F(1, 3)

    def test_square(self):
        assert exact_breakdown(DS_B).exact_m == 2

    def test_clean_median_is_computed_once(self, monkeypatch):
        calls = []
        median = breakdown.median_region

        def counted(ds, *args, **kwargs):
            calls.append(ds)
            return median(ds, *args, **kwargs)

        monkeypatch.setattr(breakdown, "median_region", counted)
        ds = dataset(DS_A.points)
        rep = exact_breakdown(ds)
        assert rep.lower == F(1, 3)
        assert sum(c is ds for c in calls) == 1

    def test_one_dimensional_closed_form(self):
        rep = exact_breakdown(dataset([(1,), (2,), (3,)]))
        assert rep.dim == 1
        assert rep.exact_m == 3  # the univariate median needs m = n copies
        assert rep.lower == F(2, 5)
        assert rep.upper == F(1, 2)
        rep2 = exact_breakdown(dataset([(0,), (1,), (2,), (2,)]))
        assert rep2.exact_m == 4
        assert rep2.lower == F(1, 3)
        assert rep2.upper == F(1, 2)

    def test_sandwich_against_bounds(self):
        rng = random.Random(31)
        done = 0
        while done < 10:
            ds = random_dataset(rng, 2, max_n=7)
            if affine_dimension(ds) < 2:
                continue
            rep = exact_breakdown(ds)
            if rep.exact_m is None:
                continue
            ratio = rep.exact_ratio
            assert rep.lower <= ratio, (ds.points,)
            assert ratio <= rep.upper or ratio == rep.upper, (ds.points,)
            done += 1

    def test_no_plan_below_m_max(self):
        # lambda* = 1/2 puts the first m tried at 2, above m_max = 1
        rep = exact_breakdown(DS_A, m_max=1)
        assert (rep.exact_m, rep.witness_plan, rep.exact_ratio) == (None, None, None)
        assert rep.lower == rep.upper == F(1, 3)
        assert breakdown_csv_row(rep) == "4,2,1/3,1/3,,,,,"

    def test_csv_row_round_trip(self):
        rep = exact_breakdown(DS_A)
        row = breakdown_csv_row(rep)
        header = BREAKDOWN_CSV_HEADER.split(",")
        import csv
        import io

        parsed = next(csv.reader(io.StringIO(row)))
        assert len(parsed) == len(header)
        record = dict(zip(header, parsed))
        assert record["n"] == "4"
        assert record["d"] == "2"
        assert record["lower"] == "1/3"
        assert record["upper"] == "1/3"
        assert record["exact_m"] == "2"
        assert record["escaped"] == "true"

    def test_rejects_large_or_deficient(self):
        rng = random.Random(5)
        big = dataset(
            [(rng.randint(0, 50), rng.randint(0, 50)) for _ in range(11)]
        )
        with pytest.raises(ValueError):
            exact_breakdown(big)
        with pytest.raises(ValueError):
            exact_breakdown(dataset([(0, 0), (1, 1), (2, 2)]))


# ---------------------------------------------------------------------------
# symmetry of projections (exact counts)


class TestProjectionSymmetry:
    def test_symmetrized_projections_are_halfspace_symmetric(self):
        # For a centrally symmetric dataset, every direction's projection is
        # halfspace symmetric about the projected center: every closed
        # halfspace through it holds at least half the points (exact check
        # via the depth of the projected center).
        rng = random.Random(37)
        for trial in range(12):
            base = random_dataset(rng, 2, max_n=6)
            center = (F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 2))
            sym = symmetrize(base, center)
            n = sym.n
            for _ in range(25):
                u = (F(rng.randint(-20, 20)), F(rng.randint(-20, 20)))
                if all(c == 0 for c in u):
                    continue
                frame = projection_frame(u, 2)
                proj = project_dataset(sym, frame)
                proj_center = tuple(
                    sum(col[i] * center[i] for i in range(2)) for col in frame.basis
                )
                count = tukey_depth(proj_center, proj).count
                assert 2 * count >= n, (u, count, n)

    def test_symmetrized_projections_3d(self):
        rng = random.Random(41)
        for trial in range(6):
            base = random_dataset(rng, 3, max_n=5)
            center = tuple(F(rng.randint(-2, 2)) for _ in range(3))
            sym = symmetrize(base, center)
            for _ in range(15):
                u = tuple(F(rng.randint(-9, 9)) for _ in range(3))
                if all(c == 0 for c in u):
                    continue
                frame = projection_frame(u, 3)
                proj = project_dataset(sym, frame)
                proj_center = tuple(
                    sum(col[i] * center[i] for i in range(3)) for col in frame.basis
                )
                assert 2 * tukey_depth(proj_center, proj).count >= sym.n
