"""Exact rational geometry kernel: parsing, hulls, halfspaces, dataset I/O."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from halfmed.geometry import (
    DataSet,
    Halfspace,
    Side,
    affine_dimension,
    angular_cmp,
    as_fraction,
    canonical_direction,
    convex_hull_2d,
    cross3,
    dataset,
    dataset_from_floats,
    format_rational,
    halfspace,
    hull_halfspaces,
    int_point,
    matrix_rank,
    point,
    read_dataset,
    reduce_dataset,
    side_of,
    snap,
    span_pair,
    vsub,
    write_dataset,
)
from halfmed.depth import convex_hull_contains
from halfmed.polytope import intersect_halfspaces

from oracles import (
    random_dataset,
    random_flat_dataset_3d,
    reference_extreme_points_3d,
    reference_frame_basis,
    reference_hull_halfspaces_3d,
    reference_int_halfspace,
    reference_int_point,
    reference_matrix_rank,
    reference_reduce_dataset,
)


class TestAsFraction:
    def test_ratio_tokens(self):
        assert as_fraction("3/4") == F(3, 4)
        assert as_fraction("-7/2") == F(-7, 2)
        assert as_fraction("0/5") == 0

    def test_decimal_tokens_exact(self):
        assert as_fraction("0.25") == F(1, 4)
        assert as_fraction("-1.5e-3") == F(-3, 2000)
        assert as_fraction("2") == 2

    def test_float_is_binary_exact(self):
        # floats convert by value, not by printed digits
        assert as_fraction(0.5) == F(1, 2)
        assert as_fraction(0.1) == F(0.1)
        assert as_fraction(0.1) != F(1, 10)

    def test_fraction_passthrough(self):
        f = F(22, 7)
        assert as_fraction(f) is f or as_fraction(f) == f

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            as_fraction("1/0")
        with pytest.raises((ValueError, TypeError)):
            as_fraction("abc")

    def test_round_trip_past_the_int_digit_limit(self):
        # the interpreter's int <-> str conversions stop at 4300 digits
        for x in (F(10**5000 + 1, 3), F(-(7**6000), 10**4400 + 9), F(3**9000)):
            text = format_rational(x)
            assert as_fraction(text) == x
        assert format_rational(F(10**5000 + 1, 3)) == "1" + "0" * 4999 + "1/3"
        assert as_fraction("-" + "9" * 5000 + "/7") == F(-(10**5000 - 1), 7)
        # short numbers keep their bytes
        assert [format_rational(x) for x in (F(-3, 4), F(7), F(0))] == ["-3/4", "7", "0"]


class TestSnap:
    def test_snap_grid(self):
        assert snap(0.3, bits=2) == F(1, 4) or snap(0.3, bits=2) == F(1, 2)
        assert snap(0.25, bits=2) == F(1, 4)
        assert snap(F(1, 3), bits=4) == F(5, 16)

    @given(st.floats(-1e6, 1e6), st.integers(1, 40))
    def test_snap_error_bound(self, x, bits):
        s = snap(x, bits=bits)
        assert abs(s - F(x)) <= F(1, 2 ** (bits + 1))


class TestDirections:
    def test_canonical_scale_invariance(self):
        # positive rescaling collapses; opposite directions stay distinct
        assert canonical_direction((F(0), F(-2))) == (F(0), F(-1))
        assert canonical_direction((F(4), F(-6))) == (F(1), F(-3, 2))
        assert canonical_direction((F(2), F(-3))) == (F(1), F(-3, 2))
        assert canonical_direction((F(-4), F(6))) == (F(-1), F(3, 2))

    def test_angular_order_frozen(self):
        vecs = [(1, 0), (2, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)]
        shuffled = vecs[::-1]
        import functools

        got = sorted(shuffled, key=functools.cmp_to_key(angular_cmp))
        assert got == vecs

    @given(
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
        st.tuples(st.integers(-9, 9), st.integers(-9, 9)),
    )
    def test_angular_cmp_total_order(self, a, b, c):
        vs = [v for v in (a, b, c) if v != (0, 0)]
        for v in vs:
            assert angular_cmp(v, v) == 0
        for u, v in [(x, y) for x in vs for y in vs]:
            assert angular_cmp(u, v) == -angular_cmp(v, u)
        # transitivity on a strict chain
        if len(vs) == 3 and angular_cmp(vs[0], vs[1]) < 0 and angular_cmp(vs[1], vs[2]) < 0:
            assert angular_cmp(vs[0], vs[2]) < 0


class TestHalfspace:
    def test_contains_and_side(self):
        h = halfspace((1, -1), 0)  # x - y >= 0
        assert h.contains((F(2), F(1)))
        assert h.contains((F(1), F(1)))
        assert not h.contains((F(0), F(1)))
        assert side_of(h, (F(2), F(1))) is Side.INTERIOR
        assert side_of(h, (F(1), F(1))) is Side.BOUNDARY
        assert side_of(h, (F(0), F(1))) is Side.EXTERIOR

    def test_canonical(self):
        h = halfspace((2, -4), 6).canonical()
        assert h.normal == (F(1), F(-2))
        assert h.offset == F(3)

    def test_zero_normal_rejected(self):
        with pytest.raises(ValueError):
            halfspace((0, 0), 1)


def _random_rational_vector(rng, d):
    """Integer-valued, small or 200-bit-denominator entries of either sign,
    one kind per vector or mixed."""
    draws = {
        "int": lambda: F(rng.randint(-9, 9)),
        "small": lambda: F(rng.randint(-9, 9), rng.randint(1, 12)),
        "big": lambda: F(rng.randint(-2**200, 2**200), rng.randint(1, 2**200)),
    }
    kind = rng.choice(("int", "small", "big", None))
    return tuple(draws[kind or rng.choice(list(draws))]() for _ in range(d))


class TestIntegerForms:
    """The one routine that clears denominators, and the integer row each
    halfspace carries, against the formulas they replaced."""

    def test_int_point_matches_reference(self):
        rng = random.Random(1604)
        for _ in range(400):
            x = _random_rational_vector(rng, rng.randint(1, 4))
            q, a = int_point(x)
            assert (q, a) == reference_int_point(x)
            assert q > 0 and tuple(F(c, q) for c in a) == x

    def test_halfspace_ints_match_reference(self):
        rng = random.Random(1605)
        for _ in range(400):
            d = rng.randint(1, 3)
            normal = _random_rational_vector(rng, d)
            if not any(normal):
                continue
            (offset,) = _random_rational_vector(rng, 1)
            h = halfspace(normal, offset)
            # the stored row is the lcm form, which is the reduced one
            assert h.ints == reference_int_halfspace(normal, offset)
            assert h.den == math.lcm(*(c.denominator for c in (*normal, offset)))
            assert math.gcd(*h.ints[0], h.ints[1], h.den) == 1
            # the Fraction views give the input back, and rebuild h
            assert (h.normal, h.offset) == (normal, offset)
            assert halfspace(h.normal, h.offset) == h
            assert hash(halfspace(h.normal, h.offset)) == hash(h)
            # a positive multiple of the row reduces back to it
            a, b = h.ints
            k = rng.randint(2, 10**6)
            assert Halfspace.of_row(tuple(k * c for c in a), k * b, k * h.den) == h


class TestDataSet:
    def test_duplicates_preserved(self):
        ds = dataset([(0, 0), (1, 1), (1, 1)])
        assert ds.n == 3
        assert ds.dim == 2
        assert ds.points[1] == ds.points[2]

    def test_scaled_ints_exact(self):
        ds = dataset([(F(1, 2), F(1, 3)), (F(-1, 6), F(2)), (F(3), F(-4)), (F(5, 7), F(0))])
        scale, rows = ds.scaled_ints()
        assert scale == 42
        for p, r in zip(ds.points, rows):
            assert all(F(c, scale) == pc for c, pc in zip(r, p))

    def test_row_ints_keep_each_row_on_its_own_denominator(self):
        ds = dataset([(F(1, 2), F(1, 3)), (F(-1, 6), F(2)), (F(3), F(-4)), (F(5, 7), F(0))])
        assert ds.row_ints() == ([6, 6, 1, 7], [(3, 2), (-1, 12), (3, -4), (5, 0)])

    def test_from_floats_snaps(self):
        ds = dataset_from_floats([[0.1, 0.7]], bits=3)
        assert ds.points[0][0].denominator <= 8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            dataset([])

    def test_mixed_dims_rejected(self):
        with pytest.raises(ValueError):
            dataset([(0, 0), (1,)])


class TestAffineDimension:
    def test_cached_per_dataset(self):
        ds = dataset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])
        assert affine_dimension(ds) == 2 and ds._cache["adim"] == 2
        ds._cache["adim"] = 7
        assert affine_dimension(ds) == 7
        assert affine_dimension(list(ds.points)) == 2

    def test_cases(self):
        assert affine_dimension(dataset([(3, 4)])) == 0
        assert affine_dimension(dataset([(0, 0), (1, 1), (2, 2), (1, 1)])) == 1
        assert affine_dimension(dataset([(0, 0), (2, 0), (1, 1), (1, 1)])) == 2
        assert affine_dimension(dataset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])) == 2
        assert affine_dimension(dataset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])) == 3

    def test_matches_rank_of_differences(self):
        # flat 3-D sets of each dimension, then the same points moved off
        # their flat by one extra point, as datasets and as point lists
        rng = random.Random(229)
        for _ in range(40):
            adim = rng.choice((1, 2))
            ds = random_flat_dataset_3d(rng, adim)
            extra = tuple(F(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3))
            for pts in (list(ds.points), list(ds.points) + [extra]):
                want = reference_matrix_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])
                assert affine_dimension(dataset(pts)) == want, pts
                assert affine_dimension(pts) == want
            assert affine_dimension(ds) == adim


class TestMatrixRank:
    def test_matches_fraction_elimination(self):
        rng = random.Random(77)
        ranks = set()
        for _ in range(300):
            rows, cols = rng.randint(1, 6), rng.randint(1, 5)
            true_rank = rng.randint(0, min(rows, cols))
            # a product of random factors has rank at most true_rank, so
            # rank-deficient matrices are common; entries mix ints and Fractions
            left = [[rng.randint(-4, 4) for _ in range(true_rank)] for _ in range(rows)]
            right = [[F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(cols)]
                     for _ in range(true_rank)]
            m = [[sum((a * b for a, b in zip(lr, col)), F(0)) for col in zip(*right)]
                 for lr in left] if true_rank else [[0] * cols for _ in range(rows)]
            m = [[int(c) if rng.random() < 0.5 and c.denominator == 1 else c for c in r]
                 for r in m]
            want = reference_matrix_rank(m)
            assert matrix_rank(m) == want, m
            # denominators divide 60, so this is the same matrix on integers
            assert matrix_rank([[int(c * 60) for c in r] for r in m]) == want
            ranks.add((want, min(rows, cols)))
        assert any(r < full for r, full in ranks)
        assert any(r == full > 0 for r, full in ranks)

    def test_large_integer_entries(self):
        rng = random.Random(78)
        for _ in range(50):
            rows = [[rng.getrandbits(200) - 2**199 for _ in range(4)] for _ in range(3)]
            rows.append([a + 3 * b for a, b in zip(rows[0], rows[1])])
            assert matrix_rank(rows) == reference_matrix_rank(rows) == 3


class TestConvexHull2D:
    def test_square_with_interior(self):
        pts = [point((0, 0)), point((1, 0)), point((1, 1)), point((0, 1)), point((F(1, 2), F(1, 2)))]
        hull = convex_hull_2d(pts)
        assert set(hull) == {point((0, 0)), point((1, 0)), point((1, 1)), point((0, 1))}
        assert len(hull) == 4

    def test_collinear_collapses_to_endpoints(self):
        pts = [point((0, 0)), point((1, 1)), point((3, 3)), point((2, 2))]
        hull = convex_hull_2d(pts)
        assert set(hull) == {point((0, 0)), point((3, 3))}

    def test_single_point(self):
        assert convex_hull_2d([point((2, 5)), point((2, 5))]) == [point((2, 5))]


class TestHullMembership:
    def test_triangle_fixture(self):
        ds = dataset([(0, 0), (2, 0), (1, 1), (1, 1)])
        assert convex_hull_contains(ds, point((1, F(1, 2))))
        assert convex_hull_contains(ds, point((1, 1)))  # vertex
        assert convex_hull_contains(ds, point((1, 0)))  # edge
        assert not convex_hull_contains(ds, point((2, 1)))
        assert not convex_hull_contains(ds, point((-1, 0)))

    def test_segment_dataset(self):
        ds = dataset([(0, 0), (2, 2)])
        assert convex_hull_contains(ds, point((1, 1)))
        assert not convex_hull_contains(ds, point((1, 0)))

    def test_convex_combinations_always_inside(self):
        rng = random.Random(7)
        for _ in range(25):
            d = rng.choice([2, 3])
            ds = random_dataset(rng, d, max_n=7)
            ws = [F(rng.randint(0, 5)) for _ in range(ds.n)]
            tot = sum(ws)
            if tot == 0:
                continue
            x = tuple(
                sum(w * p[j] for w, p in zip(ws, ds.points)) / tot
                for j in range(d)
            )
            assert convex_hull_contains(ds, x)


class TestHullHalfspaces:
    def test_all_dims_cover_data(self):
        rng = random.Random(11)
        for _ in range(30):
            d = rng.choice([1, 2, 3])
            ds = random_dataset(rng, d, max_n=7)
            hs = hull_halfspaces(ds)
            assert hs, "hull must produce at least one halfspace"
            for p in ds.points:
                for h in hs:
                    assert h.contains(p)

    def test_exterior_point_violates(self):
        rng = random.Random(13)
        for _ in range(20):
            d = rng.choice([1, 2, 3])
            ds = random_dataset(rng, d, max_n=7)
            hs = hull_halfspaces(ds)
            far = tuple(max(p[j] for p in ds.points) + 1 for j in range(d))
            assert any(not h.contains(point(far)) for h in hs)

    def test_triangle_facets(self):
        ds = dataset([(0, 0), (2, 0), (1, 1), (1, 1)])
        hs = hull_halfspaces(ds)
        assert len(hs) == 3

    def test_flat_sets_in_space_are_tight(self):
        # the hull of a collinear or coplanar set in space is its reduced
        # hull lifted into the flat: exactly the set's extreme points
        rng = random.Random(23)
        for adim in (1, 2) * 40:
            ds = random_flat_dataset_3d(rng, adim)
            p = intersect_halfspaces(hull_halfspaces(ds), dim=3)
            assert p.affine_dim == adim and not p.unbounded
            assert sorted(p.vertices) == reference_extreme_points_3d(ds.points), ds.points

    def test_3d_facets_match_the_full_split_reference(self):
        # the scan of a plane stops once points lie on both sides; the
        # facets and their order are those of a full split of every plane
        from halfmed import sample, uniform_ball

        rng = random.Random(37)
        grid = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]
        sets = [dataset(grid), dataset(grid + grid[::4]),
                dataset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 1)])]
        sets += [sample(uniform_ball(3), n, seed=0, bits=53) for n in (12, 20)]
        while len(sets) < 45:
            ds = random_dataset(rng, 3, max_n=10, dup_prob=0.3, collinear_prob=0.3,
                                denom=2, span=1)
            if affine_dimension(ds) == 3:
                sets.append(ds)
        for ds in sets:
            assert hull_halfspaces(ds) == reference_hull_halfspaces_3d(ds), ds.points

    def test_each_call_returns_a_fresh_list(self):
        for ds in (dataset([(0,), (3,)]), dataset([(0, 0), (2, 0), (1, 1)]),
                   dataset([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])):
            hs = hull_halfspaces(ds)
            want = list(hs)
            hs.clear()
            assert hull_halfspaces(ds) == want


class TestAffineFrame:
    def test_basis_coordinates_and_lift(self):
        rng = random.Random(29)
        for adim in (1, 2) * 25:
            ds = random_flat_dataset_3d(rng, adim)
            frame, reduced = reduce_dataset(ds)
            # the first nonzero difference, then the first one off its line
            diffs = [vsub(p, ds.points[0]) for p in ds.points[1:]]
            first = next(v for v in diffs if any(v))
            assert frame.base == ds.points[0] and frame.basis[0] == first
            if adim == 2:
                assert frame.basis[1] == next(v for v in diffs if any(cross3(first, v)))
            assert len(frame.basis) == reduced.dim == adim
            assert [frame.point(y) for y in reduced.points] == list(ds.points)

    def test_frame_matches_scanned_basis_and_gram_reference(self):
        # the dual basis within a span is unique, so coordinates and lifted
        # halfspaces keep the Fraction values of the Gram solve
        rng = random.Random(37)
        for adim in (1, 2) * 25:
            ds = random_flat_dataset_3d(rng, adim)
            frame, reduced = reduce_dataset(ds)
            ref, ref_reduced = reference_reduce_dataset(ds)
            assert frame.basis == ref.basis == reference_frame_basis(ds.points)
            assert reduced.points == ref_reduced.points
            xs = [tuple(F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(3))
                  for _ in range(5)]
            assert [frame.coords(x) for x in xs] == [ref.coords(x) for x in xs]
            ys = [tuple(F(rng.randint(-20, 20), rng.randint(1, 4)) for _ in range(adim))
                  for _ in range(5)]
            assert [frame.point(y) for y in ys] == [ref.point(y) for y in ys]
            for _ in range(5):
                h = halfspace([rng.randint(-3, 3) or 1 for _ in range(adim)],
                              F(rng.randint(-9, 9), rng.randint(1, 3)))
                assert frame.halfspace(h) == ref.halfspace(h)

    def test_lifted_halfspaces_and_equations(self):
        rng = random.Random(31)
        for adim in (1, 2) * 25:
            ds = random_flat_dataset_3d(rng, adim)
            frame, reduced = reduce_dataset(ds)
            eqs = frame.equations()
            # opposite pairs of normals orthogonal to the flat and spanning
            # its complement, each pair tight on every data point
            assert len(eqs) == 2 * (3 - adim)
            assert reference_matrix_rank([h.normal for h in eqs]) == 3 - adim
            assert all(sum(a * b for a, b in zip(h.normal, v)) == 0
                       for h in eqs for v in frame.basis)
            assert all(h.contains(p) for h in eqs for p in ds.points)
            for _ in range(5):
                h = halfspace([rng.randint(-3, 3) or 1 for _ in range(adim)],
                              F(rng.randint(-9, 9), rng.randint(1, 3)))
                lifted = frame.halfspace(h)
                for y in reduced.points + tuple(
                    tuple(F(rng.randint(-20, 20), 4) for _ in range(adim)) for _ in range(5)
                ):
                    assert lifted.contains(frame.point(y)) == h.contains(y)


class TestSpanPair:
    def test_first_nonzero_and_first_off_its_line(self):
        vecs = [(0, 0, 0), (1, 2, 3), (0, 0, 0), (-2, -4, -6), (1, 0, 0), (0, 1, 0)]
        assert span_pair(vecs) == ((1, 2, 3), (1, 0, 0))
        assert span_pair(vecs[:4]) == ((1, 2, 3), None)
        assert span_pair([(0, 0, 0)] * 3) == (None, None)
        assert span_pair([]) == (None, None)
        fr = [(F(0), F(0), F(0)), (F(1, 2), F(0), F(1, 3)), (F(1), F(0), F(2, 3)),
              (F(0), F(1, 5), F(0))]
        assert span_pair(fr) == (fr[1], fr[3])

    def test_reads_no_further_than_the_second(self):
        read = []

        def lazy():
            for v in [(0, 0, 0), (1, 1, 0), (2, 2, 0), (0, 0, 1), (5, 5, 5)]:
                read.append(v)
                yield v

        assert span_pair(lazy()) == ((1, 1, 0), (0, 0, 1))
        assert read[-1] == (0, 0, 1)


class TestDatasetIO:
    def test_roundtrip_exact(self, tmp_path):
        ds = dataset([(F(1, 3), F(-2)), (F(7, 2), F(0))], metadata={"name": "demo"})
        path = tmp_path / "pts.txt"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert back.points == ds.points
        assert back.metadata.get("name") == "demo"

    def test_parses_mixed_tokens(self, tmp_path):
        path = tmp_path / "mix.txt"
        path.write_text("# demo data\n0.5 -1/3\n2 0.25\n\n# trailing comment\n1e-2 3\n")
        ds = read_dataset(path)
        assert ds.n == 3
        assert ds.points[0] == (F(1, 2), F(-1, 3))
        assert ds.points[1] == (F(2), F(1, 4))
        assert ds.points[2] == (F(1, 100), F(3))

    def test_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n3\n")
        with pytest.raises(ValueError):
            read_dataset(path)
