"""Exact halfspace intersections, clipping, centroids, and region export."""

import math
import operator
import random
from fractions import Fraction as F

import pytest

from halfmed.geometry import Halfspace, as_fraction, convex_hull_2d, dataset, halfspace, point
from halfmed.polytope import (
    Polytope,
    _box_3d,
    _box_bound,
    _clip,
    _clip_3d,
    _hpoint,
    _hvertex,
    _intersect_2d,
    _intersect_3d,
    _order_planar_cycle,
    _polyhedron_centroid,
    barycenter,
    clip_polygon,
    dedup_halfspaces,
    intersect_halfspaces,
    vertex_centroid,
    write_region_files,
)

from oracles import (
    random_dataset,
    random_flat_dataset_3d,
    reference_extreme_points_3d,
    reference_order_planar_cycle,
    reference_clip_polygon,
    reference_affine_dim,
    reference_dedup_halfspaces,
    reference_feasible,
    reference_intersect_2d,
    reference_intersect_3d,
    reference_polygon_centroid,
    reference_polyhedron_centroid,
    reference_unbounded_direction_2d,
)


def _square(lo=0, hi=1):
    return [
        halfspace((1, 0), lo),
        halfspace((-1, 0), -hi),
        halfspace((0, 1), lo),
        halfspace((0, -1), -hi),
    ]


class TestDedup:
    def test_keeps_tightest_offset(self):
        hs = [halfspace((2, 0), 2), halfspace((1, 0), 3), halfspace((1, 0), -1)]
        out = dedup_halfspaces(hs)
        assert len(out) == 1
        h = out[0]
        # x >= 3 dominates x >= 1 and x >= -1
        assert h.contains((F(3), F(0)))
        assert not h.contains((F(2), F(0)))

    def test_matches_canonical_key_reference(self):
        rng = random.Random(64)
        for _ in range(300):
            d = rng.randint(1, 3)
            hs = []
            for _ in range(rng.randint(1, 12)):
                if hs and rng.random() < 0.5:
                    # a scaled copy of an earlier normal, with its own offset
                    h = rng.choice(hs)
                    s = F(rng.randint(1, 9), rng.randint(1, 9))
                    off = F(rng.randint(-9, 9), rng.randint(1, 7))
                    if rng.random() < 0.4:
                        off = h.offset * s
                    hs.append(halfspace(tuple(c * s for c in h.normal), off))
                else:
                    normal = [F(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(d)]
                    if not any(normal):
                        normal[0] = F(1)
                    hs.append(halfspace(normal, F(rng.randint(-9, 9), rng.randint(1, 7))))
            got = dedup_halfspaces(hs)
            want = reference_dedup_halfspaces(hs)
            assert len(got) == len(want)
            assert all(g is w for g, w in zip(got, want))


class TestIntersect1D:
    def test_interval(self):
        p = intersect_halfspaces([halfspace((1,), 0), halfspace((-1,), -2)])
        assert p.vertices == ((F(0),), (F(2),))
        assert not p.unbounded and not p.empty

    def test_point(self):
        p = intersect_halfspaces([halfspace((1,), 1), halfspace((-1,), -1)])
        assert p.vertices == ((F(1),),)
        assert p.affine_dim == 0

    def test_empty(self):
        p = intersect_halfspaces([halfspace((1,), 2), halfspace((-1,), -1)])
        assert p.empty

    def test_ray_unbounded(self):
        p = intersect_halfspaces([halfspace((1,), 0)])
        assert p.unbounded


class TestIntersect2D:
    def test_singleton_from_four_diagonal_cuts(self):
        hs = [
            halfspace((-1, 1), 0),
            halfspace((1, -1), 0),
            halfspace((1, 1), 2),
            halfspace((-1, -1), -2),
        ]
        p = intersect_halfspaces(hs)
        assert p.vertices == ((F(1), F(1)),)
        assert p.affine_dim == 0
        assert not p.empty and not p.unbounded

    def test_opposite_pair_is_unbounded_line(self):
        p = intersect_halfspaces([halfspace((-1, 1), 0), halfspace((1, -1), 0)])
        assert p.unbounded
        assert p.affine_dim == 1

    def test_unit_square(self):
        p = intersect_halfspaces(_square())
        assert len(p.vertices) == 4
        assert set(p.vertices) == {
            point((0, 0)),
            point((1, 0)),
            point((1, 1)),
            point((0, 1)),
        }
        assert barycenter(p) == (F(1, 2), F(1, 2))

    def test_empty_intersection(self):
        p = intersect_halfspaces([halfspace((1, 0), 1), halfspace((-1, 0), 0)])
        assert p.empty
        assert p.vertices == ()

    def test_segment(self):
        hs = _square() + [halfspace((1, 1), 1), halfspace((-1, -1), -1)]
        p = intersect_halfspaces(hs)  # diagonal x + y = 1 inside the square
        assert p.affine_dim == 1
        assert set(p.vertices) == {point((1, 0)), point((0, 1))}

    def test_halfplane_unbounded(self):
        p = intersect_halfspaces([halfspace((1, 0), 0)])
        assert p.unbounded

    def test_vertices_satisfy_all_constraints(self):
        rng = random.Random(3)
        for _ in range(60):
            hs = []
            for _ in range(rng.randint(2, 8)):
                n = (rng.randint(-4, 4), rng.randint(-4, 4))
                if n == (0, 0):
                    continue
                hs.append(halfspace(n, F(rng.randint(-8, 8), rng.randint(1, 3))))
            if not hs:
                continue
            p = intersect_halfspaces(hs, dim=2)
            for v in p.vertices:
                assert all(h.contains(v) for h in hs)
            if not p.empty and not p.unbounded and p.vertices:
                assert all(h.contains(barycenter(p)) for h in hs)


class TestIntersect3D:
    def _cube(self):
        hs = []
        for i in range(3):
            lo = [0, 0, 0]
            hi = [0, 0, 0]
            lo[i] = 1
            hi[i] = -1
            hs.append(halfspace(tuple(lo), 0))
            hs.append(halfspace(tuple(hi), -1))
        return hs

    def test_cube(self):
        p = intersect_halfspaces(self._cube())
        assert len(p.vertices) == 8
        assert barycenter(p) == (F(1, 2), F(1, 2), F(1, 2))
        assert p.affine_dim == 3

    def test_tetrahedron(self):
        hs = [
            halfspace((1, 0, 0), 0),
            halfspace((0, 1, 0), 0),
            halfspace((0, 0, 1), 0),
            halfspace((-1, -1, -1), -1),
        ]
        p = intersect_halfspaces(hs)
        assert len(p.vertices) == 4
        assert barycenter(p) == (F(1, 4), F(1, 4), F(1, 4))

    def test_slab_unbounded(self):
        p = intersect_halfspaces(
            [halfspace((0, 0, 1), 0), halfspace((0, 0, -1), -1)]
        )
        assert p.unbounded

    def test_planar_square_in_space(self):
        hs = self._cube() + [halfspace((0, 0, 1), 1)]  # z >= 1 pins z = 1
        p = intersect_halfspaces(hs)
        assert p.affine_dim == 2
        assert len(p.vertices) == 4
        assert barycenter(p) == (F(1, 2), F(1, 2), F(1))

    def test_singleton_corner(self):
        hs = [
            halfspace((1, 0, 0), 0),
            halfspace((0, 1, 0), 0),
            halfspace((0, 0, 1), 0),
            halfspace((-1, -1, -1), 0),
        ]
        p = intersect_halfspaces(hs)
        assert p.vertices == ((F(0), F(0), F(0)),)

    def test_empty(self):
        hs = [halfspace((0, 0, 1), 1), halfspace((0, 0, -1), 0)]
        p = intersect_halfspaces(hs)
        assert p.empty


def _random_halfspaces_3d(rng):
    """A box plus four to six planes through one point, parallel copies,
    coincident copies (rescaled, or reversed to pin a flat) and random
    planes, shuffled."""
    b = rng.randint(2, 5)
    hs = []
    for i in range(3):
        e = [0, 0, 0]
        e[i] = 1
        hs.append(halfspace(tuple(e), -b))
        e[i] = -1
        hs.append(halfspace(tuple(e), -b))
    apex = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(3))

    def small_normal():
        while True:
            n = tuple(rng.randint(-3, 3) for _ in range(3))
            if n != (0, 0, 0):
                return n

    for _ in range(rng.randint(4, 6)):
        n = small_normal()
        hs.append(halfspace(n, sum(a * c for a, c in zip(n, apex))))
    for _ in range(rng.randint(0, 3)):
        h = rng.choice(hs)
        hs.append(halfspace(h.normal, h.offset + F(rng.randint(-3, 3), 2)))
    for _ in range(rng.randint(0, 2)):
        h = rng.choice(hs)
        s = F(rng.randint(1, 4), rng.randint(1, 3)) * rng.choice((1, -1))
        hs.append(halfspace(tuple(s * c for c in h.normal), s * h.offset))
    for _ in range(rng.randint(0, 3)):
        hs.append(halfspace(small_normal(), F(rng.randint(-6, 6), rng.randint(1, 2))))
    rng.shuffle(hs)
    return hs, apex


class TestIntersect3DMatchesCramerReference:
    def test_random_degenerate_sets(self):
        rng = random.Random(4242)
        apex_vertices = 0
        kinds = set()
        for _ in range(150):
            hs, apex = _random_halfspaces_3d(rng)
            got = _intersect_3d(hs)
            assert got == reference_intersect_3d(hs), hs
            assert repr(got) == repr(reference_intersect_3d(hs))
            apex_vertices += apex in got.vertices
            kinds.add(None if got.empty else got.affine_dim)
            deduped = intersect_halfspaces(hs)
            assert deduped.vertices == reference_intersect_3d(dedup_halfspaces(hs)).vertices
        # the draws reach vertices with four or more planes through them,
        # empty sets and flat as well as solid polytopes
        assert apex_vertices >= 20
        assert {None, 2, 3} <= kinds


def _random_open_halfspaces(rng, d):
    """Lines or planes through one point, random ones, opposite copies that
    pin a flat and rescaled copies, shuffled: sets of every kind, bounded or
    not, with offsets sometimes scaled by 10^6 or 10^-6."""

    def small_normal():
        while True:
            n = tuple(F(rng.randint(-3, 3), rng.choice((1, 1, 2))) for _ in range(d))
            if any(n):
                return n

    apex = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d))
    hs = []
    for _ in range(rng.randint(0, 4)):
        n = small_normal()
        hs.append(halfspace(n, sum(a * c for a, c in zip(n, apex))))
    for _ in range(rng.randint(0 if hs else 1, 3)):
        hs.append(halfspace(small_normal(), F(rng.randint(-6, 3), rng.randint(1, 3))))
    for _ in range(rng.randint(0, 2)):
        h = rng.choice(hs)
        s = F(rng.randint(1, 3), rng.randint(1, 2))
        shift = F(rng.randint(-2, 2), 3) if rng.random() < 0.3 else 0
        hs.append(halfspace(tuple(-s * c for c in h.normal), -s * (h.offset + shift)))
    for _ in range(rng.randint(0, 1)):
        h = rng.choice(hs)
        s = F(rng.randint(1, 4), rng.randint(1, 3))
        hs.append(halfspace(tuple(s * c for c in h.normal), s * h.offset))
    scale = F(10) ** rng.choice((-6, 0, 0, 6))
    hs = [halfspace(h.normal, h.offset * scale) for h in hs]
    rng.shuffle(hs)
    return hs


def _kind(p):
    return "empty" if p.empty else ("unbounded" if p.unbounded else "bounded", p.affine_dim)


class TestIntersect2DMatchesPairReference:
    def test_random_sets_of_every_kind(self):
        rng = random.Random(5151)
        kinds = set()
        for _ in range(600):
            hs = _random_open_halfspaces(rng, 2)
            got = _intersect_2d(hs)
            assert repr(got) == repr(reference_intersect_2d(hs)), hs
            deduped = intersect_halfspaces(hs)
            assert repr(deduped) == repr(reference_intersect_2d(reference_dedup_halfspaces(hs)))
            kinds.add(_kind(got))
        assert kinds == {
            "empty",
            ("bounded", 0), ("bounded", 1), ("bounded", 2),
            ("unbounded", 1), ("unbounded", 2),
        }


class TestIntersect3DUnboundedMatchesReference:
    """Sets with no bounding box against the recession-cone test, the LP and
    the implicit-equality rank of the reference."""

    def test_random_sets_of_every_kind(self):
        rng = random.Random(5252)
        kinds = set()
        for _ in range(300):
            hs = _random_open_halfspaces(rng, 3)
            got = _intersect_3d(hs)
            assert repr(got) == repr(reference_intersect_3d(hs)), hs
            kinds.add(_kind(got))
        assert kinds == {
            "empty",
            ("bounded", 0), ("bounded", 1), ("bounded", 2), ("bounded", 3),
            ("unbounded", 1), ("unbounded", 2), ("unbounded", 3),
        }

    def test_ray_whose_flatness_no_opposite_pair_shows(self):
        # {(-1, y, 1) : y >= 1/2}: x = -1 and z = 1 are implied by the six
        # constraints together, not by two opposite halfspaces
        hs = [
            halfspace((-2, 0, -1), -2),
            halfspace((-2, 2, 2), -3),
            halfspace((0, 2, 1), 2),
            halfspace((1, 0, -2), -3),
            halfspace((0, 0, 1), 1),
            halfspace((-1, 0, -2), -1),
        ]
        p = intersect_halfspaces(hs)
        assert p.unbounded and not p.empty
        assert p.affine_dim == 1 == reference_affine_dim(hs, 3)
        assert p.contains((F(-1), F(1, 2), F(1))) and p.contains((F(-1), F(10**9), F(1)))
        assert not p.contains((F(-1), F(1, 3), F(1)))


def _flat_halfspaces_3d(rng):
    """``_random_halfspaces_3d`` with zero to three of the planes through its
    apex also reversed, pinning a plane, a line or the apex alone."""
    hs, apex = _random_halfspaces_3d(rng)
    through = [h for h in hs if sum(a * c for a, c in zip(h.normal, apex)) == h.offset]
    for h in rng.sample(through, rng.randint(0, min(3, len(through)))):
        hs.append(halfspace(tuple(-c for c in h.normal), -h.offset))
    rng.shuffle(hs)
    return hs, apex


def _tight(constraints, v):
    """The numbers of the integer constraints whose boundary plane holds the
    homogeneous vertex ``v``."""
    return {i for i, (n, c) in constraints.items() if sum(map(operator.mul, n, v)) == c * v[3]}


class TestClip3DMatchesCramerReference:
    """The clip, one cut at a time from the Cramer box, against the vertices
    of every triple of boundary planes that satisfy every constraint; after
    every cut, each vertex's tight set is every plane through it."""

    def test_each_cut_gives_the_reference_vertices(self):
        rng = random.Random(4343)
        kinds = set()
        apex_vertices = 0
        for _ in range(80):
            hs, apex = _flat_halfspaces_3d(rng)
            ints = [h.ints for h in hs]
            m = _box_bound(ints, 3)
            box = []
            for i in range(3):
                e = tuple(int(j == i) for j in range(3))
                box += [halfspace(e, -m), halfspace(tuple(-c for c in e), -m)]
            verts = _box_3d([(-m, m)] * 3)
            applied = dict(enumerate(h.ints for h in box))
            # the reference at one cut along the way and at the last
            checked = {rng.randrange(len(hs)), len(hs) - 1}
            for i, (normal, offset) in enumerate(ints, 6):
                verts = _clip_3d(verts, i, normal, offset)
                applied[i] = (normal, offset)
                if i - 6 in checked:
                    want = reference_intersect_3d(box + hs[: i - 5])
                    assert {_hpoint(v) for v in verts} == set(want.vertices), hs[: i - 5]
                for v, tight in verts.items():
                    assert v[3] > 0 and math.gcd(*v) == 1
                    assert tight == _tight(applied, v), (hs[: i - 5], v)
            kinds.add("empty" if want.empty else want.affine_dim)
            apex_vertices += _hvertex(apex) in verts
        # empty sets, points, segments, polygons and solids, and vertices with
        # four or more planes through them
        assert kinds == {"empty", 0, 1, 2, 3}
        assert apex_vertices >= 10

    def test_box_with_equal_bounds_merges_corners(self):
        verts = _box_3d([(F(1), F(1)), (F(0), F(2)), (F(-1, 2), F(-1, 2))])
        assert verts == {
            (2, 0, -1, 2): frozenset({0, 1, 2, 4, 5}),
            (2, 4, -1, 2): frozenset({0, 1, 3, 4, 5}),
        }
        assert _box_3d([(F(1), F(0)), (F(0), F(2)), (F(0), F(1))]) == {}
        # the segment is cut at its midpoint, tight only at the line's planes
        cut = _clip_3d(verts, 6, (0, 1, 0), 1)
        assert cut == {
            (2, 4, -1, 2): frozenset({0, 1, 3, 4, 5}),
            (2, 2, -1, 2): frozenset({0, 1, 4, 5, 6}),
        }


class TestClipPolygon:
    def test_square_clipped_by_diagonal(self):
        square = [point((0, 0)), point((1, 0)), point((1, 1)), point((0, 1))]
        out = clip_polygon(square, halfspace((-1, -1), -1))  # x + y <= 1
        assert set(out) == {point((0, 0)), point((1, 0)), point((0, 1))}

    def test_clip_to_nothing(self):
        square = [point((0, 0)), point((1, 0)), point((1, 1)), point((0, 1))]
        assert clip_polygon(square, halfspace((1, 0), 5)) == []

    def test_clip_to_edge(self):
        square = [point((0, 0)), point((1, 0)), point((1, 1)), point((0, 1))]
        out = clip_polygon(square, halfspace((1, 0), 1))  # x >= 1
        assert set(out) == {point((1, 0)), point((1, 1))}

    def test_no_change_when_inside(self):
        tri = [point((0, 0)), point((2, 0)), point((1, 1))]
        out = clip_polygon(tri, halfspace((0, -1), -5))
        assert set(out) == set(tri)


def _random_shape(rng):
    """A polygon, segment or point on a coarse rational grid, hull-ordered."""
    while True:
        pts = [
            (F(rng.randint(-6, 6), rng.randint(1, 3)), F(rng.randint(-6, 6), rng.randint(1, 3)))
            for _ in range(rng.choice((1, 2, 2, 3, 4, 5, 7)))
        ]
        shape = convex_hull_2d(pts)
        if shape:
            return shape


def _cuts_for(rng, shape):
    """Random cuts, cuts through a vertex or two, and cuts along an edge
    line in both senses (one keeps the shape, one collapses it to the edge)."""
    cuts = []
    for _ in range(3):
        nrm = (rng.randint(-3, 3), rng.randint(-3, 3))
        if nrm != (0, 0):
            cuts.append(halfspace(nrm, F(rng.randint(-9, 9), rng.randint(1, 4))))
    for v in shape:
        nrm = (rng.randint(-3, 3), rng.randint(-3, 3))
        if nrm != (0, 0):
            cuts.append(halfspace(nrm, sum(a * b for a, b in zip(nrm, v))))
    for a, b in zip(shape, shape[1:] + shape[:1]):
        if a != b:
            nrm = (a[1] - b[1], b[0] - a[0])
            off = sum(x * y for x, y in zip(nrm, a))
            cuts += [halfspace(nrm, off), halfspace(tuple(-c for c in nrm), -off)]
            # the same line, shifted a little to either side
            cuts += [halfspace(nrm, off + F(1, 7)), halfspace(nrm, off - F(1, 7))]
    return cuts


class TestClipMatchesFractionReference:
    """The integer clip against the Fraction Sutherland-Hodgman reference."""

    def test_random_shapes_and_cuts(self):
        rng = random.Random(606)
        seen = set()
        for _ in range(400):
            shape = _random_shape(rng)
            for h in _cuts_for(rng, shape):
                want = reference_clip_polygon(shape, h)
                got = clip_polygon(shape, h)
                # the reference's vertices in hull order, which is its own
                # order whenever three or more vertices remain
                assert got == convex_hull_2d(want), (shape, h)
                if len(want) >= 3:
                    assert got == want
                # reversed (clockwise) input gives the same clip
                assert clip_polygon(shape[::-1], h) == got
                # the integer routine: reduced homogeneous vertices, w > 0
                normal, offset = h.ints
                ints = _clip([_hvertex(v) for v in shape], normal, offset)
                assert ints == [_hvertex(v) for v in got]
                assert all(w > 0 and math.gcd(x, y, w) == 1 for x, y, w in ints)
                seen.add((min(len(shape), 3), min(len(got), 3)))
        # polygons, segments and points that stay, shrink, collapse to a
        # segment or a point, or vanish
        assert seen == {(3, 3), (3, 2), (3, 1), (3, 0), (2, 2), (2, 1), (2, 0), (1, 1), (1, 0)}


def _positions(items, kept):
    """Positions in ``items`` of the very objects in ``kept``."""
    ids = [id(x) for x in items]
    return [ids.index(id(x)) for x in kept]


def _scaled(row, f):
    normal, offset = row
    return tuple(f * c for c in normal), f * offset


class TestPositiveMultiplesOfIntegerRows:
    """The clips and the deduplication read only the signs of
    ``normal . x - offset``, so they give identical results when a
    constraint's integer row is replaced by a positive multiple of it."""

    def test_clip(self):
        rng = random.Random(1601)
        for _ in range(200):
            shape = _random_shape(rng)
            poly = [_hvertex(v) for v in shape]
            for h in _cuts_for(rng, shape):
                want = _clip(poly, *h.ints)
                assert _clip(poly, *_scaled(h.ints, rng.randint(2, 10**6))) == want, (shape, h)

    def test_clip_3d(self):
        rng = random.Random(1602)
        for _ in range(40):
            hs, _ = _flat_halfspaces_3d(rng)
            m = _box_bound([h.ints for h in hs], 3)
            plain = scaled = _box_3d([(-m, m)] * 3)
            for i, h in enumerate(hs, 6):
                plain = _clip_3d(plain, i, *h.ints)
                scaled = _clip_3d(scaled, i, *_scaled(h.ints, rng.randint(2, 10**6)))
                assert scaled == plain, hs[: i - 5]

    def test_dedup_halfspaces(self):
        rng = random.Random(1603)
        draws = [_random_halfspaces_3d(rng)[0] for _ in range(60)]
        for _ in range(60):
            shape = _random_shape(rng)
            draws.append(_cuts_for(rng, shape) + _cuts_for(rng, shape))
        for hs in draws:
            copies = []
            for h in hs:
                # the same halfspace on an unreduced, scaled integer row
                k = rng.randint(2, 10**6)
                copies.append(Halfspace(_scaled(h.ints, k), h.den * k))
            got = _positions(copies, dedup_halfspaces(copies))
            assert got == _positions(hs, dedup_halfspaces(hs)), hs


class TestUnboundedTestMatchesFractionReference:
    def test_random_normal_sets(self):
        rng = random.Random(77)
        outcomes = set()
        for _ in range(600):
            base = [(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
            base = [v for v in base if v != (0, 0)] or [(1, 0)]
            # rescaled and reversed copies make parallel and opposite normals
            normals = base + [
                tuple(c * rng.choice((-2, -1, 1, 3)) for c in rng.choice(base))
                for _ in range(rng.randint(0, 3))
            ]
            hs = [halfspace(nv, rng.randint(-3, 3)) for nv in normals]
            # an unbounded set has a nonzero recession cone and a point
            want = reference_unbounded_direction_2d(hs) and reference_feasible(
                [(h.normal, h.offset) for h in hs]
            )
            assert intersect_halfspaces(hs).unbounded == want, hs
            outcomes.add(want)
        assert outcomes == {True, False}


class TestPlanarCycleMatchesScanReference:
    def test_coplanar_and_collinear_points(self):
        rng = random.Random(2027)
        for adim in (2, 2, 1) * 20:
            verts = reference_extreme_points_3d(random_flat_dataset_3d(rng, adim).points)
            rng.shuffle(verts)
            scaled = [tuple(int(c * 6) for c in v) for v in verts]  # integer points
            for vs in (verts, scaled):
                assert _order_planar_cycle(vs) == reference_order_planar_cycle(vs), vs


class TestBarycenter:
    def test_triangle(self):
        hs = [
            halfspace((0, 1), 0),
            halfspace((1, -1), 0),
            halfspace((-1, -1), -2),
        ]
        p = intersect_halfspaces(hs)
        assert set(p.vertices) == {point((0, 0)), point((2, 0)), point((1, 1))}
        assert barycenter(p) == (F(1), F(1, 3))

    def test_segment_midpoint(self):
        p = intersect_halfspaces([halfspace((1,), 0), halfspace((-1,), -3)])
        assert barycenter(p) == (F(3, 2),)

    def test_vertex_centroid_differs_on_lopsided_polygon(self):
        hs = [
            halfspace((0, 1), 0),
            halfspace((0, -1), -1),
            halfspace((1, 0), 0),
            halfspace((-1, 0), -1),
            halfspace((-1, -1), -F(3, 2)),
        ]
        p = intersect_halfspaces(hs)
        assert len(p.vertices) == 5
        assert vertex_centroid(p) != barycenter(p)

    def test_flat_polygons_in_space_map_with_their_plane(self):
        # the area centroid commutes with affine maps: a polygon mapped into
        # space by an injective integer affine map, its vertices in any
        # order, has the image of its planar centroid as its centroid
        rng = random.Random(4747)
        done = 0
        while done < 200:
            pts = [(F(rng.randint(-8, 8), rng.randint(1, 3)), F(rng.randint(-8, 8), rng.randint(1, 2)))
                   for _ in range(rng.randint(3, 9))]
            hull = convex_hull_2d(pts)
            cols = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(2)]
            normal = [cols[0][(j + 1) % 3] * cols[1][(j + 2) % 3]
                      - cols[0][(j + 2) % 3] * cols[1][(j + 1) % 3] for j in range(3)]
            if len(hull) < 3 or not any(normal):
                continue
            shift = [F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(3)]

            def lift(y):
                return tuple(s + y[0] * a + y[1] * b for s, a, b in zip(shift, *cols))

            flat = [lift(v) for v in hull]
            rng.shuffle(flat)
            planar = Polytope((), tuple(hull), 2, 2, empty=False, unbounded=False)
            spatial = Polytope((), tuple(flat), 3, 2, empty=False, unbounded=False)
            assert barycenter(planar) == reference_polygon_centroid(hull)
            assert barycenter(spatial) == lift(barycenter(planar))
            done += 1


class TestPolyhedronCentroid:
    """The integer volume centroid against the Fraction pyramids."""

    def _box(self, lo, hi):
        hs = []
        for i in range(3):
            e = [0, 0, 0]
            e[i] = 1
            hs.append(halfspace(tuple(e), lo[i]))
            e[i] = -1
            hs.append(halfspace(tuple(e), -hi[i]))
        return hs

    def _face_sizes(self, p):
        return [
            sum(1 for v in p.vertices if sum(a * b for a, b in zip(h.normal, v)) == h.offset)
            for h in p.halfspaces
        ]

    def _check(self, p):
        got = _polyhedron_centroid(list(p.vertices), p.halfspaces)
        assert got == reference_polyhedron_centroid(list(p.vertices), p.halfspaces)
        return got

    def test_cube_and_box(self):
        assert self._check(intersect_halfspaces(self._box((0, 0, 0), (1, 1, 1)))) == (
            F(1, 2), F(1, 2), F(1, 2))
        p = intersect_halfspaces(self._box((F(-1, 3), 2, 0), (1, F(7, 2), F(1, 5))))
        assert self._check(p) == (F(1, 3), F(11, 4), F(1, 10))

    def test_tetrahedron(self):
        # vertices 0, (1, 0, 0), (0, 2, 0) and (0, 0, 3); the centroid of a
        # tetrahedron is its vertex average
        hs = [halfspace((1, 0, 0), 0), halfspace((0, 1, 0), 0), halfspace((0, 0, 1), 0),
              halfspace((-6, -3, -2), -6)]
        p = intersect_halfspaces(hs)
        assert len(p.vertices) == 4
        assert self._check(p) == (F(1, 4), F(1, 2), F(3, 4))
        assert barycenter(p) == vertex_centroid(p)

    def test_random_solid_polytopes_with_polygon_faces(self):
        rng = random.Random(4545)
        big_faces = 0
        solids = 0
        while solids < 60:
            hs, _ = _random_halfspaces_3d(rng)
            p = intersect_halfspaces(hs)
            if p.empty or p.affine_dim != 3:
                continue
            solids += 1
            c = self._check(p)
            assert p.contains(c)
            big_faces += sum(size >= 4 for size in self._face_sizes(p))
        assert big_faces >= 60

    def test_region_polytopes(self):
        from halfmed import depth_region

        rng = random.Random(4646)
        flat = solid = big_faces = 0
        while solid < 12 or flat < 3 or big_faces < 3:
            ds = random_dataset(rng, 3, max_n=8, dup_prob=0.3, collinear_prob=0.3,
                                denom=2, span=2)
            for k in (1, 2):
                p = depth_region(ds, F(k, ds.n)).polytope
                if p.empty or p.affine_dim is None or p.affine_dim < 2:
                    continue
                c = self._check(p)
                if p.affine_dim == 3:
                    solid += 1
                    assert c == barycenter(p)
                    big_faces += max(self._face_sizes(p)) >= 4
                else:
                    # no volume: both fall back to the vertex average
                    flat += 1
                    assert c == vertex_centroid(p)


class TestRegionExport:
    def test_files_roundtrip(self, tmp_path):
        p = intersect_halfspaces(_square())
        paths = write_region_files(p, tmp_path, "sq")
        texts = {pp.name for pp in paths}
        assert texts == {"sq_vertices.txt", "sq_halfspaces.txt", "sq_vertices.csv"}
        body = (tmp_path / "sq_vertices.txt").read_text()
        assert "1" in body
        csv_body = (tmp_path / "sq_vertices.csv").read_text().strip().splitlines()
        assert csv_body[0].split(",")[0] == "x1"
        assert len(csv_body) == 5

    def test_vertex_past_the_int_digit_limit(self, tmp_path):
        # exact medians of a hundred or more points reach 5,000-digit
        # denominators; the files carry every digit
        c = F(10**5000 + 1, 3 * 10**4999 + 7)
        p = intersect_halfspaces([halfspace((1,), c), halfspace((-1,), -c)])
        write_region_files(p, tmp_path, "big")
        (line,) = (tmp_path / "big_vertices.txt").read_text().splitlines()
        assert as_fraction(line) == c and len(line) == 10_002
        rows = (tmp_path / "big_vertices.csv").read_text().splitlines()
        assert rows == ["x1", line]
        hs = (tmp_path / "big_halfspaces.txt").read_text().splitlines()
        assert [as_fraction(h.split(" >= ")[1]) for h in hs] == [c, -c]

    @pytest.mark.parametrize("hs, header", [
        ([halfspace((1,), 2), halfspace((-1,), -1)], "# empty region\n"),
        ([halfspace((1, 0), 0), halfspace((0, 1), 0)],
         "# unbounded region (no vertex enumeration)\n"),
    ], ids=["empty", "unbounded"])
    def test_empty_and_unbounded_regions(self, tmp_path, hs, header):
        p = intersect_halfspaces(hs)
        write_region_files(p, tmp_path, "r")
        assert (tmp_path / "r_vertices.txt").read_text() == header
        lines = "".join(f"{' '.join(map(str, h.normal))} >= {h.offset}\n" for h in hs)
        assert (tmp_path / "r_halfspaces.txt").read_text() == lines
        header_row = ",".join(f"x{i + 1}" for i in range(p.dim))
        assert (tmp_path / "r_vertices.csv").read_bytes() == f"{header_row}\r\n".encode()

    def test_halfspace_file_mentions_all(self, tmp_path):
        p = intersect_halfspaces(_square())
        write_region_files(p, tmp_path, "sq")
        hs_body = (tmp_path / "sq_halfspaces.txt").read_text()
        assert len([ln for ln in hs_body.splitlines() if ln.strip() and not ln.startswith("#")]) == 4
