"""Exact intersection of closed halfspaces in dimensions 1 to 3.

The intersections arising from depth regions are frequently degenerate —
segments, single points, or empty sets — so the vertex enumeration never
assumes full dimensionality.  Everything runs on integers after clearing
denominators.  A box is clipped by each halfspace in turn: in 2-D a
polygon, in 3-D a vertex set that records the constraints tight at each
vertex, so that a cut meets only the edges it crosses.  The cutting loops
clip the same way, one new cut at a time.

``intersect_halfspaces`` intersects inside the box ``[-M, M]^d`` with ``M``
one more than Cramer's bound on the arrangement's vertices.  So a bounded
set lies strictly inside the box, and a vertex on the box boundary means
the set is unbounded; it is then reported with a flag instead of a vertex
list.
"""

from __future__ import annotations

import csv
import itertools
import math
import pathlib
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence

from .geometry import (
    Halfspace,
    Vec,
    convex_hull_2d,
    cross2,
    cross3,
    dot3,
    format_rational,
    int_point,
    matrix_rank,
    span_pair,
    vsub,
)


@dataclass(frozen=True)
class Polytope:
    """Result of intersecting closed halfspaces.

    ``vertices`` lists the extreme points (counter-clockwise in the plane)
    and is empty when the set is empty or unbounded; ``affine_dim`` is None
    only for empty sets.
    """

    halfspaces: tuple[Halfspace, ...]
    vertices: tuple[Vec, ...]
    dim: int
    affine_dim: int | None
    empty: bool
    unbounded: bool

    def contains(self, x: Sequence[Fraction]) -> bool:
        if self.empty:
            return False
        return all(h.contains(x) for h in self.halfspaces)


def dedup_halfspaces(halfspaces: Sequence[Halfspace]) -> list[Halfspace]:
    """Drop exact duplicates and keep only the tightest offset per direction."""
    # primitive integer normal -> (integer offset, its divisor g, halfspace);
    # on the primitive normal the offset is offset / g
    best: dict[tuple[int, ...], tuple[int, int, Halfspace]] = {}
    for h in halfspaces:
        normal, offset = h.ints
        g = math.gcd(*normal)
        key = tuple(c // g for c in normal)
        cur = best.get(key)
        # a larger offset is the more restrictive constraint
        if cur is None or offset * cur[1] > cur[0] * g:
            best[key] = (offset, g, h)
    return [h for _, _, h in best.values()]


def intersect_halfspaces(halfspaces: Sequence[Halfspace], dim: int | None = None) -> Polytope:
    """Exact intersection for ambient dimension 1, 2 or 3."""
    hs = list(halfspaces)
    if not hs:
        raise ValueError("at least one halfspace is required")
    d = dim if dim is not None else hs[0].dim
    if any(h.dim != d for h in hs):
        raise ValueError("halfspace dimensions disagree")
    if d not in (1, 2, 3):
        raise ValueError(f"exact intersection supports d in {{1,2,3}}, got {d}")
    hs = dedup_halfspaces(hs)
    if d == 1:
        return _intersect_1d(hs)
    if d == 2:
        return _intersect_2d(hs)
    return _intersect_3d(hs)


# ---------------------------------------------------------------------------
# d = 1


def _intersect_1d(hs: list[Halfspace]) -> Polytope:
    lo = None
    hi = None
    for h in hs:
        (a,), b = h.ints
        bound = Fraction(b, a)
        if a > 0:
            lo = bound if lo is None else max(lo, bound)
        else:
            hi = bound if hi is None else min(hi, bound)
    base = tuple(hs)
    if lo is None or hi is None:
        return Polytope(base, (), 1, 1, empty=False, unbounded=True)
    if lo > hi:
        return Polytope(base, (), 1, None, empty=True, unbounded=False)
    if lo == hi:
        return Polytope(base, ((lo,),), 1, 0, empty=False, unbounded=False)
    return Polytope(base, ((lo,), (hi,)), 1, 1, empty=False, unbounded=False)


# ---------------------------------------------------------------------------
# shared helpers


def _box_bound(ints: list[tuple[tuple[int, ...], int]], d: int) -> int:
    """Half-width ``M`` of a box ``[-M, M]^d`` that holds strictly inside it
    every vertex of the arrangement of the integer rows ``ints``.

    A vertex solves d independent boundary rows by Cramer's rule: a nonzero
    integer determinant over numerators of at most ``d! C N^(d-1)`` in
    absolute value, with C the largest |offset| and N the largest |normal
    entry|.  The bound also holds with coordinate planes ``x_j = 0`` among
    the rows, so every nonempty intersection meets the open box.
    """
    c = max(abs(offset) for _, offset in ints)
    n = max(abs(x) for normal, _ in ints for x in normal)
    return math.factorial(d) * c * n ** (d - 1) + 1


def _boxed(p: Polytope, hverts, m: int) -> Polytope:
    """The set whose meet with the box ``[-m, m]^d`` is ``p``, with
    homogeneous vertices ``hverts``.

    A bounded set lies strictly inside the box, so a vertex on the box
    boundary means the set is unbounded.  It is then reported with no
    vertices and with the affine dimension of ``p``, which is the set's
    because the set meets the open box.
    """
    if any(m * v[-1] in map(abs, v[:-1]) for v in hverts):
        return replace(p, vertices=(), unbounded=True)
    return p


# ---------------------------------------------------------------------------
# d = 2


def _intersect_2d(hs: list[Halfspace]) -> Polytope:
    m = _box_bound([h.ints for h in hs], 2)
    poly = _box_polygon(-m, m, -m, m)
    for h in hs:
        poly = _clip(poly, *h.ints)
    return _boxed(_polygon_polytope(tuple(hs), poly), poly, m)


# ---------------------------------------------------------------------------
# d = 3


def _intersect_3d(hs: list[Halfspace]) -> Polytope:
    m = _box_bound([h.ints for h in hs], 3)
    verts = _box_3d([(-m, m)] * 3)
    for i, h in enumerate(hs, 6):
        verts = _clip_3d(verts, i, *h.ints)
    return _boxed(_polytope_3d(tuple(hs), *_vertex_order(verts)), verts, m)


def _box_3d(bounds) -> dict[tuple[int, ...], frozenset[int]]:
    """The box ``lo_i <= x_i <= hi_i`` as ``_clip_3d`` vertices, with
    constraint ``2 i`` ``x_i >= lo_i`` and ``2 i + 1`` ``-x_i >= -hi_i``;
    equal bounds merge corners and unite their tight sets."""
    verts: dict[tuple[int, ...], frozenset[int]] = {}
    if all(lo <= hi for lo, hi in bounds):
        sides = [((lo, 2 * i), (hi, 2 * i + 1)) for i, (lo, hi) in enumerate(bounds)]
        for corner in itertools.product(*sides):
            hv = _hvertex([c for c, _ in corner])
            verts[hv] = verts.get(hv, frozenset()) | {j for _, j in corner}
    return verts


def _clip_3d(verts, index: int, normal: tuple[int, ...], offset: int):
    """Clip a bounded polytope by ``normal . x >= offset``, constraint ``index``.

    ``verts`` maps each vertex, reduced homogeneous integers ``(x, y, z, w)``
    with ``w > 0``, to the constraints tight at it.  Vertices on the plane
    gain ``index``, those below it go, and each edge from above to below
    adds its crossing, tight at both ends' common constraints and ``index``.
    Two vertices span an edge iff no third is tight at all their common
    constraints, in every dimension and with no general position.
    """
    n0, n1, n2 = normal
    side = {v: n0 * v[0] + n1 * v[1] + n2 * v[2] - offset * v[3] for v in verts}
    out = {v: t | {index} if side[v] == 0 else t for v, t in verts.items() if side[v] >= 0}
    below = [v for v in verts if side[v] < 0]
    for u in [v for v in verts if side[v] > 0]:
        for v in below:
            common = verts[u] & verts[v]
            # an edge lies on two independent tight planes at least
            if len(common) < 2 or any(common <= t for w, t in verts.items() if w not in (u, v)):
                continue
            # s_u v - s_v u lies on the plane
            x = [side[u] * b - side[v] * a for a, b in zip(u, v)]
            g = math.gcd(*x)
            out[tuple([c // g for c in x])] = common | {index}
    return out


def _vertex_order(hverts) -> tuple[list[tuple[Vec, tuple[int, ...]]], int]:
    """``(point, homogeneous vertex)`` pairs in ``Polytope.vertices`` order,
    and their affine dimension (-1 for none).

    The order is sorted, or a convex cycle when the points are coplanar.
    The affine dimension is the rank of the homogeneous rows minus one.
    """
    pairs = sorted((_hpoint(v), v) for v in hverts)
    adim = matrix_rank(list(hverts)) - 1
    if adim == 2:
        hv_of = dict(pairs)
        pairs = [(p, hv_of[p]) for p in _order_planar_cycle([p for p, _ in pairs])]
    return pairs, adim


def _polytope_3d(base: tuple[Halfspace, ...], pairs, adim: int) -> Polytope:
    """The bounded Polytope of ``base`` with the ordered vertices and affine
    dimension that ``_vertex_order`` gives."""
    if not pairs:
        return Polytope(base, (), 3, None, empty=True, unbounded=False)
    return Polytope(base, tuple(p for p, _ in pairs), 3, adim, empty=False, unbounded=False)


def _order_planar_cycle(verts: list[Vec]) -> list[Vec]:
    """Order coplanar extreme points (ints or Fractions) into a convex cycle."""
    base = verts[0]
    b1, e = span_pair(vsub(v, base) for v in verts[1:])
    if e is None:
        return verts
    b2 = cross3(cross3(b1, e), b1)
    coords = {v: (dot3(b1, vsub(v, base)), dot3(b2, vsub(v, base))) for v in verts}
    hull2 = convex_hull_2d(list(coords.values()))
    back = {coords[v]: v for v in verts}
    return [back[c] for c in hull2]


# ---------------------------------------------------------------------------
# incremental polygon clipping (the 2-D intersection and the 2-D region search)
#
# A polygon is a list of reduced homogeneous integer vertices ``(x, y, w)``,
# ``w > 0``, standing for ``(x / w, y / w)``, in ``convex_hull_2d`` order:
# counter-clockwise from the lexicographically smallest vertex, with no
# repeated or collinear vertices.  A segment is ``[smaller end, larger end]``,
# a point ``[p]`` and the empty set ``[]``.  Reduced coordinates make equal
# points equal tuples.


def _hvertex(v: Sequence[Fraction]) -> tuple[int, ...]:
    """Reduced homogeneous integers of a rational point."""
    w, a = int_point(v)
    return (*a, w)


def _hpoint(v: tuple[int, ...]) -> Vec:
    """The rational point of reduced homogeneous integers ``(..., w)``."""
    w = v[-1]
    return tuple([Fraction(c, w) for c in v[:-1]])


def _canonical_cycle(pts: list[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Drop cyclic repeats and start the cycle at its lexicographically
    smallest vertex."""
    out = [p for i, p in enumerate(pts) if p != pts[i - 1]] or pts[:1]
    first = 0
    for i in range(1, len(out)):
        (x, y, w), (fx, fy, fw) = out[i], out[first]
        a, b = x * fw, fx * w
        if a < b or (a == b and y * fw < fy * w):
            first = i
    return out[first:] + out[:first]


def _box_polygon(xlo: Fraction, xhi: Fraction, ylo: Fraction, yhi: Fraction):
    """The polygon of ``xlo <= x <= xhi, ylo <= y <= yhi``."""
    if xlo > xhi or ylo > yhi:
        return []
    corners = ((xlo, ylo), (xhi, ylo), (xhi, yhi), (xlo, yhi))
    return _canonical_cycle([_hvertex(c) for c in corners])


def _clip(poly: list[tuple[int, int, int]], normal: tuple[int, ...], offset: int):
    """Clip a polygon by the integer halfspace ``normal . x >= offset``.

    A crossing lies strictly inside an edge, so clipping adds no collinear
    vertex; a polygon that collapses keeps two or one distinct vertices, a
    segment or a point.  A segment is the cycle ``a -> b -> a``, whose two
    traversals give its crossing twice; the repeat is dropped.
    """
    a, b = normal
    sides = [a * x + b * y - offset * w for x, y, w in poly]
    if not sides or min(sides) >= 0:
        return poly
    if max(sides) < 0:
        return []
    m = len(poly)
    out = []
    for i, (p, sp) in enumerate(zip(poly, sides)):
        if sp >= 0:
            out.append(p)
        q, sq = poly[(i + 1) % m], sides[(i + 1) % m]
        if (sp > 0 > sq) or (sq > 0 > sp):
            # |sq| p + |sp| q has side |sq| sp + |sp| sq = 0
            fp, fq = abs(sq), abs(sp)
            x, y, w = fp * p[0] + fq * q[0], fp * p[1] + fq * q[1], fp * p[2] + fq * q[2]
            g = math.gcd(x, y, w)
            out.append((x // g, y // g, w // g))
    return _canonical_cycle(out)


def _polygon_polytope(base: tuple[Halfspace, ...], poly) -> Polytope:
    """The Polytope of the deduplicated ``base`` whose intersection is ``poly``."""
    if not poly:
        return Polytope(base, (), 2, None, empty=True, unbounded=False)
    verts = tuple(_hpoint(v) for v in poly)
    return Polytope(base, verts, 2, min(len(verts), 3) - 1, empty=False, unbounded=False)


def clip_polygon(vertices: Sequence[Vec], h: Halfspace) -> list[Vec]:
    """Clip a convex (possibly degenerate) vertex cycle by a halfspace.

    The input is a convex polygon given as a cyclic vertex list, a segment
    (two vertices), a point, or empty.  The exact clip is returned in
    ``convex_hull_2d`` order: counter-clockwise from the lexicographically
    smallest vertex, a segment as its smaller end and then its larger one.
    """
    poly = [_hvertex(v) for v in convex_hull_2d(list(vertices))]
    return [_hpoint(v) for v in _clip(poly, *h.ints)]


# ---------------------------------------------------------------------------
# barycenters


def barycenter(poly: Polytope) -> Vec:
    """Centroid of the uniform measure on the polytope.

    Vertex average for 0- and 1-dimensional sets, exact area weighting for
    polygons (in the plane or flat in space), exact volume weighting for
    solids.
    """
    if poly.empty:
        raise ValueError("empty polytope has no barycenter")
    if poly.unbounded:
        raise ValueError("unbounded set has no barycenter")
    return _centroid_of_vertices(list(poly.vertices), poly.affine_dim, poly.halfspaces)


def vertex_centroid(poly: Polytope) -> Vec:
    if poly.empty or poly.unbounded:
        raise ValueError("vertex centroid requires a bounded nonempty polytope")
    n = len(poly.vertices)
    return tuple(sum(col, Fraction(0)) / n for col in zip(*poly.vertices))


def _centroid_of_vertices(verts: list[Vec], adim: int | None, halfspaces) -> Vec:
    n = len(verts)
    if adim in (0, 1) or n <= 2:
        return tuple(sum(col, Fraction(0)) / n for col in zip(*verts))
    d = len(verts[0])
    if adim == 3:
        return _polyhedron_centroid(verts, halfspaces)
    # a convex polygon, in the plane or flat in space: a fan of triangles
    # from its first vertex, weighted by their signed areas (in space, each
    # area's component along one normal of the polygon's plane)
    cycle = verts if d == 2 else _order_planar_cycle(verts)
    a = cycle[0]
    edges = [vsub(v, a) for v in cycle[1:]]
    if d == 2:
        areas = [cross2(u, v) for u, v in zip(edges, edges[1:])]
    else:
        normal = cross3(edges[0], edges[1])
        areas = [dot3(normal, cross3(u, v)) for u, v in zip(edges, edges[1:])]
    tris = list(zip(areas, cycle[1:], cycle[2:]))
    total = 3 * sum(areas)
    return tuple(sum(s * (a[i] + b[i] + c[i]) for s, b, c in tris) / total for i in range(d))


def _polyhedron_centroid(verts: list[Vec], halfspaces) -> Vec:
    """Volume centroid as pyramids from the vertex average g over the fan
    triangles of every face (the vertices on a halfspace's boundary plane).

    Runs on integers: with the vertices on one common denominator D as rows
    P, ``n D (a - g) = n P_a - G`` with ``G`` the row sum, so each pyramid's
    six-fold volume and moment scale by fixed powers of ``n D``, which the
    one division at the end removes.
    """
    n = len(verts)
    den, flat = int_point([c for v in verts for c in v])
    rows = [flat[i:i + 3] for i in range(0, 3 * n, 3)]
    gsum = tuple(map(sum, zip(*rows)))
    vset = set(rows)
    total = 0
    acc = [0, 0, 0]
    for h in halfspaces:
        normal, offset = h.ints
        level = offset * den
        face = [p for p in vset if dot3(normal, p) == level]
        if len(face) < 3:
            continue
        cycle = _order_planar_cycle(sorted(face))
        # orient the cycle so the face normal points away from g
        fsum = tuple(map(sum, zip(*cycle)))
        nrm = cross3(vsub(cycle[1], cycle[0]), vsub(cycle[2], cycle[0]))
        if dot3(nrm, tuple(n * f - len(cycle) * g for f, g in zip(fsum, gsum))) < 0:
            cycle = list(reversed(cycle))
        a = cycle[0]
        ea = tuple(n * c - g for c, g in zip(a, gsum))
        for b, c in zip(cycle[1:], cycle[2:]):
            eb = tuple(n * x - g for x, g in zip(b, gsum))
            ec = tuple(n * x - g for x, g in zip(c, gsum))
            vol6 = dot3(ea, cross3(eb, ec))
            total += vol6
            for i in range(3):
                acc[i] += vol6 * (gsum[i] + n * (a[i] + b[i] + c[i]))
    if total == 0:
        return tuple(Fraction(g, n * den) for g in gsum)
    return tuple(Fraction(x, 4 * n * den * total) for x in acc)


# ---------------------------------------------------------------------------
# plain-text and CSV export


def write_region_files(poly: Polytope, out_dir, stem: str = "region") -> list[pathlib.Path]:
    """Write vertex and halfspace listings plus an RFC-4180 vertex CSV."""
    out = pathlib.Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths: list[pathlib.Path] = []

    vt = out / f"{stem}_vertices.txt"
    with open(vt, "w", encoding="utf-8") as fh:
        if poly.empty:
            fh.write("# empty region\n")
        elif poly.unbounded:
            fh.write("# unbounded region (no vertex enumeration)\n")
        for v in poly.vertices:
            fh.write(" ".join(format_rational(c) for c in v) + "\n")
    paths.append(vt)

    ht = out / f"{stem}_halfspaces.txt"
    with open(ht, "w", encoding="utf-8") as fh:
        for h in poly.halfspaces:
            lhs = " ".join(format_rational(c) for c in h.normal)
            fh.write(f"{lhs} >= {format_rational(h.offset)}\n")
    paths.append(ht)

    vc = out / f"{stem}_vertices.csv"
    with open(vc, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i+1}" for i in range(poly.dim)])
        for v in poly.vertices:
            writer.writerow([format_rational(c) for c in v])
    paths.append(vc)
    return paths
