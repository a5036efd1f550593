"""Depth regions as explicit convex polytopes, and the deepest-point median.

The region at level ``tau`` is the intersection of the *non-rotatable*
supporting halfspaces (``enumerate_irrotatable``): closed halfspaces that
(a) strictly cut off at most ``ceil(n*tau) - 1`` points and (b) are pinned
by their boundary points: some ``d-1`` of them span a pivot flat about which
rotating the boundary in some sense would sweep enough further boundary
points strictly below to exceed the allowance.  For data of full affine
dimension, up to the maximal depth, these finitely many halfspaces meet
exactly in the region.

``depth_region`` builds it with one exact cutting-plane loop per dimension:
start from the axis quantile halfspaces (a bounding box of the region), cut
off each vertex of the current polytope that lies outside the region with a
valid halfspace, and stop when every vertex is certified.  Quasi-concavity
of the depth makes the certified polytope exactly the region.  The polytope
is carried through the rounds on exact integers and updated by each round's
cuts only.

* In the plane every vertex gets an exact depth evaluation; the polygon is
  clipped by each new cut, and the cuts are tightened to *critical*
  directions (perpendiculars of point differences): on any arc of
  directions where the quantile contact point is constant, the quantile
  halfspaces form a pencil through that contact, so the arc's endpoint
  halfspaces carve everything the arc can carve.  Critical directions form
  a finite family, which guarantees termination, and the loop scales to
  thousands of points.  Each cut's normal, like each box side's, is the
  primitive integer vector of its direction, so no normal depends on the
  order in which the points are scanned.
* In space the cuts are the level's certificates, which all contain the
  region: a vertex lies outside the region exactly when one of them
  excludes it, an integer dot product each.  A level counts the depth of
  one vertex at most: the first that no certificate excludes, and none once
  a point of that depth is known.  A shallow one shows the level to be
  empty.
* On a line the level is the interval between two order statistics.

3-D data on a line or a plane are reduced once per call, at the entry of
``depth_region`` and ``median_region``, to the coordinates of their affine
hull (``geometry.reduce_dataset``).  The region is solved there, in 1-D or
2-D, and lifted back within the hull's equations.  So the 3-D cutting loop
and the median's level search in space see only full-dimensional data.
"""

from __future__ import annotations

import bisect
import contextlib
import itertools
import operator
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .depth import (
    depth_count,
    median_interval_1d,
    quantile_index,
    witness_cut,
)
from .geometry import (
    AffineFrame,
    DataSet,
    Halfspace,
    Vec,
    _box_halfspaces,
    _candidate_planes,
    _split,
    affine_dimension,
    as_fraction,
    cross3,
    halfspace,
    primitive,
    reduce_dataset,
    vsub,
)
from .polytope import (
    Polytope,
    _box_3d,
    _box_polygon,
    _clip,
    _clip_3d,
    _hpoint,
    _polygon_polytope,
    _polytope_3d,
    _vertex_order,
    barycenter,
    dedup_halfspaces,
    intersect_halfspaces,
)

_MAX_CUT_ROUNDS = 500


@dataclass(frozen=True)
class IrrotatableCertificate:
    """A supporting halfspace pinned in place by the sample.

    ``halfspace`` strictly cuts off ``cut_count`` points (at most the
    allowance ``required - 1``), carries ``boundary_indices`` on its
    boundary, and rotating about the flat spanned by ``pivot_indices`` in
    the recorded sense would newly cut ``swept_count`` boundary points,
    overshooting the allowance.
    """

    halfspace: Halfspace
    tau: Fraction
    required: int  # ceil(n * tau)
    cut_count: int
    boundary_indices: tuple[int, ...]
    pivot_indices: tuple[int, ...]
    swept_count: int


@dataclass(frozen=True)
class RegionResult:
    polytope: Polytope
    tau: Fraction
    required: int


@dataclass(frozen=True)
class MedianResult:
    region: Polytope
    lambda_star: Fraction
    median: Vec


# ---------------------------------------------------------------------------
# certificates
#
# All counting runs on the dataset's integer rows (``DataSet.scaled_ints``):
# a halfspace ``N . x >= c`` with integer N and c holds the point of row r
# iff ``N . r >= c * scale``.


def _sweep_records(
    rows: list[tuple[int, ...]], normal: tuple[int, ...], boundary: tuple[int, ...]
) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """Running-maximum ``(swept, pivot indices)`` over the pivots in order.

    A pivot is one boundary location (d=2) or the line through two of them
    (d=3, pairs in ``itertools.combinations`` order), each named by the
    first boundary index at its location.  Rotating the boundary about the
    pivot, in the sense that cuts more, newly cuts ``swept`` boundary
    points.  At any allowance the first pivot sweeping past it is the first
    record doing so.  The records do not depend on the sign of ``normal``.
    """
    first: dict[tuple[int, ...], int] = {}
    for i in boundary:
        first.setdefault(rows[i], i)
    locs = list(first.items())
    if len(normal) == 2:
        tangents = [((-normal[1], normal[0]), la, (ia,)) for la, ia in locs]
    else:
        tangents = [
            (cross3(normal, vsub(lb, la)), la, (ia, ib))
            for (la, ia), (lb, ib) in itertools.combinations(locs, 2)
        ]
    records = []
    best = 0
    for tangent, la, pivot in tangents:
        plus = minus = 0
        for i in boundary:
            s = sum(tc * (pc - ac) for tc, pc, ac in zip(tangent, rows[i], la))
            if s > 0:
                plus += 1
            elif s < 0:
                minus += 1
        swept = max(plus, minus)
        if swept > best:
            best = swept
            records.append((swept, pivot))
    return tuple(records)


def certificate_for(ds: DataSet, h: Halfspace, tau: object) -> IrrotatableCertificate | None:
    """The pinning certificate of ``h`` at level ``tau``, or None."""
    tau = as_fraction(tau)
    if not (0 < tau <= 1):
        raise ValueError("tau must lie in (0, 1]")
    if h.dim != ds.dim:
        raise ValueError("halfspace dimension does not match dataset")
    if ds.dim > 3:
        raise ValueError("certificates support d <= 3")
    k = quantile_index(ds.n, tau)
    scale, rows = ds.scaled_ints()
    normal, offset = h.ints
    cut, boundary = _split(rows, normal, offset * scale)
    if cut > k - 1 or not boundary:
        return None
    if ds.dim == 1:
        # no rotations exist on a line; the halfspace is pinned as soon as
        # its boundary passes through a sample point
        return IrrotatableCertificate(h, tau, k, cut, boundary, boundary[:1], 0)
    for swept, pivot in _sweep_records(rows, normal, boundary):
        if cut + swept > k - 1:
            return IrrotatableCertificate(h, tau, k, cut, boundary, pivot, swept)
    return None


def is_irrotatable(ds: DataSet, h: Halfspace, tau: object) -> bool:
    return certificate_for(ds, h, tau) is not None


_SCOPE = "level_scope"


@contextlib.contextmanager
def _level_scope(ds: DataSet, deadline: float | None):
    """Share the level-independent work of one region or median call.

    While open, ``ds._cache`` holds the candidate line or plane table (built
    on first use, under ``deadline``), a vertex -> ``depth_count`` dict and
    the rows sorted by their projection on each quantile direction met
    (``_quantile_cut``), all valid at every level.  Nested calls join the
    open scope; leaving the outermost one drops all three, so none outlives
    the call.
    """
    scope = ds._cache.get(_SCOPE)
    if scope is not None:
        yield scope
        return
    scope = {"deadline": deadline, "planes": None, "counts": {}, "sorted_rows": {}}
    ds._cache[_SCOPE] = scope
    try:
        yield scope
    finally:
        del ds._cache[_SCOPE]


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("region construction exceeded its deadline")


def _vertex_count(ds: DataSet, v: Vec, counts: dict[Vec, int]) -> int:
    cnt = counts.get(v)
    if cnt is None:
        cnt = depth_count(v, ds)
        counts[v] = cnt
    return cnt


def _plane_table(ds: DataSet, deadline: float | None):
    """Every candidate line (d=2) or plane (d=3) with its level-free data.

    Candidates come from ``_candidate_planes``, each as ``u`` and then
    ``-u``; one already met is skipped, keyed by its primitive normal and
    offset.  Each entry is ``(halfspace, cut count, boundary indices, sweep
    records)``; both orientations share boundary and records.  The halfspace
    is the integer row ``(scale u, u . a)`` over ``scale**d``, which is
    ``u / scale**(d-1) . x >= u . a / scale**d`` on the data's coordinates,
    and its flip is the negated row.
    """
    scale, rows = ds.scaled_ints()
    so = scale**ds.dim
    n = len(rows)
    seen: set = set()
    table = []
    for u, uoff, p, off in _candidate_planes(rows):
        if (p, off) in seen:
            continue
        seen.add((p, off))
        seen.add((tuple(map(operator.neg, p)), -off))
        _check_deadline(deadline)
        cut, boundary = _split(rows, p, off)
        records = _sweep_records(rows, p, boundary)
        row = tuple(scale * x for x in u)
        table.append((Halfspace.of_row(row, uoff, so), cut, boundary, records))
        table.append((Halfspace.of_row(tuple(map(operator.neg, row)), -uoff, so),
                      n - cut - len(boundary), boundary, records))
    return table


def enumerate_irrotatable(ds: DataSet, tau: object) -> tuple[IrrotatableCertificate, ...]:
    """Every non-rotatable halfspace at level ``tau`` (exact, deduplicated).

    Complete for data of full affine dimension: a certificate needs swept
    boundary points besides its pivot flat, so its boundary contains at
    least two distinct sample locations (d=2) or three non-collinear ones
    (d=3); candidate boundaries therefore run over point pairs or triples.
    """
    tau = as_fraction(tau)
    if not (0 < tau <= 1):
        raise ValueError("tau must lie in (0, 1]")
    d = ds.dim
    if d > 3:
        raise ValueError("certificate enumeration supports d <= 3")
    if affine_dimension(ds) < d:
        raise ValueError(
            "certificate enumeration requires full affine-dimensional data; "
            "use depth_region for degenerate datasets"
        )

    if d == 1:
        k = quantile_index(ds.n, tau)
        vals = sorted(p[0] for p in ds.points)
        out = []
        for h in (halfspace((1,), vals[k - 1]), halfspace((-1,), -vals[-k])):
            cert = certificate_for(ds, h, tau)
            if cert is not None:
                out.append(cert)
        return tuple(out)

    # read the level off the candidate table, built once per open scope
    with _level_scope(ds, None) as scope:
        if scope["planes"] is None:
            scope["planes"] = _plane_table(ds, scope["deadline"])
        table = scope["planes"]
    k = quantile_index(ds.n, tau)
    out = []
    for h, cut, boundary, records in table:
        if cut > k - 1:
            continue
        for swept, pivot in records:
            if cut + swept > k - 1:
                out.append(IrrotatableCertificate(h, tau, k, cut, boundary, pivot, swept))
                break
    return tuple(out)


# ---------------------------------------------------------------------------
# cutting-plane region construction (d = 2 core)


def _quantile_cut(ds: DataSet, p: tuple[int, ...], tau: Fraction) -> Halfspace:
    """The halfspace ``p . x >= directional_quantile(ds, p, tau)`` for a
    primitive integer ``p``, which is its normal.

    An open scope keeps the integer rows ``r`` of ``ds.scaled_ints()``
    sorted by ``p . r``, once per direction, as references to the rows
    rather than one new integer per row; with no scope open they are sorted
    for this call only.  For ``r_k`` the k-th row the quantile is
    ``p . r_k / scale``, so the halfspace is the integer row
    ``(scale p, p . r_k)`` over ``scale``.
    """
    scale, rows = ds.scaled_ints()
    scope = ds._cache.get(_SCOPE)
    table = {} if scope is None else scope["sorted_rows"]
    ranked = table.get(p)
    if ranked is None:
        projs = [sum(map(operator.mul, p, r)) for r in rows]
        ranked = table[p] = [rows[i] for i in sorted(range(len(rows)), key=projs.__getitem__)]
    pk = sum(map(operator.mul, p, ranked[quantile_index(ds.n, tau) - 1]))
    return Halfspace.of_row(tuple(scale * c for c in p), pk, scale)


def _axis_quantile_box(ds: DataSet, tau: Fraction) -> list[Halfspace]:
    units = [tuple(int(i == j) for i in range(ds.dim)) for j in range(ds.dim)]
    return [_quantile_cut(ds, s, tau) for e in units for s in (e, tuple(-c for c in e))]


def _contact_location(ds: DataSet, u: Sequence[int], k: int) -> tuple[int, ...]:
    """The integer row of a location attaining the k-th smallest projection
    under the integer ``u``.

    The k-th of the rows of ``ds.scaled_ints()`` sorted by (projection,
    row), which is the order of the points sorted by (projection, location):
    among equal projections the lexicographically smallest location wins.
    The k-th projection is read from the sorted projections, and only the
    rows tied with it are sorted.
    """
    ux, uy = u
    _, rows = ds.scaled_ints()
    projs = [ux * x + uy * y for x, y in rows]
    ranked = sorted(projs)
    q = ranked[k - 1]
    tied = sorted(r for r, t in zip(rows, projs) if t == q)
    return tied[k - 1 - bisect.bisect_left(ranked, q)]


def _bracketing_criticals_2d(
    ds: DataSet, u: Sequence[int], contact: tuple[int, ...]
) -> list[tuple[int, ...]]:
    """Nearest critical directions on each side of the integer ``u``, as
    primitive integer vectors.

    Critical directions are perpendiculars of differences between the
    quantile contact row and the other rows of ``ds.scaled_ints()``:
    rotating ``u`` past one changes the contact set.  If ``u`` is itself
    critical it is returned alone.  Points on one ray from the contact give
    one direction, so the result does not depend on the order of the rows.
    """
    ux, uy = u
    cx, cy = contact
    best_left: tuple[int, int] | None = None
    best_right: tuple[int, int] | None = None
    for px, py in ds.scaled_ints()[1]:
        dx = px - cx
        dy = py - cy
        if dx == 0 and dy == 0:
            continue
        # w = (-dy, dx) lies counterclockwise of u within (0, pi) iff c > 0,
        # and -w then lies clockwise; c == 0 means u is already critical
        c = ux * dx + uy * dy
        if c == 0:
            return [primitive(u)]
        left = (-dy, dx) if c > 0 else (dy, -dx)
        right = (-left[0], -left[1])
        if best_left is None or (left[0] * best_left[1] - left[1] * best_left[0]) > 0:
            best_left = left
        if best_right is None or (right[0] * best_right[1] - right[1] * best_right[0]) < 0:
            best_right = right
    return [primitive(w) for w in (best_left, best_right) if w is not None]


def _region_by_cuts_2d(
    ds: DataSet,
    tau: Fraction,
    k: int,
    deadline: float | None,
    seed_directions: Sequence[tuple[int, ...]] = (),
) -> tuple[Polytope, list[tuple[int, ...]]]:
    """Exact cutting-plane loop; returns the region and the cut directions.

    Every direction, seed or returned, is a primitive integer vector, and
    it is the normal of its cut.  So two cuts are the same set exactly when
    they are equal, and the loop admits each set once.

    One integer polygon is carried through the rounds: the axis quantile
    box, clipped by the seed cuts and then by each round's new cuts.  In an
    open scope the depth counts of the region's vertices, all certified in
    the last round, are left in the scope's ``counts``.
    """
    constraints: list[Halfspace] = []
    seen: set[Halfspace] = set()

    def admit(h: Halfspace) -> bool:
        if h in seen:
            return False
        seen.add(h)
        constraints.append(h)
        return True

    for h in _axis_quantile_box(ds, tau):
        admit(h)
    # the box is x >= xlo, -x >= -xhi, y >= ylo, -y >= -yhi
    xlo, neg_xhi, ylo, neg_yhi = (h.offset for h in constraints)
    poly = _box_polygon(xlo, -neg_xhi, ylo, -neg_yhi)
    start = len(constraints)  # the constraints from here on are not clipped yet
    directions = [p for p in seed_directions if admit(_quantile_cut(ds, p, tau))]
    certified: dict[tuple[int, int, int], int] = {}
    for _ in range(_MAX_CUT_ROUNDS):
        _check_deadline(deadline)
        for h in constraints[start:]:
            poly = _clip(poly, *h.ints)
        if not poly:
            return _polygon_polytope(tuple(constraints), poly), directions
        start = len(constraints)
        for hv in poly:
            # a vertex certified before is deep: a shallow one is strictly
            # excluded by a cut admitted in the round that finds it
            if hv in certified:
                continue
            cnt, u_wit = witness_cut(_hpoint(hv), ds)
            certified[hv] = cnt
            if cnt >= k:
                continue
            # tighten the witness direction to the bracketing critical
            # directions of its quantile-contact arc; they cut at least as
            # deep and come from a finite family (termination)
            wi = tuple(c.numerator for c in u_wit)  # witnesses are integer vectors
            contact = _contact_location(ds, wi, k)
            cuts = []
            for w in _bracketing_criticals_2d(ds, wi, contact):
                cut = _quantile_cut(ds, w, tau)
                (a, b), c = cut.ints
                if a * hv[0] + b * hv[1] < c * hv[2]:
                    cuts.append((w, cut))
            if not cuts:
                # rare fallback: the raw witness quantile halfspace always
                # separates v from the region
                w = primitive(wi)
                cuts.append((w, _quantile_cut(ds, w, tau)))
            directions.extend(w for w, cut in cuts if admit(cut))
        if len(constraints) == start:
            region = _polygon_polytope(tuple(constraints), poly)
            scope = ds._cache.get(_SCOPE)
            if scope is not None:
                scope["counts"].update(zip(region.vertices, map(certified.__getitem__, poly)))
            return region, directions
    raise RuntimeError("cutting-plane region search failed to converge")


# ---------------------------------------------------------------------------
# data on a line or plane in space: solved in the affine hull's coordinates


def _lift_region(frame: AffineFrame, reduced: Polytope) -> Polytope:
    """The region in space of a region solved in ``frame``'s coordinates:
    the hull's equations with the lifted cuts, and the lifted vertices."""
    return Polytope(
        halfspaces=tuple(frame.equations() + [frame.halfspace(h) for h in reduced.halfspaces]),
        vertices=tuple(map(frame.point, reduced.vertices)),
        dim=3,
        affine_dim=reduced.affine_dim,
        empty=reduced.empty,
        unbounded=False,
    )


# ---------------------------------------------------------------------------
# public region API


def _empty_region(dim: int) -> Polytope:
    e = tuple([Fraction(1)] + [Fraction(0)] * (dim - 1))
    hs = (halfspace(e, 1), halfspace(tuple(-c for c in e), 0))
    return Polytope(
        halfspaces=hs, vertices=(), dim=dim, affine_dim=None, empty=True, unbounded=False
    )


def _interval(lo: Fraction, hi: Fraction) -> Polytope:
    return intersect_halfspaces([halfspace((1,), lo), halfspace((-1,), -hi)], dim=1)


def _region_1d(ds: DataSet, k: int) -> Polytope:
    """Level k of 1-D data, ``[v_k, v_{n-k+1}]``: empty above the deepest
    level, where the two order statistics cross."""
    vals = sorted(p[0] for p in ds.points)
    return _interval(vals[k - 1], vals[-k])


def _region_3d_lazy_certificates(
    ds: DataSet, tau: Fraction, k: int, deadline: float | None, counts: dict[Vec, int]
) -> Polytope:
    """Cutting loop over the (complete) certificate family in space.

    Every certificate contains the region, and up to the maximal depth
    their intersection is the region.  So a vertex that some certificate
    excludes is cut by the first such one, with no depth query.  Once a
    point of depth k or more is known (``counts`` holds at every level), a
    vertex that none excludes is in the region; until then the first such
    vertex gets ``_vertex_count``, and a shallow one means the level is
    empty.  A vertex counted at depth k or more is in every certificate, so
    it is not scanned.  The polytope is the axis quantile box as homogeneous
    integer vertices with their tight constraints, clipped by each new cut.
    """
    family = [c.halfspace for c in enumerate_irrotatable(ds, tau)]
    constraints = _axis_quantile_box(ds, tau)
    # the box is x >= xlo, -x >= -xhi, y >= ylo, -y >= -yhi, z >= zlo, -z >= -zhi
    verts = _box_3d([(a.offset, -b.offset) for a, b in zip(constraints[::2], constraints[1::2])])
    start = len(constraints)
    proven = any(cnt >= k for cnt in counts.values())
    for _ in range(_MAX_CUT_ROUNDS):
        _check_deadline(deadline)
        pairs, adim = _vertex_order(verts)
        for v, (x, y, z, w) in pairs:
            if counts.get(v, -1) >= k:
                continue  # deep, so inside every certificate
            new = (h.ints for h in constraints[start:])
            if any(n0 * x + n1 * y + n2 * z < c * w for (n0, n1, n2), c in new):
                continue  # a cut added this round already excludes it
            for i, h in enumerate(family):
                (n0, n1, n2), c = h.ints
                if n0 * x + n1 * y + n2 * z < c * w:
                    constraints.append(family.pop(i))
                    break
            else:
                if not proven and _vertex_count(ds, v, counts) < k:
                    # no certificate excludes a shallow point: the level is
                    # above the maximal depth and the region is empty
                    return _empty_region(3)
                proven = True
        if len(constraints) == start:
            return _polytope_3d(tuple(dedup_halfspaces(constraints)), pairs, adim)
        for i in range(start, len(constraints)):
            verts = _clip_3d(verts, i, *constraints[i].ints)
        start = len(constraints)
    raise RuntimeError("certificate cutting loop failed to converge")


def depth_region(ds: DataSet, tau: object, deadline: float | None = None) -> RegionResult:
    """The set of points whose depth is at least ``tau``, as a polytope.

    Results are exact for every rational dataset in dimensions 1-3,
    including data with duplicated or collinear points.  3-D data on a line
    or plane are solved in the coordinates of their affine hull and lifted
    back.
    """
    tau = as_fraction(tau)
    if not (0 < tau <= 1):
        raise ValueError("tau must lie in (0, 1]")
    if ds.dim > 3:
        raise ValueError("depth regions support d <= 3")
    _check_deadline(deadline)
    k = quantile_index(ds.n, tau)

    if ds.dim == 1:
        return RegionResult(_region_1d(ds, k), tau, k)

    if ds.dim == 2:
        with _level_scope(ds, deadline):
            poly, _ = _region_by_cuts_2d(ds, tau, k, deadline)
        return RegionResult(poly, tau, k)

    ad = affine_dimension(ds)
    if ad == 3:
        with _level_scope(ds, deadline) as scope:
            poly = _region_3d_lazy_certificates(ds, tau, k, deadline, scope["counts"])
    elif ad == 0:
        # every point at one location, which is the region at every level
        poly = Polytope(
            halfspaces=tuple(_box_halfspaces(ds.points[:1], range(3))), vertices=ds.points[:1],
            dim=3, affine_dim=0, empty=False, unbounded=False,
        )
    else:
        frame, reduced = reduce_dataset(ds)
        poly = _lift_region(frame, depth_region(reduced, tau, deadline=deadline).polytope)
    return RegionResult(poly, tau, k)


# ---------------------------------------------------------------------------
# maximal-depth region and median


def max_depth(ds: DataSet, deadline: float | None = None) -> Fraction:
    """The maximum depth attained by any point (at least 1/n, at the data)."""
    return median_region(ds, deadline=deadline).lambda_star


def _coordinatewise_median(ds: DataSet) -> Vec:
    """Each coordinate's median: the mean of its order statistics
    ``ceil(n/2)`` and ``floor(n/2) + 1``, which coincide for odd n."""
    n = ds.n
    cols = []
    for j in range(ds.dim):
        e = tuple(int(i == j) for i in range(ds.dim))
        cols.append((_quantile_cut(ds, e, Fraction((n + 1) // 2, n)).offset
                     + _quantile_cut(ds, e, Fraction(n // 2 + 1, n)).offset) / 2)
    return tuple(cols)


def median_region(ds: DataSet, deadline: float | None = None) -> MedianResult:
    """Maximal-depth region and its barycenter (``polytope.barycenter``).

    3-D data on a line or plane are solved once in the coordinates of their
    affine hull, and the region is lifted back.
    """
    _check_deadline(deadline)
    if ds.dim == 1:
        lo, hi, lam = median_interval_1d([p[0] for p in ds.points])
        return MedianResult(_interval(lo, hi), lam, ((lo + hi) / 2,))

    if ds.dim == 3 and (ad := affine_dimension(ds)) < 3:
        if ad == 0:
            poly, lam = depth_region(ds, 1).polytope, Fraction(1)
        else:
            frame, reduced = reduce_dataset(ds)
            res = median_region(reduced, deadline=deadline)
            poly, lam = _lift_region(frame, res.region), res.lambda_star
    else:
        with _level_scope(ds, deadline) as scope:
            poly, best_k = _bisect_levels(ds, deadline, scope["counts"])
        lam = Fraction(best_k, ds.n)
    return MedianResult(poly, lam, barycenter(poly))


def _bisect_levels(
    ds: DataSet, deadline: float | None, counts: dict[Vec, int]
) -> tuple[Polytope, int]:
    """The deepest nonempty level k and its region (d = 2, or d = 3 with
    data of full affine dimension).

    The coordinatewise median's depth count certifies the floor ``k_lo``
    with no build, and the levels above it are bisected up to the first
    level known empty.  A nonempty level raises the floor to itself, or to
    its deepest vertex on the loops' own counts.  The floor's region is
    built at the end, and only if no build returned it: when every level
    tried above it came back empty, or when a jump landed on it.  Each
    build is seeded with the previous build's cut directions.
    """
    n = ds.n
    seeds: list[tuple[int, ...]] = []

    def build(k: int) -> Polytope:
        nonlocal seeds
        if ds.dim == 2:
            poly, seeds = _region_by_cuts_2d(ds, Fraction(k, n), k, deadline, seeds)
            return poly
        return _region_3d_lazy_certificates(ds, Fraction(k, n), k, deadline, counts)

    k_lo = max(depth_count(_coordinatewise_median(ds), ds), 1)
    k_hi = n + 1  # first level known (or assumed) empty
    best: tuple[Polytope, int] | None = None
    while k_lo + 1 < k_hi:
        k_try = (k_lo + k_hi) // 2
        poly = build(k_try)
        if poly.empty:
            k_hi = k_try
        else:
            best = poly, k_try
            # region vertices often reveal deeper points; jump if so, on
            # the loops' own counts (every vertex in the plane, one a level
            # at most in space)
            k_lo = max([k_try] + [counts.get(v, 0) for v in poly.vertices])
    if best is None or best[1] != k_lo:
        poly = build(k_lo)
        if poly.empty:
            raise RuntimeError("level certified feasible came back empty")
        best = poly, k_lo
    return best


def halfspace_median(ds: DataSet) -> Vec:
    """The deepest-region center: barycenter of the maximal-depth region."""
    return median_region(ds).median
