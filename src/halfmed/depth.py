"""Exact halfspace (Tukey) depth for finite rational datasets.

The depth of ``x`` is the smallest fraction of sample points contained in a
closed halfspace whose boundary passes through ``x``.  Because the empirical
measure takes finitely many values, the infimum over directions is attained
on one of finitely many combinatorial cells, and one kernel per dimension
finds the minimum by an exact sweep over the difference vectors ``Xi - x``:

* d = 1: count the signs.
* d = 2: sort the vectors by angle and slide a half-turn window over them
  (``_half_turns``); ties and duplicated points are counted with
  multiplicity, never perturbed.  The angular sort is a float sort checked
  exactly in one pass over adjacent pairs (``_sort_by_angle``); only a
  failed check pays for the exact comparison sort.
* d = 3: vectors that span only a line or a plane go to the 1-D or 2-D
  sweep of their coordinates in an integer basis, and the witness is lifted
  back.  Otherwise every minimizing cell of the arrangement of planes
  ``{u : u . (Xi - x) = 0}`` touches an edge ``cross(Xi - x, Xj - x)``.
  One exact circle sweep per distinct direction ``Xi - x`` (an angular sort
  of the data seen along it, and the same half-turn pass) counts the points
  strictly below every edge through that direction, O(n^2 log n) in all.
  Only edges whose count can still beat the best one get an O(n) pass and
  the 2-D sweep of the cells around them, in the edge's orthogonal plane;
  in edge order that is a running minimum, a handful of edges per query.

``tukey_depth``, ``depth_count``, ``witness_cut`` and
``optimal_direction_cone`` are views of the kernel's count, zero count and
minimizing-cell witnesses.

All counting is integer arithmetic.  The 1-D and 2-D sweeps and the witness
recount read only the signs of ``Xi - x``, so each row keeps its own scale
(``DataSet.row_ints()``, ``_row_vectors``): for ``x = a / q`` the vector
``q nums_i - den_i a`` is a positive multiple of ``Xi - x``.  The 3-D sweep
builds its witness from the lengths of the difference vectors, so it runs on
the common scale of ``DataSet.scaled_ints()`` (``_query_vectors``).
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from .geometry import (
    DataSet,
    Vec,
    angular_cmp,
    as_fraction,
    canonical_direction,
    cross3,
    dot3,
    int_point,
    primitive,
    span_pair,
)


@dataclass(frozen=True)
class DepthResult:
    """Exact depth value with a certifying direction.

    ``count`` points satisfy ``witness . Xi <= witness . x`` and no closed
    halfspace through ``x`` contains fewer; ``boundary_count`` of them lie
    exactly on the boundary hyperplane.
    """

    value: Fraction
    count: int
    n: int
    witness: Vec
    boundary_count: int
    exact: bool = True


# ---------------------------------------------------------------------------
# integer preparation


def _query_vectors(ds: DataSet, x: Vec) -> tuple[int, list[tuple[int, ...]]]:
    """Differences ``Xi - x`` as integer tuples sharing one positive scale."""
    scale, rows = ds.scaled_ints()
    q, a = int_point(x)
    big = math.lcm(scale, q)
    f = big // scale
    xi = tuple(c * (big // q) for c in a)
    c0 = 0
    vecs: list[tuple[int, ...]] = []
    for r in rows:
        v = tuple(rc * f - xc for rc, xc in zip(r, xi))
        if any(c != 0 for c in v):
            vecs.append(v)
        else:
            c0 += 1
    return c0, vecs


def _row_vectors(ds: DataSet, x: Vec) -> tuple[int, list[tuple[int, ...]]]:
    """Zero count and positive multiples ``q nums_i - den_i a`` of the nonzero ``Xi - x``.

    Each row keeps its own scale ``den_i q``, so only the signs and the
    directions of the vectors mean anything.  For d = 1 and 2 only.
    """
    q, a = int_point(x)
    rows = zip(*ds.row_ints())
    if len(a) == 1:
        (a0,) = a
        vecs = [(q * r0 - den * a0,) for den, (r0,) in rows]
    else:
        a0, a1 = a
        vecs = [(q * r0 - den * a0, q * r1 - den * a1) for den, (r0, r1) in rows]
    zero = (0,) * len(a)
    c0 = vecs.count(zero)
    return c0, [v for v in vecs if v != zero] if c0 else vecs


def _recount(ds: DataSet, x: Vec, u: Vec) -> tuple[int, int]:
    """Points with ``u . Xi <= u . x``, and how many of them have equality."""
    q, a = int_point(x)
    ui = int_point(u)[1]
    ua = sum(map(operator.mul, ui, a))
    below = boundary = 0
    for den, r in zip(*ds.row_ints()):
        # q den_i u . (Xi - x), which has the sign of u . (Xi - x)
        s = q * sum(map(operator.mul, ui, r)) - den * ua
        if s <= 0:
            below += 1
            if s == 0:
                boundary += 1
    return below, boundary


# ---------------------------------------------------------------------------
# planar sweep core


def _pseudo_angle(v: Sequence[int]) -> float:
    """Float in [0, 4) that grows with the angle of ``(v[0], v[1])``, up to rounding."""
    a, b = v[0], v[1]
    t = a / (abs(a) + abs(b))
    return 1 - t if b > 0 or (b == 0 and a > 0) else 3 + t


def _sort_by_angle(items: list) -> None:
    """Sort items in place, stably and exactly, by the angle of ``(item[0], item[1])``.

    The float sort is exact except where ``_pseudo_angle`` rounds rays
    together or apart, so one pass checks each adjacent pair by half-plane
    and cross sign, and only a pair out of order calls the exact comparison
    sort.  Equal rays get equal float keys, so the order is that of
    ``angular_cmp`` in either case.
    """
    items.sort(key=_pseudo_angle)
    ph = -1
    pa = pb = 0
    for v in items:
        a, b = v[0], v[1]
        h = 0 if b > 0 or (b == 0 and a > 0) else 1
        if h < ph or (h == ph and pa * b < pb * a):
            items.sort(key=functools.cmp_to_key(angular_cmp))
            return
        ph, pa, pb = h, a, b


def _groups_python(vecs: Iterable[tuple[int, int]]) -> tuple[list[tuple[int, int]], list[int]]:
    acc: dict[tuple[int, int], int] = {}
    for a, b in vecs:
        # geometry.primitive inlined: a call per vector slows every 2-D query
        g = math.gcd(a, b)
        key = (a // g, b // g)
        acc[key] = acc.get(key, 0) + 1
    keys = list(acc)
    _sort_by_angle(keys)
    return keys, [acc[k] for k in keys]


def _half_turns(groups: list[tuple[int, int]], mult: list[int]) -> tuple[list[int], list[int]]:
    """Per group, the weight of its half-open half-turn and of its antipode.

    ``groups`` are one vector per ray, the rays in angular order.  Entry j
    of the first list is the weight of the directions in ``[groups[j],
    groups[j] + pi)``, of the second the weight exactly a half-turn away.
    One two-pointer pass: the far end of the window only moves forward.
    """
    m = len(groups)
    ring, wring = groups + groups, mult + mult
    window = [0] * m
    anti = [0] * m
    r = 0
    cnt = 0
    for j, (ax, ay) in enumerate(groups):
        # cnt is the weight of ring[j + 1 : r], strictly counter-clockwise
        # of ring[j] and less than a half-turn away
        if r <= j:
            r = j + 1
            cnt = 0
        while r < j + m:
            bx, by = ring[r]
            c = ax * by - ay * bx
            if c <= 0:
                if c == 0:
                    anti[j] = wring[r]
                break
            cnt += wring[r]
            r += 1
        window[j] = mult[j] + cnt
        if r > j + 1:
            cnt -= wring[j + 1]
    return window, anti


def _max_window(groups: list[tuple[int, int]], mult: list[int]) -> tuple[int, list[int]]:
    """Largest weight in a half-open half-turn, with all the groups that start one."""
    window, _ = _half_turns(groups, mult)
    best = -1
    anchors: list[int] = []
    for j, w in enumerate(window):
        if w > best:
            best = w
            anchors = [j]
        elif w == best:
            anchors.append(j)
    return best, anchors


def _cell_witness_2d(anchor: tuple[int, int], groups: list[tuple[int, int]]) -> tuple[int, int]:
    """Integer direction inside the open cell anchored at ``anchor``.

    The returned u satisfies u . anchor > 0 and keeps the strict sign of
    u0 . g for every other group, where u0 is the left perpendicular of the
    anchor.
    """
    ax, ay = anchor
    u0 = (-ay, ax)
    # eps = en / ed, the smallest |du| / |da|, compared by cross-multiplying
    en = ed = 0
    for gx, gy in groups:
        du = abs(ax * gy - ay * gx)
        da = abs(ax * gx + ay * gy)
        if du != 0 and da != 0 and (ed == 0 or du * ed < en * da):
            en, ed = du, da
    if ed == 0:
        # no group constrains the rotation amount; any positive tilt works
        return (u0[0] + ax, u0[1] + ay)
    half = Fraction(en, 2 * ed)
    q = half.denominator
    p = half.numerator
    return (q * u0[0] + p * ax, q * u0[1] + p * ay)


# ---------------------------------------------------------------------------
# the sweeps: the minimum count over closed halfspaces whose boundary passes
# through the origin, for nonzero integer vectors and c0 zero vectors


def _sweep1(c0: int, vecs: list[tuple[int]]) -> tuple[int, tuple[tuple[int], ...]]:
    """Count and the witnesses, ``(1,)`` and/or ``(-1,)``, of the smaller sides."""
    neg = sum(1 for (v,) in vecs if v < 0)
    pos = len(vecs) - neg
    if neg < pos:
        return c0 + neg, ((1,),)
    if pos < neg:
        return c0 + pos, ((-1,),)
    return c0 + neg, ((1,), (-1,))


def _sweep2(c0: int, vecs: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]], list[int]]:
    """Count, angular groups, and the anchors of the minimizing cells.

    The witness ``u = _cell_witness_2d(groups[j], groups)`` of the cell
    anchored at group j has ``u . v > 0`` exactly on the half-open half-turn
    ``[groups[j], groups[j] + pi)``, so ``{v : u . v <= 0}`` holds the rest.
    """
    if not vecs:
        return c0, [], []
    groups, mult = _groups_python(vecs)
    best, anchors = _max_window(groups, mult)
    return c0 + len(vecs) - best, groups, anchors


# ---------------------------------------------------------------------------
# d = 3 core


def _vec_rank3(vecs: list[tuple[int, int, int]]):
    """``(rank, b1, normal)`` of nonzero integer 3-vectors: ``b1 = vecs[0]``,
    and ``normal`` its cross product with the first vector off its line (None
    at rank 1)."""
    b1, v = span_pair(vecs)
    if v is None:
        return 1, b1, None
    normal = cross3(b1, v)
    return (3 if any(dot3(normal, w) for w in vecs) else 2), b1, normal


def _lift(w: Sequence[int], basis: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    """The vector ``sum(w[i] * basis[i])``: a witness in the coordinates of ``basis``, in space."""
    return tuple(sum(map(operator.mul, w, col)) for col in zip(*basis))


def _circle_sides(d, dirs, weights) -> list:
    """``(right, left)`` weights on either side of each direction, seen along ``d``.

    With ``e = cross3(d, dirs[k])``, ``right`` is the weight of the directions
    with ``e . v < 0`` and ``left`` that of those with ``e . v > 0``.  In the
    integer basis ``(p, d x p)`` of ``d``-perp, ``sign(e . v)`` is the sign of
    the planar cross product of the projections of ``dirs[k]`` and ``v``, so
    one angular sort and one half-turn pass give every ``k`` at once.
    Entries for ``dirs[k]`` parallel to ``d`` are None.
    """
    x, y, z = d
    p0, p1 = (-y, x) if x or y else (0, 1)  # p = (p0, p1, 0) with p . d = 0
    q0, q1, q2 = -z * p1, z * p0, x * p1 - y * p0  # q = d x p, |q| = |d| |p|
    # stretching p by about |d| keeps every sign and evens out the two axes
    stretch = math.isqrt(x * x + y * y + z * z)
    p0, p1 = stretch * p0, stretch * p1
    items = []
    for k, ((v0, v1, v2), w) in enumerate(zip(dirs, weights)):
        a = p0 * v0 + p1 * v1
        b = q0 * v0 + q1 * v1 + q2 * v2
        if a or b:
            items.append((a, b, w, k))
    _sort_by_angle(items)
    # directions on one ray are adjacent now; merge them into one group
    groups: list[tuple[int, int]] = []
    mult: list[int] = []
    members: list[list[int]] = []
    ga = gb = 0
    for a, b, w, k in items:
        if ga * b == gb * a and ga * a + gb * b > 0:
            mult[-1] += w
            members[-1].append(k)
        else:
            ga, gb = a, b
            groups.append((a, b))
            mult.append(w)
            members.append([k])
    total = sum(mult)
    window, anti = _half_turns(groups, mult)
    sides: list = [None] * len(dirs)
    for j, ks in enumerate(members):
        side = (total - window[j] - anti[j], window[j] - mult[j])
        for k in ks:
            sides[k] = side
    return sides


def _depth3_int(
    c0: int, vecs: list[tuple[int, int, int]]
) -> tuple[int, Callable[[], tuple[int, ...]]]:
    """Minimum closed-halfspace count (d=3) and a thunk for its exact witness.

    Only the count is computed eagerly; calling the returned function builds
    the witness direction.
    """
    if not vecs:
        return c0, lambda: (1, 0, 0)
    rank, b1, normal = _vec_rank3(vecs)

    # rank 1 or 2: the vectors span a line or a plane, and the 1-D or 2-D
    # sweep of their coordinates in an integer basis of it gives the depth
    if rank == 1:
        count, sides = _sweep1(c0, [(dot3(b1, v),) for v in vecs])
        return count, lambda: _lift(sides[0], (b1,))
    if rank == 2:
        bb2 = cross3(normal, b1)
        count, groups, anchors = _sweep2(c0, [(dot3(b1, v), dot3(bb2, v)) for v in vecs])
        return count, lambda: _lift(_cell_witness_2d(groups[anchors[0]], groups), (b1, bb2))

    # rank 3: every minimizing cell touches an arrangement edge e; the points
    # strictly below e come from one circle sweep per data direction, and
    # only edges that can still beat the best count get the 2-D sweep
    weight = Counter(map(primitive, vecs))
    dirs = list(weight)
    weights = list(weight.values())
    edges: set[tuple[int, ...]] = set()
    below: dict[tuple[int, ...], int] = {}
    for i in range(len(dirs)):
        di = dirs[i]
        sides = None
        for j in range(i + 1, len(dirs)):
            e = cross3(di, dirs[j])
            if e == (0, 0, 0):
                continue
            e = primitive(e)
            if e not in edges:
                neg = (-e[0], -e[1], -e[2])
                edges.add(e)
                edges.add(neg)
                if sides is None:
                    sides = _circle_sides(di, dirs, weights)
                below[e], below[neg] = sides[j]

    # the witness comes from the first edge, in set order, that reaches the
    # minimum, exactly as if it were rebuilt at every improvement
    best_count: int | None = None
    best_cell = None
    for e in edges:
        b = below[e]
        if best_count is not None and c0 + b >= best_count:
            continue
        e0, e1, e2 = e
        ortho = [v for v in vecs if e0 * v[0] + e1 * v[1] + e2 * v[2] == 0]
        bb1 = ortho[0]
        bb2 = cross3(e, bb1)
        count, groups, anchors = _sweep2(c0 + b, [(dot3(bb1, v), dot3(bb2, v)) for v in ortho])
        if best_count is None or count < best_count:
            best_count = count
            best_cell = (e, bb1, bb2, groups, anchors)
    if best_count is None or best_cell is None:
        raise RuntimeError("3-D depth sweep found no arrangement edge for rank-3 data")
    return best_count, lambda: _edge_witness(vecs, *best_cell)


def _edge_witness(vecs, e, bb1, bb2, groups, anchors) -> tuple[int, ...]:
    """Exact direction inside the best cell next to the arrangement edge ``e``."""
    w3 = _lift(_cell_witness_2d(groups[anchors[0]], groups), (bb1, bb2))
    # delta = dn / dd, the smallest |e . v| / |w3 . v|, by cross-multiplying
    dn = dd = 0
    for v in vecs:
        se = abs(dot3(e, v))
        if se == 0:
            continue
        sw = abs(dot3(w3, v))
        if sw != 0 and (dd == 0 or se * dd < dn * sw):
            dn, dd = se, sw
    if dd == 0:
        return tuple(q_e + w for q_e, w in zip(e, w3))
    half = Fraction(dn, 2 * dd)
    return tuple(half.denominator * ec + half.numerator * wc for ec, wc in zip(e, w3))


# ---------------------------------------------------------------------------
# the kernels: one per dimension, each giving ``(count, zero count, cells,
# witness)`` for a query, where ``witness(cells, i)`` is the exact witness
# direction of the i-th minimizing cell and None past the last one


def _side_witness(sides: tuple[tuple[int], ...], i: int) -> Vec | None:
    return tuple(map(Fraction, sides[i])) if i < len(sides) else None


def _anchor_witness(cells: tuple[list[tuple[int, int]], list[int]], i: int) -> Vec | None:
    groups, anchors = cells
    if not groups:
        return (Fraction(1), Fraction(0)) if i == 0 else None
    if i >= len(anchors):
        return None
    u = _cell_witness_2d(groups[anchors[i]], groups)
    return (Fraction(u[0]), Fraction(u[1]))


def _lifted_witness(lift: Callable[[], tuple[int, ...]], i: int) -> Vec | None:
    return tuple(map(Fraction, lift())) if i == 0 else None


def _depth1(ds: DataSet, xt: Vec):
    c0, vecs = _row_vectors(ds, xt)
    count, sides = _sweep1(c0, vecs)
    return count, c0, sides, _side_witness


def _depth2(ds: DataSet, xt: Vec):
    c0, vecs = _row_vectors(ds, xt)
    count, groups, anchors = _sweep2(c0, vecs)
    return count, c0, (groups, anchors), _anchor_witness


def _depth3(ds: DataSet, xt: Vec):
    c0, vecs = _query_vectors(ds, xt)
    count, lift = _depth3_int(c0, vecs)
    return count, c0, lift, _lifted_witness


_KERNELS = {1: _depth1, 2: _depth2, 3: _depth3}


# ---------------------------------------------------------------------------
# public depth API


def _query_point(x: Sequence[object], ds: DataSet) -> Vec:
    """``x`` as Fractions, checked against the dataset for an exact depth query."""
    xt = tuple(as_fraction(c) for c in x)
    if len(xt) != ds.dim:
        raise ValueError("query point dimension does not match dataset")
    if ds.dim > 3:
        raise ValueError("exact depth supports d <= 3; see approximate_depth")
    return xt


def _verify_witness(ds: DataSet, xt: Vec, witness: Vec, count: int) -> None:
    got, _ = _recount(ds, xt, witness)
    if got != count:
        raise RuntimeError(
            f"witness recount mismatch: sweep={count}, witness gives {got}"
        )


def tukey_depth(x: Sequence[object], ds: DataSet) -> DepthResult:
    """Exact halfspace depth of ``x`` with respect to the dataset (d <= 3)."""
    xt = _query_point(x, ds)
    d, n = ds.dim, ds.n
    count, c0, cells, witness = _KERNELS[d](ds, xt)
    u = canonical_direction(witness(cells, 0))
    if d > 1:
        _verify_witness(ds, xt, u, count)
    return DepthResult(Fraction(count, n), count, n, u, c0)


def depth_count(x: Sequence[object], ds: DataSet) -> int:
    """Minimum closed-halfspace count, without building a witness."""
    xt = _query_point(x, ds)
    return _KERNELS[ds.dim](ds, xt)[0]


def convex_hull_contains(ds: DataSet, x: Sequence[object]) -> bool:
    """Exact test for ``x`` in the convex hull of the dataset (d <= 3).

    A point outside the hull has a closed halfspace through it that holds
    no sample point, and every closed halfspace through a point of the hull
    holds one, so membership is a positive depth count.
    """
    return depth_count(x, ds) >= 1


def witness_cut(x: Sequence[object], ds: DataSet) -> tuple[int, Vec]:
    """Minimum count together with an exact witness direction (d = 2 or 3),
    whose coordinates are integers.

    Cheaper companion of :func:`tukey_depth` used by the region search: no
    canonicalization, no recount.
    """
    xt = _query_point(x, ds)
    d = ds.dim
    if d == 1:
        raise ValueError("witness_cut supports d = 2 or 3; use tukey_depth on 1-D data")
    count, _, cells, witness = _KERNELS[d](ds, xt)
    return count, witness(cells, 0)


def optimal_direction_cone(x: Sequence[object], ds: DataSet) -> list[Vec]:
    """One exact witness per maximal cone of depth-minimizing directions.

    In space the edge sweep gives one representative, from its best cell.
    """
    xt = _query_point(x, ds)
    count, _, cells, witness = _KERNELS[ds.dim](ds, xt)
    cones: list[Vec] = []
    i = 0
    while (u := witness(cells, i)) is not None:
        cu = canonical_direction(u)
        if cu not in cones:
            cones.append(cu)
        i += 1
    if ds.dim == 3:
        _verify_witness(ds, xt, cones[0], count)
    return cones


# ---------------------------------------------------------------------------
# directional quantiles


def quantile_index(n: int, tau: Fraction) -> int:
    """1-based order-statistic index ceil(n * tau)."""
    k = -((-(tau.numerator * n)) // tau.denominator)
    return int(k)


def directional_quantile(ds: DataSet, u: Sequence[object], tau: object) -> Fraction:
    """The ceil(n*tau)-th smallest projection of the sample onto ``u``."""
    tau = as_fraction(tau)
    if not (0 < tau <= 1):
        raise ValueError("tau must lie in (0, 1]")
    ut = tuple(as_fraction(c) for c in u)
    if len(ut) != ds.dim:
        raise ValueError("direction dimension does not match dataset")
    if all(c == 0 for c in ut):
        raise ValueError("direction must be nonzero")
    k = quantile_index(ds.n, tau)
    uden, ui = int_point(ut)
    scale, rows = ds.scaled_ints()
    projs = [sum(map(operator.mul, ui, r)) for r in rows]
    projs.sort()
    return Fraction(projs[k - 1], uden * scale)


# ---------------------------------------------------------------------------
# 1-D order statistics (shared with regions and the breakdown analysis)


def _levels_1d(values: Iterable[Fraction]) -> tuple[list[Fraction], int]:
    """The values sorted, ``v_1 <= ... <= v_n``, and the deepest level.

    The points of depth at least k/n form ``[v_k, v_{n-k+1}]``, nonempty
    iff ``v_k <= v_{n-k+1}``, so the deepest level is the largest such k.
    It is at least ``ceil(n/2)``, and above that the two order statistics
    must be equal.
    """
    vals = sorted(values)
    n = len(vals)
    k = (n + 1) // 2
    while k < n and vals[k] == vals[n - k - 1]:
        k += 1
    return vals, k


def max_depth_1d(values: Sequence[Fraction]) -> tuple[Fraction, int]:
    """Largest 1-D depth over all points, as (value, count)."""
    vals, k = _levels_1d(values)
    return Fraction(k, len(vals)), k


def median_interval_1d(values: Sequence[Fraction]) -> tuple[Fraction, Fraction, Fraction]:
    """(left end, right end, max depth) of the 1-D maximal-depth region."""
    vals, k = _levels_1d(values)
    return vals[k - 1], vals[-k], Fraction(k, len(vals))


# ---------------------------------------------------------------------------
# approximate paths (d > 3)


def direction_net(d: int, count: int, seed: int = 0, rng=None) -> np.ndarray:
    """Deterministic direction net including the coordinate axes."""
    axes = np.concatenate([np.eye(d), -np.eye(d)])
    if d == 1:
        return axes
    if d == 2:
        angles = np.linspace(0.0, np.pi, count, endpoint=False)
        net = np.stack([np.cos(angles), np.sin(angles)], axis=1)
        return np.concatenate([net, -net, axes])
    if rng is None:
        rng = np.random.Generator(np.random.Philox(key=seed))
    raw = rng.standard_normal((count, d))
    norms = np.linalg.norm(raw, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return np.concatenate([raw / norms, axes])


def approximate_depth(
    x: Sequence[object], ds: DataSet, n_directions: int = 512, seed: int = 0
) -> DepthResult:
    """Net-based upper estimate of the depth (any dimension, labeled inexact).

    Counts per direction are exact; only the minimum over directions is
    restricted to the net, so the result can overestimate the true depth.
    """
    xt = tuple(as_fraction(c) for c in x)
    d = ds.dim
    if len(xt) != d:
        raise ValueError("query point dimension does not match dataset")
    n = ds.n
    rng = np.random.Generator(np.random.Philox(key=seed))
    net = direction_net(d, n_directions, rng=rng)
    # data-driven candidates: differences of sample points
    pts = np.array([[float(c) for c in p] for p in ds.points])
    xf = np.array([float(c) for c in xt])
    diffs = pts - xf
    keep = np.abs(diffs).max(axis=1) > 0
    if keep.any():
        net = np.concatenate([net, diffs[keep][: 4 * n]])
    best_count = None
    best_u = None
    for u in net:
        # Python ints: int64 would overflow on large coordinates
        uf = tuple(Fraction(round(c)) for c in (u * (1 << 24)).tolist())
        if all(c == 0 for c in uf):
            continue
        cnt, _ = _recount(ds, xt, uf)
        if best_count is None or cnt < best_count:
            best_count, best_u = cnt, uf
    if best_count is None or best_u is None:
        raise RuntimeError("direction net holds no nonzero direction")
    _, boundary = _recount(ds, xt, best_u)
    return DepthResult(
        Fraction(best_count, n), best_count, n, canonical_direction(best_u), boundary, exact=False
    )
