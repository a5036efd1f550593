"""Contamination robustness of the halfspace median.

The additive breakdown point of the deepest-point median is bracketed by two
exactly computable quantities:

* **lower bound** ``lambda*/(1 + lambda*)`` — fewer than ``n*lambda*``
  contaminating points cannot pull the median out of a bounded set, because
  the original data alone keep the depth of interior points high enough;
* **upper bound** ``inf_u lambda_u*/(1 + inf_u lambda_u*)`` — project the
  data onto the orthocomplement of a direction ``u``; if ``lambda_u*`` is
  the maximal depth of the projected sample, then roughly ``n*lambda_u*``
  copies of a single far-away point on a well-chosen line parallel to ``u``
  give that point more depth than anything inside the original hull.

The upper bound is constructive: :func:`build_attack` emits the actual
contamination plan and :func:`verify_attack` checks, with exact rational
arithmetic, that the plan caps the depth inside the original hull and drags
the median away linearly in the placement distance.  The cap is read from
the level of the contaminated median, which no point exceeds; levels below
it are bisected only when the median region misses the hull.  For tiny planar
datasets :func:`exact_breakdown` searches the plan family exhaustively and,
whenever the two bounds pinch, certifies the exact breakdown point.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .depth import (
    _sort_by_angle,
    convex_hull_contains,
    depth_count,
    max_depth_1d,
    median_interval_1d,
    optimal_direction_cone,
)
from .geometry import (
    DataSet,
    Vec,
    affine_dimension,
    as_fraction,
    cross3,
    dataset,
    dot,
    hull_halfspaces,
    int_point,
    primitive,
    vsub,
)
from .polytope import Polytope, intersect_halfspaces
from .regions import MedianResult, depth_region, median_region


# ---------------------------------------------------------------------------
# projections onto a direction's orthocomplement


@dataclass(frozen=True)
class ProjectionFrame:
    """Exact integer basis of the orthocomplement of ``u``.

    Columns are primitive integer vectors, pairwise orthogonal and
    orthogonal to ``u``, but not unit length: halfspace-depth combinatorics
    in the projected space are invariant to positive column scaling, so
    normalization (which would leave the rationals) is unnecessary.
    """

    u: Vec
    basis: tuple[Vec, ...]


def _signed(v: tuple[int, ...]) -> tuple[int, ...]:
    """``v`` or ``-v``, whichever has a positive first nonzero entry."""
    lead = next(c for c in v if c != 0)
    return v if lead > 0 else tuple(-c for c in v)


def projection_frame(u: Sequence, d: int | None = None) -> ProjectionFrame:
    """Orthogonal integer basis of ``u``'s orthocomplement, by cross products.

    With ``ui`` the integer form of ``u``, the plane's basis is
    ``(ui1, -ui0)``; in space it is ``b0 = ui x (e_j x ui)`` for the first
    unit vector ``e_j`` off ``u``'s line, then ``b1 = ui x b0``, whose
    entries up to j are zero.  Each is primitive and signed so that its
    first nonzero entry is positive, which makes them the Gram-Schmidt
    vectors of ``e_0, e_1, ...`` against ``u``, each scaled to a primitive
    integer vector.
    """
    uvec = tuple(as_fraction(c) for c in u)
    if d is None:
        d = len(uvec)
    if len(uvec) != d:
        raise ValueError("direction length does not match dimension")
    if all(c == 0 for c in uvec):
        raise ValueError("zero direction has no projection frame")
    if d not in (2, 3):
        raise ValueError("projection frames support d in {2, 3}")
    ui = int_point(uvec)[1]
    if d == 2:
        basis = [_signed(primitive((ui[1], -ui[0])))]
    else:
        j = 0 if ui[1] or ui[2] else 1
        b0 = _signed(primitive(cross3(ui, cross3(tuple(int(i == j) for i in range(3)), ui))))
        basis = [b0, _signed(primitive(cross3(ui, b0)))]
    return ProjectionFrame(uvec, tuple(tuple(map(Fraction, b)) for b in basis))


def _projections(ds: DataSet, frame: ProjectionFrame) -> list[list[Fraction]]:
    """One column per basis vector ``b``: each ``b . X_i`` made as one
    Fraction ``b . nums_i / den_i`` from the integer rows."""
    if len(frame.u) != ds.dim:
        raise ValueError("frame dimension does not match dataset")
    dens, nums = ds.row_ints()
    return [
        [Fraction(sum(map(operator.mul, b, r)), den) for den, r in zip(dens, nums)]
        for b in (tuple(c.numerator for c in v) for v in frame.basis)
    ]


def project_dataset(ds: DataSet, frame: ProjectionFrame) -> DataSet:
    """Images of the points under the frame's basis (multiplicity kept)."""
    return DataSet(tuple(zip(*_projections(ds, frame))))


def projected_lambda(ds: DataSet, u: Sequence) -> Fraction:
    """Maximal depth of the sample projected onto ``u``'s orthocomplement."""
    if ds.dim not in (2, 3):
        raise ValueError("projected depth levels support d in {2, 3}")
    frame = projection_frame(u, ds.dim)
    if ds.dim == 2:
        return max_depth_1d(_projections(ds, frame)[0])[0]
    return median_region(project_dataset(ds, frame)).lambda_star


def _anchors_1d(ds: DataSet, frame: ProjectionFrame) -> tuple[list[Vec], Fraction]:
    """The ends of the projected 1-D median interval (one when they meet)
    and its depth: the anchors ``x0`` of planar attacks."""
    lo, hi, lam = median_interval_1d(_projections(ds, frame)[0])
    return ([(lo,), (hi,)] if hi != lo else [(lo,)]), lam


# ---------------------------------------------------------------------------
# the two bounds


@dataclass(frozen=True)
class DirectionSearchConfig:
    """Controls the direction search of :func:`upper_bound`.

    The d unit vectors and ``probes`` pseudo-random directions are tried
    first, then the net: the d=2 critical sweep when ``exhaustive`` is set,
    and in space always the cross-product net.  A direction that reaches
    the exact pinch floor ends the search: no direction goes below the
    floor, so nothing after it could improve the bound.
    """

    probes: int = 32
    seed: int = 0
    exhaustive: bool = True


@dataclass(frozen=True)
class UpperBoundResult:
    bound: Fraction
    direction: Vec
    inf_lambda: Fraction
    exact: bool

    def __iter__(self) -> Iterator:
        return iter((self.bound, self.direction))


def _pinch_floor(n: int, projected_dim: int) -> Fraction:
    # minimal possible maximal depth of any n-point sample in the projected
    # dimension: the median (k=1) and centerpoint (k=2) guarantees
    return Fraction(-(-n // (projected_dim + 1)), n)


def _probe_directions(d: int, cfg: DirectionSearchConfig) -> list[tuple[int, ...]]:
    import random

    rng = random.Random(cfg.seed)
    dirs = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    for _ in range(cfg.probes):
        v = tuple(rng.randint(-999, 999) for _ in range(d))
        if any(v):
            dirs.append(v)
    return dirs


def _pair_directions(ds: DataSet) -> list[tuple[int, ...]]:
    """Primitive differences ``b - a`` of the sorted distinct integer rows,
    one per pair ``a < b``."""
    rows = sorted(set(ds.scaled_ints()[1]))
    return [primitive(tuple(map(operator.sub, b, a))) for a, b in itertools.combinations(rows, 2)]


def _tie_and_arc_directions(ds: DataSet) -> list[tuple[int, ...]]:
    """The directions parallel to point differences, where projections tie,
    by angle; then the sum of each neighbouring pair: one representative
    per arc between them.

    The angle runs over (-pi, pi]: the exact angular order from the
    positive x-axis, rotated to start at the first direction below it.
    Each difference comes with both signs, so on data of full affine
    dimension such a direction exists.
    """
    ties: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for v in _pair_directions(ds):
        for w in (v, tuple(-c for c in v)):
            if w not in seen:
                seen.add(w)
                ties.append(w)
    _sort_by_angle(ties)
    i = next(i for i, v in enumerate(ties) if v[1] < 0)
    ties = ties[i:] + ties[:i]
    mids = (tuple(map(operator.add, a, b)) for a, b in zip(ties, ties[1:] + ties[:1]))
    return ties + [mid for mid in mids if any(mid)]


def _cross_directions(ds: DataSet) -> Iterator[tuple[int, ...]]:
    """The 3-D net: primitive cross products of pairs of point differences,
    each the first time it occurs."""
    seen: set[tuple[int, ...]] = set()
    for v, w in itertools.combinations(_pair_directions(ds), 2):
        c = primitive(cross3(v, w))
        if any(c) and c not in seen:
            seen.add(c)
            yield c


def upper_bound(
    ds: DataSet,
    search: DirectionSearchConfig | None = None,
    lambda_star: Fraction | None = None,
) -> UpperBoundResult:
    """Minimize the projected depth level over directions.

    One loop runs the probe directions, then the net, and stops at the
    first direction that reaches the pinch floor or, when given, the
    sample's maximal depth ``lambda_star``.  No ``lambda_u`` lies below
    either (projection cannot lower depth), so either stop is exact.
    For d=2 the ``exhaustive`` sweep makes the minimum exact: the projected
    order changes only at directions parallel to point differences, so
    ``lambda_u*`` is piecewise constant on the circle and its minimum is
    attained on the finite set of tie directions plus one representative
    per arc between them.  For d=3 the net is the cross products of
    point-difference pairs, and the result is exact only when one of the
    two stops is reached; otherwise it is flagged ``exact=False``.
    """
    cfg = search or DirectionSearchConfig()
    d = ds.dim
    if d not in (2, 3):
        raise ValueError("the projection upper bound supports d in {2, 3}")
    if affine_dimension(ds) < d:
        raise ValueError("the projection upper bound requires full affine dimension")
    floor = _pinch_floor(ds.n, d - 1)
    swept = d == 2 and cfg.exhaustive
    net = _cross_directions(ds) if d == 3 else _tie_and_arc_directions(ds) if swept else ()

    best: Fraction | None = None
    best_u: tuple[int, ...] | None = None
    for u in itertools.chain(_probe_directions(d, cfg), net):
        lam = projected_lambda(ds, u)
        if best is None or lam < best:
            best, best_u = lam, u
        if lam in (floor, lambda_star):
            break
    if best is None or best_u is None:
        raise RuntimeError("no candidate direction for the upper bound")
    return UpperBoundResult(
        best / (1 + best), tuple(map(Fraction, best_u)), best, swept or best in (floor, lambda_star)
    )


def lower_bound(ds: DataSet) -> Fraction:
    """``lambda*/(1 + lambda*)``: contamination below it cannot escape."""
    if affine_dimension(ds) < ds.dim:
        raise ValueError("the breakdown lower bound requires full affine dimension")
    lam = median_region(ds).lambda_star
    return lam / (1 + lam)


# ---------------------------------------------------------------------------
# the constructive attack


@dataclass(frozen=True)
class ContaminationPlan:
    """Repeated contamination at one point on a line parallel to ``u``.

    ``y0 = sum(x0_projected[i] * basis[i]) + gamma * u`` lies outside the
    convex hull of the clean data; ``m`` copies of it are added.
    """

    u: Vec
    x0_projected: Vec
    y0: Vec
    m: int
    distance_scale: Fraction
    gamma: Fraction
    lambda_u: Fraction


@dataclass(frozen=True)
class AttackVerification:
    """A plan's verdict; ``median`` is the contaminated median the escape
    test measured, and ``tuple(res)`` holds the first three fields only."""

    sup_depth_inside: Fraction
    depth_at_y0: Fraction
    escaped: bool
    median: Vec

    def __iter__(self) -> Iterator:
        return iter((self.sup_depth_inside, self.depth_at_y0, self.escaped))


def _exposed_vertices(region: Polytope, proj: DataSet) -> list[Vec]:
    """Region vertices having an optimal direction supporting only them."""
    out = []
    for v in region.vertices:
        others = [w for w in region.vertices if w != v]
        if not others:
            out.append(v)
            continue
        for u in optimal_direction_cone(v, proj):
            lo = dot(u, v)
            if all(dot(u, w) > lo for w in others):
                out.append(v)
                break
    return out


def build_attack(
    ds: DataSet,
    u: Sequence,
    distance: object = 10**6,
    m: int | None = None,
    x0: Vec | None = None,
) -> ContaminationPlan:
    """Contamination plan along direction ``u`` at roughly ``distance``.

    Takes ``x0`` from the projected median region: the smaller end of the
    interval in the plane, and in space the smallest exposed vertex, one
    with an optimal halfspace that touches the region only at ``x0``
    (``RuntimeError`` if there is none); places ``m = ceil(n*lambda_u*)``
    copies of ``y0`` on the line through ``x0`` parallel to ``u``, outside
    the hull.
    """
    if ds.dim not in (2, 3):
        raise ValueError("attacks support d in {2, 3}")
    dist = as_fraction(distance)
    if dist <= 0:
        raise ValueError("distance must be positive")
    frame = projection_frame(u, ds.dim)

    if ds.dim == 2:
        candidates, lam_u = _anchors_1d(ds, frame)
    else:
        proj = project_dataset(ds, frame)
        mr = median_region(proj)
        lam_u = mr.lambda_star
        candidates = sorted(_exposed_vertices(mr.region, proj))
        if not candidates:
            raise RuntimeError("the projected median region has no exposed vertex")
    x0_point: Vec = x0 if x0 is not None else candidates[0]

    reps = m if m is not None else math.ceil(ds.n * lam_u)
    if reps < 1:
        raise ValueError("attack needs at least one contaminating point")

    # lift the projected anchor back to the ambient space: the projected
    # coordinates are dot products with the (orthogonal, non-unit) basis
    # vectors, so inverting requires dividing by their squared norms
    base = tuple(
        sum(x0c * bvec[j] / _sq_norm(bvec) for x0c, bvec in zip(x0_point, frame.basis))
        for j in range(ds.dim)
    )
    maxabs = max(abs(c) for c in frame.u)
    gamma = dist / maxabs
    # a point beyond the data's coordinate range cannot lie in the hull
    bound = max(abs(c) for p in ds.points for c in p) + 1
    y0 = tuple(bc + gamma * uc for bc, uc in zip(base, frame.u))
    while all(abs(c) <= bound for c in y0):
        gamma *= 2
        y0 = tuple(bc + gamma * uc for bc, uc in zip(base, frame.u))
    return ContaminationPlan(
        u=frame.u,
        x0_projected=x0_point,
        y0=y0,
        m=reps,
        distance_scale=dist,
        gamma=gamma,
        lambda_u=lam_u,
    )


def _sup_depth_on_hull(clean: DataSet, contaminated: DataSet, top: MedianResult) -> Fraction:
    """Exact sup of the contaminated depth over the clean convex hull.

    ``top`` is the contaminated median: no point is deeper than its level
    k*, so the sup is k*/(n+m) when its region meets the hull, and otherwise
    the levels below k* are bisected.
    """
    hull_hs = hull_halfspaces(clean)
    total = contaminated.n

    # only nonemptiness is read, so a level built with other cuts than the
    # median's gives the same answer
    def meets_hull(region: Polytope) -> bool:
        if region.empty:
            return False
        meet = intersect_halfspaces(list(region.halfspaces) + hull_hs, dim=clean.dim)
        return not meet.empty

    if meets_hull(top.region):
        return top.lambda_star
    lo, hi = 1, int(top.lambda_star * total) - 1  # depth 1/total holds at every clean point
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if meets_hull(depth_region(contaminated, Fraction(mid, total)).polytope):
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, total)


def _sq_norm(v: Vec) -> Fraction:
    return sum(c * c for c in v)


def _enclosing_ball(ds: DataSet) -> tuple[Vec, Fraction]:
    """Center and squared radius of a simple ball containing the hull."""
    center = tuple(
        (min(p[j] for p in ds.points) + max(p[j] for p in ds.points)) / 2
        for j in range(ds.dim)
    )
    r2 = max(_sq_norm(vsub(p, center)) for p in ds.points)
    return center, r2


def verify_attack(ds: DataSet, plan: ContaminationPlan) -> AttackVerification:
    """Exact verification of a contamination plan.

    Checks the depth cap over the clean hull, the depth earned at ``y0``,
    and whether the contaminated median escapes: it must leave the doubled
    enclosing ball of the clean data and recede linearly when the placement
    distance is multiplied by 10.  One contaminated median serves both the
    escape test and the cap: the sup over the hull is read from its level
    k* when its region meets the hull, and only levels below k* are
    bisected otherwise.  Consecutive placements of a tenfold distance
    schedule share one contaminated median: the clean dataset keeps the
    last far median, and a plan whose ``y0`` and ``m`` are that far
    placement takes it as its own.
    """
    if len(plan.y0) != ds.dim or len(plan.u) != ds.dim:
        raise ValueError("plan dimension does not match dataset")
    if plan.m < 1:
        raise ValueError("attack needs at least one contaminating point")
    if convex_hull_contains(ds, plan.y0):
        raise ValueError("plan's contamination point lies inside the convex hull")

    contaminated = dataset(list(ds.points) + [plan.y0] * plan.m)
    key, top = ds._cache.get("far_median", (None, None))
    if key != (plan.y0, plan.m):
        top = median_region(contaminated)
    sup_inside = _sup_depth_on_hull(ds, contaminated, top)
    depth_y0 = Fraction(depth_count(plan.y0, contaminated), contaminated.n)

    center, r2 = _enclosing_ball(ds)
    d1 = _sq_norm(vsub(top.median, center))
    outside_ball = d1 > 4 * r2

    escaped = False
    if outside_ball:
        base = tuple(y - plan.gamma * u for y, u in zip(plan.y0, plan.u))
        y0_far = tuple(b + 10 * plan.gamma * u for b, u in zip(base, plan.u))
        far = median_region(dataset(list(ds.points) + [y0_far] * plan.m))
        ds._cache["far_median"] = ((y0_far, plan.m), far)
        d2 = _sq_norm(vsub(far.median, center))
        escaped = d2 >= 25 * d1  # distance at least 5x when placement is 10x
    return AttackVerification(sup_inside, depth_y0, escaped, top.median)


# ---------------------------------------------------------------------------
# exhaustive small-instance breakdown search


@dataclass(frozen=True)
class BreakdownReport:
    n: int
    dim: int
    lower: Fraction
    upper: Fraction
    exact_m: int | None
    witness_plan: ContaminationPlan | None

    @property
    def exact_ratio(self) -> Fraction | None:
        if self.exact_m is None:
            return None
        return Fraction(self.exact_m, self.n + self.exact_m)


BREAKDOWN_CSV_HEADER = "n,d,lower,upper,exact_m,attack_u,m,scale,escaped"


def breakdown_csv_row(report: BreakdownReport) -> str:
    plan = report.witness_plan
    return ",".join(
        [
            str(report.n),
            str(report.dim),
            str(report.lower),
            str(report.upper),
            "" if report.exact_m is None else str(report.exact_m),
            "" if plan is None else '"' + " ".join(str(c) for c in plan.u) + '"',
            "" if plan is None else str(plan.m),
            "" if plan is None else str(plan.distance_scale),
            "" if plan is None else "true",
        ]
    )


def exact_breakdown(
    ds: DataSet,
    m_max: int | None = None,
    scales: Sequence[object] = (10**3, 10**4, 10**5),
) -> BreakdownReport:
    """Smallest certified contamination count for tiny instances.

    For d=1 the answer is closed-form: the median interval's endpoints are
    order statistics that stay inside the clean range until ``m = n``, so
    ``exact_m = n`` (the classical 1/2 additive breakdown).  For d=2 with
    n <= 10, searches the structured plan family (every tie direction and
    arc representative, every candidate ``x0``) for the smallest ``m`` that
    escapes at every scale of the schedule; reports ``exact_m=None`` if the
    family finds none (the family is exhaustive over plans, not over all
    possible contaminations).
    """
    n = ds.n
    if ds.dim == 1:
        lam = max_depth_1d([p[0] for p in ds.points])[0]
        return BreakdownReport(
            n=n, dim=1, lower=lam / (1 + lam), upper=Fraction(1, 2),
            exact_m=n, witness_plan=None,
        )
    if ds.dim != 2:
        raise ValueError("exhaustive breakdown search supports d in {1, 2}")
    if n > 10:
        raise ValueError("exhaustive breakdown search is limited to n <= 10")
    if affine_dimension(ds) < 2:
        raise ValueError("exhaustive breakdown search requires full affine dimension")

    lam_star = median_region(ds).lambda_star
    lower = lam_star / (1 + lam_star)
    ub = upper_bound(ds, lambda_star=lam_star)
    m_floor = math.ceil(n * lam_star)  # below this the lower bound forbids escape
    if m_max is None:
        m_max = n

    directions = _tie_and_arc_directions(ds)
    for ax in ((1, 0), (-1, 0), (0, 1), (0, -1)):  # axis-extreme placements
        if ax not in directions:
            directions.append(ax)
    anchors = [(u, _anchors_1d(ds, projection_frame(u, 2))[0]) for u in directions]

    scale_list = [as_fraction(s) for s in scales]
    for m in range(max(1, m_floor), m_max + 1):
        for u, x0s in anchors:
            for x0 in x0s:
                ok_plan: ContaminationPlan | None = None
                for scale in scale_list:
                    plan = build_attack(ds, u, scale, m=m, x0=x0)
                    res = verify_attack(ds, plan)
                    if not res.escaped:
                        ok_plan = None
                        break
                    ok_plan = plan
                if ok_plan is not None:
                    return BreakdownReport(
                        n=n, dim=2, lower=lower, upper=ub.bound,
                        exact_m=m, witness_plan=ok_plan,
                    )
    return BreakdownReport(
        n=n, dim=2, lower=lower, upper=ub.bound, exact_m=None, witness_plan=None
    )
