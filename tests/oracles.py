"""Independent brute-force oracles used to validate the fast implementations.

Everything here trades speed for obviousness: depth minima are taken over an
explicitly enumerated, provably sufficient set of candidate directions, with
plain Fraction/integer arithmetic and no shared code with the sweep kernels.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction

from halfmed.geometry import AffineFrame, DataSet


def _diff_vectors(x, ds: DataSet):
    """Integer versions of Xi - x (common positive scale), plus zero count."""
    den = 1
    for p in ds.points:
        for c in p:
            den = den * c.denominator // math.gcd(den, c.denominator)
    for c in x:
        den = den * c.denominator // math.gcd(den, c.denominator)
    vecs = []
    zeros = 0
    for p in ds.points:
        v = tuple(int((pc - xc) * den) for pc, xc in zip(p, x))
        if any(c != 0 for c in v):
            vecs.append(v)
        else:
            zeros += 1
    return zeros, vecs


def _count_lex(seq, vecs) -> int:
    """Points whose lexicographic sign under the direction chain is <= 0.

    ``seq`` models the direction u = s1 + eps*s2 + eps^2*s3 for infinitesimal
    eps: the sign of u . v is the first nonzero of (s1.v, s2.v, ...).
    """
    cnt = 0
    for v in vecs:
        s = 0
        for u in seq:
            d = sum(uc * vc for uc, vc in zip(u, v))
            if d != 0:
                s = d
                break
        if s <= 0:
            cnt += 1
    return cnt


def oracle_depth_count(x, ds: DataSet) -> int:
    """Minimum number of sample points in a closed halfspace through x."""
    zeros, vecs = _diff_vectors(x, ds)
    n = ds.n
    if not vecs:
        return n
    d = ds.dim
    if d == 1:
        neg = sum(1 for (v,) in vecs if v < 0)
        return zeros + min(neg, len(vecs) - neg)
    if d == 2:
        return zeros + _oracle_min_2d(vecs)
    if d == 3:
        return zeros + _oracle_min_3d(vecs)
    raise ValueError("oracle supports d <= 3")


def oracle_depth_value(x, ds: DataSet) -> Fraction:
    return Fraction(oracle_depth_count(x, ds), ds.n)


def _oracle_min_2d(vecs) -> int:
    # candidate directions: every cell boundary ray (perpendiculars of the
    # difference vectors) plus a representative inside every open cell (sums
    # of ray pairs; perpendiculars of rays cover the two-ray case)
    rays = set()
    for a, b in vecs:
        g = math.gcd(abs(a), abs(b))
        rays.add((-b // g, a // g))
        rays.add((b // g, -a // g))
    rays = list(rays)
    cands = list(rays)
    for r in rays:
        cands.append((-r[1], r[0]))
    for r, s in itertools.combinations(rays, 2):
        t = (r[0] + s[0], r[1] + s[1])
        if t != (0, 0):
            cands.append(t)
    best = len(vecs)
    for u in cands:
        c = sum(1 for v in vecs if u[0] * v[0] + u[1] * v[1] <= 0)
        if c < best:
            best = c
    return best


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _oracle_min_3d(vecs) -> int:
    # Level-1 candidates: data vectors and pairwise cross products (every
    # cone cell of the hyperplane arrangement has such a vector in its
    # closure). Lexicographic chains (e, p, cross(e,p)) reach the open cells
    # adjacent to each candidate, so the minimum over chains is the true
    # minimum over directions.
    singles = set()
    for v in vecs:
        g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
        w = (v[0] // g, v[1] // g, v[2] // g)
        singles.add(w)
        singles.add((-w[0], -w[1], -w[2]))
    for a, b in itertools.combinations(list(singles), 2):
        e = _cross(a, b)
        if e != (0, 0, 0):
            g = math.gcd(math.gcd(abs(e[0]), abs(e[1])), abs(e[2]))
            e = (e[0] // g, e[1] // g, e[2] // g)
            singles.add(e)
            singles.add((-e[0], -e[1], -e[2]))
    best = len(vecs)
    for e in singles:
        best = min(best, _count_lex((e,), vecs))
        for v in vecs:
            p = _cross(e, v)
            if p == (0, 0, 0):
                continue
            for pp in (p, (-p[0], -p[1], -p[2])):
                q = _cross(e, pp)
                best = min(best, _count_lex((e, pp, q), vecs))
                best = min(
                    best, _count_lex((e, pp, (-q[0], -q[1], -q[2])), vecs)
                )
    return best


# ---------------------------------------------------------------------------
# randomized rational datasets for property tests


def random_dataset(
    rng: random.Random,
    dim: int,
    max_n: int = 12,
    dup_prob: float = 0.3,
    collinear_prob: float = 0.2,
    denom: int = 4,
    span: int = 6,
) -> DataSet:
    """Small rational dataset with deliberate duplicates and collinearity."""
    from halfmed.geometry import dataset

    n = rng.randint(dim + 1, max_n)
    pts: list[tuple[Fraction, ...]] = []
    while len(pts) < n:
        if pts and rng.random() < dup_prob:
            pts.append(rng.choice(pts))
            continue
        if len(pts) >= 2 and rng.random() < collinear_prob:
            a, b = rng.sample(range(len(pts)), 2)
            t = Fraction(rng.randint(-2, 4), rng.randint(1, 3))
            pts.append(
                tuple(pa + t * (pb - pa) for pa, pb in zip(pts[a], pts[b]))
            )
            continue
        pts.append(
            tuple(
                Fraction(rng.randint(-span * denom, span * denom), denom)
                for _ in range(dim)
            )
        )
    return dataset(pts)


def random_probe(rng: random.Random, ds: DataSet) -> tuple[Fraction, ...]:
    """A probe point near the data: mixture of data points, averages, noise."""
    mode = rng.random()
    if mode < 0.35:
        return rng.choice(ds.points)
    if mode < 0.7:
        a, b = rng.choice(ds.points), rng.choice(ds.points)
        t = Fraction(rng.randint(0, 8), 8)
        return tuple(pa + t * (pb - pa) for pa, pb in zip(a, b))
    base = rng.choice(ds.points)
    return tuple(
        c + Fraction(rng.randint(-12, 12), 8) for c in base
    )


# ---------------------------------------------------------------------------
# reference formulas of the planar cutting loop's helpers, in Fractions


def reference_contact_location(ds: DataSet, u, k: int):
    """The k-th of the points sorted by (projection under u, point)."""
    projs = sorted((sum(uc * pc for uc, pc in zip(u, p)), p) for p in ds.points)
    return projs[k - 1][1]


def reference_coordinatewise_median(ds: DataSet):
    """Per coordinate, the middle Fraction, or the mean of the two middle ones."""
    cols = []
    for j in range(ds.dim):
        vals = sorted(p[j] for p in ds.points)
        m = len(vals)
        cols.append(vals[m // 2] if m % 2 else (vals[m // 2 - 1] + vals[m // 2]) / 2)
    return tuple(cols)


def reference_bracketing_criticals_2d(ds: DataSet, u, contact):
    """Nearest perpendiculars of ``p - contact`` on each side of ``u``.

    Scans ``set(ds.points)`` and keeps the first of several parallel
    candidates, so the returned vectors carry the length of a difference.
    """
    best_left = best_right = None
    for p in set(ds.points):
        dx = p[0] - contact[0]
        dy = p[1] - contact[1]
        if dx == 0 and dy == 0:
            continue
        for w in ((-dy, dx), (dy, -dx)):
            c = u[0] * w[1] - u[1] * w[0]
            if c == 0:
                if u[0] * w[0] + u[1] * w[1] > 0:
                    return [u]
                continue
            if c > 0:
                if best_left is None or w[0] * best_left[1] - w[1] * best_left[0] > 0:
                    best_left = w
            elif best_right is None or w[0] * best_right[1] - w[1] * best_right[0] < 0:
                best_right = w
    return [tuple(Fraction(c) for c in w) for w in (best_left, best_right) if w is not None]


# ---------------------------------------------------------------------------
# reference formulas of the certificate layer and of the 3-D vertex solve,
# in Fractions and per-triple determinants


def _reference_cross3(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def reference_certificate_for(ds: DataSet, h, tau):
    """The pinning certificate of ``h`` at ``tau`` by Fraction dot products."""
    from halfmed.regions import IrrotatableCertificate

    tau = Fraction(tau)
    k = -((-(tau.numerator * ds.n)) // tau.denominator)
    cut = []
    boundary = []
    for i, p in enumerate(ds.points):
        s = sum(nc * pc for nc, pc in zip(h.normal, p)) - h.offset
        if s < 0:
            cut.append(i)
        elif s == 0:
            boundary.append(i)
    if len(cut) > k - 1:
        return None
    if ds.dim == 1:
        if boundary:
            return IrrotatableCertificate(
                h, tau, k, len(cut), tuple(boundary), (boundary[0],), 0
            )
        return None
    locs: dict = {}
    for i in boundary:
        locs.setdefault(ds.points[i], i)
    if ds.dim == 2:
        t = (-h.normal[1], h.normal[0])
        pivots = [(t, loc, (i,)) for loc, i in locs.items()]
    else:
        pivots = [
            (_reference_cross3(h.normal, tuple(b - a for a, b in zip(la, lb))), la, (ia, ib))
            for (la, ia), (lb, ib) in itertools.combinations(list(locs.items()), 2)
        ]
    for tangent, anchor, pivot in pivots:
        plus = minus = 0
        for i in boundary:
            s = sum(tc * (pc - ac) for tc, pc, ac in zip(tangent, ds.points[i], anchor))
            if s > 0:
                plus += 1
            elif s < 0:
                minus += 1
        swept = max(plus, minus)
        if len(cut) + swept > k - 1:
            return IrrotatableCertificate(
                h, tau, k, len(cut), tuple(boundary), pivot, swept
            )
    return None


def reference_candidate_planes_3d(ds: DataSet):
    """Planes through triples of sorted distinct points, u then -u, deduplicated
    by ``canonical_key``: the candidate order of the 3-D enumeration."""
    from halfmed.geometry import halfspace

    seen = set()
    for a, b, c in itertools.combinations(sorted(set(ds.points)), 3):
        u = _reference_cross3(
            tuple(bb - aa for aa, bb in zip(a, b)),
            tuple(cc - aa for aa, cc in zip(a, c)),
        )
        if all(x == 0 for x in u):
            continue
        for normal in (u, tuple(-x for x in u)):
            h = halfspace(normal, sum(nc * ac for nc, ac in zip(normal, a)))
            key = h.canonical_key()
            if key not in seen:
                seen.add(key)
                yield h


def reference_enumerate_irrotatable_2d(ds: DataSet, tau):
    """Every 2-D certificate at ``tau``: the lines through pairs of sorted
    distinct points, normal ``perp(b - a)`` then its negative, deduplicated
    by ``canonical_key``, one Fraction pass per candidate."""
    from halfmed.geometry import halfspace

    seen = set()
    out = []
    for a, b in itertools.combinations(sorted(set(ds.points)), 2):
        t = tuple(bb - aa for aa, bb in zip(a, b))
        for normal in ((-t[1], t[0]), (t[1], -t[0])):
            h = halfspace(normal, sum(nc * ac for nc, ac in zip(normal, a)))
            key = h.canonical_key()
            if key in seen:
                continue
            seen.add(key)
            cert = reference_certificate_for(ds, h, tau)
            if cert is not None:
                out.append(cert)
    return tuple(out)


def reference_enumerate_irrotatable_3d(ds: DataSet, tau):
    """Every 3-D certificate at ``tau``, one Fraction pass per candidate."""
    out = []
    for h in reference_candidate_planes_3d(ds):
        cert = reference_certificate_for(ds, h, tau)
        if cert is not None:
            out.append(cert)
    return tuple(out)


def _phase_one_feasible(rows, rhs) -> bool:
    """Whether ``rows . w = rhs`` has a solution ``w >= 0``: a phase-one
    simplex on Fractions under Bland's rule, so degenerate inputs terminate."""
    m = len(rows)
    n = len(rows[0])
    tableau = []
    for i in range(m):
        row = rows[i][:]
        b = rhs[i]
        if b < 0:
            row = [-a for a in row]
            b = -b
        row.extend(Fraction(1) if j == i else Fraction(0) for j in range(m))
        row.append(b)
        tableau.append(row)
    basis = [n + i for i in range(m)]
    # objective: minimize sum of artificials
    obj = [Fraction(0)] * (n + m + 1)
    for i in range(m):
        for j in range(n + m + 1):
            obj[j] += tableau[i][j]
    for j in range(n, n + m):
        obj[j] -= 1

    total = n + m
    while True:
        enter = next((j for j in range(total) if obj[j] > 0), None)
        if enter is None:
            break
        leave = None
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave is None:
            raise ArithmeticError("phase-one simplex unbounded: inconsistent tableau")
        piv = tableau[leave][enter]
        tableau[leave] = [a / piv for a in tableau[leave]]
        for i in range(m):
            if i != leave and tableau[i][enter] != 0:
                f = tableau[i][enter]
                tableau[i] = [a - f * b for a, b in zip(tableau[i], tableau[leave])]
        if obj[enter] != 0:
            f = obj[enter]
            obj = [a - f * b for a, b in zip(obj, tableau[leave])]
        basis[leave] = enter
    return obj[-1] == 0


def reference_convex_hull_contains(ds: DataSet, x) -> bool:
    """Whether ``x`` is a convex combination of the data points (any d):
    weights ``w >= 0`` with ``sum w = 1`` and ``sum w_i X_i = x``."""
    x = tuple(Fraction(c) for c in x)
    rows = [[p[j] for p in ds.points] for j in range(ds.dim)]
    rows.append([Fraction(1)] * ds.n)
    return _phase_one_feasible(rows, [*x, Fraction(1)])


def reference_feasible(rows):
    """Whether some x has ``normal . x >= offset`` for every ``(normal,
    offset)`` row: the phase-one simplex on ``x = x+ - x-`` with one surplus
    variable per row."""
    m = len(rows)
    lp = []
    for i, (normal, _) in enumerate(rows):
        row = [Fraction(c) for c in normal] + [-Fraction(c) for c in normal]
        row.extend(Fraction(-1) if j == i else Fraction(0) for j in range(m))
        lp.append(row)
    return _phase_one_feasible(lp, [Fraction(offset) for _, offset in rows])


def reference_affine_dim(hs, d):
    """Affine dimension of a nonempty intersection: d minus the rank of the
    normals of its implicit equalities.

    Constraint ``a . x >= b`` is not one exactly when some ``(x, t)`` with
    ``t >= 0`` has ``a_j . x >= b_j t`` for every j and ``a . x >= b t + 1``:
    for ``t > 0``, ``x / t`` lies strictly inside it; for ``t = 0``, ``x`` is a
    recession direction that leaves its boundary.
    """
    cone = [((*h.normal, -h.offset), 0) for h in hs]
    cone.append(((0,) * d + (1,), 0))
    eq = [h.normal for h in hs if not reference_feasible(cone + [((*h.normal, -h.offset), 1)])]
    return d - reference_matrix_rank(eq)


def _reference_unbounded_or_empty(hs, d):
    """The Polytope of a set known to be unbounded unless it is empty."""
    from halfmed.polytope import Polytope

    base = tuple(hs)
    if reference_feasible([(h.normal, h.offset) for h in hs]):
        return Polytope(base, (), d, reference_affine_dim(hs, d), empty=False, unbounded=True)
    return Polytope(base, (), d, None, empty=True, unbounded=False)


def reference_intersect_2d(hs):
    """The 2-D intersection with every vertex solved by a pair of boundary
    lines in Fractions and checked against every constraint."""
    from halfmed.geometry import affine_dimension, convex_hull_2d
    from halfmed.polytope import Polytope

    if reference_unbounded_direction_2d(hs):
        return _reference_unbounded_or_empty(hs, 2)
    base = tuple(hs)
    found = set()
    for g, h in itertools.combinations(hs, 2):
        (a0, a1), (b0, b1) = g.normal, h.normal
        det = a0 * b1 - a1 * b0
        if det == 0:
            continue
        v = ((g.offset * b1 - h.offset * a1) / det, (a0 * h.offset - b0 * g.offset) / det)
        if all(c.contains(v) for c in hs):
            found.add(v)
    if not found:
        return Polytope(base, (), 2, None, empty=True, unbounded=False)
    verts = convex_hull_2d(sorted(found))
    return Polytope(base, tuple(verts), 2, affine_dimension(verts), empty=False, unbounded=False)


def reference_unbounded_direction_3d(hs):
    """Whether the recession cone ``{w : n . w >= 0 for every normal n}`` is
    nonzero: the normals span less than space, or the cone holds an edge
    direction ``+-(ni x nj)``."""
    normals = [h.normal for h in hs]
    if reference_matrix_rank(normals) <= 2:
        return True
    for ni, nj in itertools.combinations(normals, 2):
        w = _reference_cross3(ni, nj)
        for cand in (w, tuple(-c for c in w)):
            if any(cand) and all(sum(a * b for a, b in zip(n, cand)) >= 0 for n in normals):
                return True
    return False


def reference_intersect_3d(hs):
    """The 3-D intersection with every vertex solved by three 3x3 Cramer
    determinants per triple of boundary planes."""
    from halfmed.geometry import affine_dimension
    from halfmed.polytope import Polytope, _order_planar_cycle

    base = tuple(hs)
    if reference_unbounded_direction_3d(hs):
        return _reference_unbounded_or_empty(hs, 3)
    ints = []
    for h in hs:
        den = 1
        for c in (*h.normal, h.offset):
            den = den * c.denominator // math.gcd(den, c.denominator)
        ints.append((tuple(int(c * den) for c in h.normal), int(h.offset * den)))

    def det3(rows):
        return (
            rows[0][0] * (rows[1][1] * rows[2][2] - rows[1][2] * rows[2][1])
            - rows[0][1] * (rows[1][0] * rows[2][2] - rows[1][2] * rows[2][0])
            + rows[0][2] * (rows[1][0] * rows[2][1] - rows[1][1] * rows[2][0])
        )

    found = set()
    for (ni, ci), (nj, cj), (nk, ck) in itertools.combinations(ints, 3):
        rows = (ni, nj, nk)
        det = det3(rows)
        if det == 0:
            continue
        cols = (ci, cj, ck)
        xs = [
            det3([[cols[r] if c == axis else rows[r][c] for c in range(3)] for r in range(3)])
            for axis in range(3)
        ]
        if all(
            (sum(a * x for a, x in zip(n, xs)) - c * det) * det >= 0 for n, c in ints
        ):
            found.add(tuple(Fraction(x, det) for x in xs))
    if not found:
        return Polytope(base, (), 3, None, empty=True, unbounded=False)
    verts = sorted(found)
    adim = affine_dimension(verts)
    if adim == 2:
        verts = _order_planar_cycle(verts)
    return Polytope(base, tuple(verts), 3, adim, empty=False, unbounded=False)


# ---------------------------------------------------------------------------
# reference half-turn window: one anchor at a time, one call per pointer step


def reference_window_in(anchor, w) -> bool:
    """Angle of w lies in the half-open half-circle [anchor, anchor + pi)."""
    cross = anchor[0] * w[1] - anchor[1] * w[0]
    if cross > 0:
        return True
    if cross < 0:
        return False
    return anchor[0] * w[0] + anchor[1] * w[1] > 0


def reference_max_window(groups, mult):
    """Largest multiplicity in a half-open angular window, with all anchors."""
    m = len(groups)
    if m == 1:
        return mult[0], [0]
    best = -1
    anchors = []
    r = 0
    cnt = 0
    for j in range(m):
        if r < j:
            r = j
            cnt = 0
        while r < j + m and reference_window_in(groups[j], groups[r % m]):
            cnt += mult[r % m]
            r += 1
        if cnt > best:
            best = cnt
            anchors = [j]
        elif cnt == best:
            anchors.append(j)
        cnt -= mult[j]
    return best, anchors


def reference_depth2_counts(c0, groups, mult):
    """``(count, anchors)`` of the 2-D sweep over angular groups."""
    n_nz = sum(mult)
    if not groups:
        return c0, []
    best, anchors = reference_max_window(groups, mult)
    return c0 + n_nz - best, anchors


# ---------------------------------------------------------------------------
# reference 3-D depth kernel: the O(n^3) edge sweep, n dot products per edge


def _reference_reduce3(v):
    g = math.gcd(math.gcd(abs(v[0]), abs(v[1])), abs(v[2]))
    return (v[0] // g, v[1] // g, v[2] // g)


def _reference_dot3(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def reference_depth3_int(c0, vecs):
    """``(count, witness)`` of the 3-D kernel as one full pass per edge.

    Every arrangement edge recounts the points below it with one dot product
    per point; the witness is rebuilt at every strict improvement.  The
    angular grouping and the rank are the package's own; the window sweep
    and the Fraction cell witness are the references in this module.
    """
    from halfmed.depth import _groups_python, _vec_rank3

    n_nz = len(vecs)
    if n_nz == 0:
        return c0, (1, 0, 0)
    rank, b1, normal = _vec_rank3(vecs)

    if rank == 1:
        pos = sum(1 for v in vecs if _reference_dot3(b1, v) > 0)
        neg = n_nz - pos
        return (c0 + min(neg, pos), b1 if neg <= pos else tuple(-c for c in b1))

    if rank == 2:
        bb2 = _reference_cross3(normal, b1)
        mapped = [(_reference_dot3(b1, v), _reference_dot3(bb2, v)) for v in vecs]
        groups, mult = _groups_python(mapped)
        count, anchors = reference_depth2_counts(c0, groups, mult)
        s, t = reference_cell_witness_2d(groups[anchors[0]], groups)
        u = tuple(s * a + t * b for a, b in zip(b1, bb2))
        return count, u

    reduced = {}
    for v in vecs:
        reduced.setdefault(_reference_reduce3(v), True)
    dirs = list(reduced)
    edges = set()
    for i in range(len(dirs)):
        for j in range(i + 1, len(dirs)):
            e = _reference_cross3(dirs[i], dirs[j])
            if e == (0, 0, 0):
                continue
            e = _reference_reduce3(e)
            if e not in edges:
                edges.add(e)
                edges.add(tuple(-c for c in e))

    best_count = None
    best_witness = None
    for e in edges:
        below = 0
        zidx = []
        for v in vecs:
            s = _reference_dot3(e, v)
            if s < 0:
                below += 1
            elif s == 0:
                zidx.append(v)
        if best_count is not None and c0 + below >= best_count:
            continue
        bb1 = zidx[0]
        bb2 = _reference_cross3(e, bb1)
        mapped = [(_reference_dot3(bb1, v), _reference_dot3(bb2, v)) for v in zidx]
        groups, mult = _groups_python(mapped)
        wbest, anchors = reference_max_window(groups, mult)
        count = c0 + below + (len(zidx) - wbest)
        if best_count is None or count < best_count:
            s, t = reference_cell_witness_2d(groups[anchors[0]], groups)
            w3 = tuple(s * a + t * b for a, b in zip(bb1, bb2))
            delta = None
            for v in vecs:
                se = _reference_dot3(e, v)
                if se == 0:
                    continue
                sw = _reference_dot3(w3, v)
                if sw != 0:
                    cand = Fraction(abs(se), abs(sw))
                    if delta is None or cand < delta:
                        delta = cand
            if delta is None:
                u = tuple(q_e + w for q_e, w in zip(e, w3))
            else:
                half = delta / 2
                u = tuple(half.denominator * ec + half.numerator * wc for ec, wc in zip(e, w3))
            best_count = count
            best_witness = u
    return best_count, best_witness


# ---------------------------------------------------------------------------
# reference planar cutting loop: every round re-intersects all constraints,
# and the Fraction polygon clip it replaced


def reference_region_by_cuts_2d(ds: DataSet, tau, k: int, seed_directions=()):
    """The 2-D cutting loop with one reference intersection per round."""
    from halfmed.depth import directional_quantile, witness_cut
    from halfmed.geometry import halfspace
    from halfmed.regions import _axis_quantile_box

    constraints = _axis_quantile_box(ds, tau)
    seen_keys = {h.canonical_key() for h in constraints}
    directions = []
    for u in seed_directions:
        h = halfspace(u, directional_quantile(ds, u, tau))
        if h.canonical_key() not in seen_keys:
            seen_keys.add(h.canonical_key())
            constraints.append(h)
            directions.append(u)
    certified = {}
    for _ in range(500):
        poly = reference_intersect_2d(reference_dedup_halfspaces(constraints))
        if poly.empty:
            return poly, directions
        added = False
        for v in poly.vertices:
            cnt = certified.get(v)
            u_wit = None
            if cnt is None:
                cnt, u_wit = witness_cut(v, ds)
                certified[v] = cnt
            if cnt >= k:
                continue
            if u_wit is None:
                _, u_wit = witness_cut(v, ds)
            contact = reference_contact_location(ds, u_wit, k)
            cuts = []
            for w in reference_bracketing_criticals_2d(ds, u_wit, contact):
                qw = directional_quantile(ds, w, tau)
                if sum(wc * vc for wc, vc in zip(w, v)) < qw:
                    cuts.append(halfspace(w, qw))
            if not cuts:
                cuts.append(halfspace(u_wit, directional_quantile(ds, u_wit, tau)))
            for h in cuts:
                key = h.canonical_key()
                if key not in seen_keys:
                    seen_keys.add(key)
                    constraints.append(h)
                    directions.append(h.normal)
                    added = True
        if not added:
            return poly, directions
    raise RuntimeError("cutting-plane region search failed to converge")


def _reference_side(h, p):
    return sum(nc * pc for nc, pc in zip(h.normal, p)) - h.offset


def reference_clip_polygon(vertices, h):
    """Sutherland-Hodgman in Fractions; a segment keeps its traversal order
    and a polygon of three or more vertices comes back as its hull."""
    from halfmed.geometry import convex_hull_2d

    pts = list(vertices)
    if not pts:
        return []
    if len(pts) == 1:
        return pts if _reference_side(h, pts[0]) >= 0 else []
    if len(pts) == 2:
        a, b = pts
        sa, sb = _reference_side(h, a), _reference_side(h, b)
        if sa >= 0 and sb >= 0:
            return [a, b]
        if sa < 0 and sb < 0:
            return []
        t = sa / (sa - sb)
        cut = tuple(pa + t * (pb - pa) for pa, pb in zip(a, b))
        keep = a if sa >= 0 else b
        if cut == keep:
            return [cut]
        return [keep, cut] if sa >= 0 else [cut, keep]
    out = []
    side = [_reference_side(h, p) for p in pts]
    n = len(pts)
    for i in range(n):
        a, sa = pts[i], side[i]
        b, sb = pts[(i + 1) % n], side[(i + 1) % n]
        if sa >= 0:
            out.append(a)
        if (sa > 0 > sb) or (sb > 0 > sa):
            t = sa / (sa - sb)
            out.append(tuple(pa + t * (pb - pa) for pa, pb in zip(a, b)))
    uniq = []
    for p in out:
        if not uniq or p != uniq[-1]:
            uniq.append(p)
    if len(uniq) > 1 and uniq[0] == uniq[-1]:
        uniq.pop()
    if len(uniq) <= 2:
        return uniq
    return convex_hull_2d(uniq)


def reference_unbounded_direction_2d(hs):
    """Whether the normals leave an angular gap of at least pi (Fractions)."""
    import functools

    from halfmed.geometry import angular_cmp, canonical_direction

    reps = {canonical_direction(h.normal) for h in hs}
    reps = sorted(reps, key=functools.cmp_to_key(angular_cmp))
    if len(reps) == 1:
        return True
    for a, b in zip(reps, reps[1:] + reps[:1]):
        c = a[0] * b[1] - a[1] * b[0]
        if c < 0 or (c == 0 and a[0] * b[0] + a[1] * b[1] < 0):
            return True
    return False


# ---------------------------------------------------------------------------
# reference 3-D cutting loop: a depth query at every vertex and one full
# reference intersection per round; and the Fraction volume centroid


def reference_region_3d_lazy_certificates(ds: DataSet, tau, k: int, counts=None):
    """The 3-D certificate cutting loop as first written: every vertex of
    every round gets a depth count, and the family is scanned in Fractions."""
    from halfmed import regions

    counts = {} if counts is None else counts
    family = [c.halfspace for c in regions.enumerate_irrotatable(ds, tau)]
    constraints = regions._axis_quantile_box(ds, tau)
    for _ in range(500):
        poly = reference_intersect_3d(reference_dedup_halfspaces(constraints))
        if poly.empty:
            return poly
        if poly.unbounded:
            raise RuntimeError("quantile box must bound the region search")
        new_cuts = []
        for v in poly.vertices:
            if regions._vertex_count(ds, v, counts) >= k:
                continue
            if any(not h.contains(v) for h in new_cuts):
                continue
            for h in family:
                if not h.contains(v):
                    constraints.append(h)
                    new_cuts.append(h)
                    family.remove(h)
                    break
            else:
                return regions._empty_region(3)
        if not new_cuts:
            return poly
    raise RuntimeError("certificate cutting loop failed to converge")


def reference_polyhedron_centroid(verts, halfspaces):
    """Volume centroid by Fraction pyramids from the vertex average."""
    from halfmed.geometry import cross3, dot, vsub
    from halfmed.polytope import _order_planar_cycle

    vset = set(verts)
    g = tuple(sum(col, Fraction(0)) / len(verts) for col in zip(*verts))
    total = Fraction(0)
    acc = [Fraction(0)] * 3
    for h in halfspaces:
        face = [v for v in vset if dot(h.normal, v) == h.offset]
        if len(face) < 3:
            continue
        cycle = _order_planar_cycle(sorted(face))
        if len(cycle) < 3:
            continue
        fc = tuple(sum(col, Fraction(0)) / len(cycle) for col in zip(*cycle))
        nrm = cross3(vsub(cycle[1], cycle[0]), vsub(cycle[2], cycle[0]))
        if dot(nrm, vsub(fc, g)) < 0:
            cycle = list(reversed(cycle))
        a = cycle[0]
        for b, c in zip(cycle[1:], cycle[2:]):
            ea, eb, ec = vsub(a, g), vsub(b, g), vsub(c, g)
            vol6 = dot(ea, cross3(eb, ec))
            total += vol6
            for i in range(3):
                acc[i] += vol6 * (g[i] + a[i] + b[i] + c[i])
    if total == 0:
        return g
    return tuple(a / (4 * total) for a in acc)


# ---------------------------------------------------------------------------
# reference witness tilts (one Fraction per candidate ratio) and the rank by
# Gaussian elimination in Fractions


def reference_cell_witness_2d(anchor, groups):
    ax, ay = anchor
    u0 = (-ay, ax)
    eps = None
    for g in groups:
        du = u0[0] * g[0] + u0[1] * g[1]
        da = ax * g[0] + ay * g[1]
        if du != 0 and da != 0:
            cand = Fraction(abs(du), abs(da))
            if eps is None or cand < eps:
                eps = cand
    if eps is None:
        return (u0[0] + ax, u0[1] + ay)
    half = eps / 2
    return (half.denominator * u0[0] + half.numerator * ax,
            half.denominator * u0[1] + half.numerator * ay)


def reference_edge_witness(vecs, e, bb1, bb2, groups, anchors):
    s, t = reference_cell_witness_2d(groups[anchors[0]], groups)
    w3 = tuple(s * a + t * b for a, b in zip(bb1, bb2))
    delta = None
    for v in vecs:
        se = _reference_dot3(e, v)
        if se == 0:
            continue
        sw = _reference_dot3(w3, v)
        if sw != 0:
            cand = Fraction(abs(se), abs(sw))
            if delta is None or cand < delta:
                delta = cand
    if delta is None:
        return tuple(q_e + w for q_e, w in zip(e, w3))
    half = delta / 2
    return tuple(half.denominator * ec + half.numerator * wc for ec, wc in zip(e, w3))


def reference_matrix_rank(rows) -> int:
    rows = [[Fraction(c) for c in r] for r in rows if any(c != 0 for c in r)]
    if not rows:
        return 0
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pr = rows[rank]
        for i in range(rank + 1, len(rows)):
            f = rows[i][col] / pr[col]
            rows[i] = [a - f * b for a, b in zip(rows[i], pr)]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# reference 1-D and 2-D depth on the dataset's common scale: every Xi - x on
# one integer scale, the gcd of each vector, the exact comparator sort alone,
# and the closed-halfspace recount on the common-scale rows


def _reference_angle_cmp(a, b) -> int:
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return ha - hb
    c = a[0] * b[1] - a[1] * b[0]
    return -1 if c > 0 else (1 if c < 0 else 0)


def reference_groups(vecs):
    """Primitive directions of nonzero 2-vectors in angular order, with counts."""
    acc = {}
    for a, b in vecs:
        g = math.gcd(abs(a), abs(b))
        key = (a // g, b // g)
        acc[key] = acc.get(key, 0) + 1
    keys = sorted(acc, key=functools.cmp_to_key(_reference_angle_cmp))
    return keys, [acc[k] for k in keys]


def reference_planar_groups(ds: DataSet, x):
    """``(zero count, groups, multiplicities)`` of a planar query."""
    zeros, vecs = _diff_vectors(x, ds)
    return (zeros, *reference_groups(vecs))


def reference_recount(ds: DataSet, x, u):
    """``(#{u . Xi <= u . x}, #{u . Xi == u . x})`` on the common scale."""
    zeros, vecs = _diff_vectors(x, ds)
    den = math.lcm(*(Fraction(c).denominator for c in u))
    ui = [int(Fraction(c) * den) for c in u]
    dots = [sum(a * b for a, b in zip(ui, v)) for v in vecs]
    return zeros + sum(1 for s in dots if s <= 0), zeros + sum(1 for s in dots if s == 0)


def reference_low_dim_depth(ds: DataSet, x):
    """``(count, boundary count, raw witness, canonical cone witnesses)`` for d = 1 or 2.

    The raw witness is the integer direction of the first minimizing cell;
    the cone witnesses are one canonical direction per minimizing cell.
    """
    if ds.dim == 1:
        zeros, vecs = _diff_vectors(x, ds)
        neg = sum(1 for (v,) in vecs if v < 0)
        pos = len(vecs) - neg
        witness = (1,) if neg <= pos else (-1,)
        cones = [w for w, ok in (((1,), neg <= pos), ((-1,), pos <= neg)) if ok]
        return zeros + min(neg, pos), zeros, witness, cones
    zeros, groups, mult = reference_planar_groups(ds, x)
    if not groups:
        return zeros, zeros, (1, 0), [(1, 0)]
    best, anchors = reference_max_window(groups, mult)
    cones = []
    for j in anchors:
        u = reference_cell_witness_2d(groups[j], groups)
        s = abs(next(c for c in u if c != 0))
        cu = tuple(Fraction(c, s) for c in u)
        if cu not in cones:
            cones.append(cu)
    witness = reference_cell_witness_2d(groups[anchors[0]], groups)
    return zeros + sum(mult) - best, zeros, witness, cones


def reference_dedup_halfspaces(halfspaces):
    """Tightest offset per ``canonical_key`` direction, in first-seen order."""
    best = {}
    order = []
    for h in halfspaces:
        key, off = h.canonical_key()
        if key not in best:
            best[key] = (off, h)
            order.append(key)
        elif off > best[key][0]:
            best[key] = (off, h)
    return [best[k][1] for k in order]


# ---------------------------------------------------------------------------
# reference integer forms: the denominators of one rational vector cleared


def reference_int_point(x):
    """``(q, a)`` with ``x = a / q``, ``q`` the lcm of the denominators."""
    q = math.lcm(*(c.denominator for c in x))
    return q, tuple(c.numerator * (q // c.denominator) for c in x)


def reference_int_halfspace(normal, offset):
    """``normal . x >= offset`` on integers: the Fraction halfspace times the
    lcm of the denominators of its normal and offset."""
    scale = math.lcm(*(c.denominator for c in (*normal, offset)))
    return (tuple(c.numerator * (scale // c.denominator) for c in normal),
            offset.numerator * (scale // offset.denominator))


# ---------------------------------------------------------------------------
# reference hull cap of a contamination plan: bisect every level 1 ... n+m


def reference_sup_depth_on_hull(clean: DataSet, contaminated: DataSet) -> Fraction:
    """Exact sup of the contaminated depth over the clean convex hull.

    Bisects all levels 1 ... n+m, building each with ``depth_region`` and
    meeting it with the clean hull; it never reads the contaminated median.
    """
    from halfmed.geometry import hull_halfspaces
    from halfmed.polytope import intersect_halfspaces
    from halfmed.regions import depth_region

    hull_hs = list(hull_halfspaces(clean))
    total = contaminated.n

    def feasible(k: int) -> bool:
        region = depth_region(contaminated, Fraction(k, total)).polytope
        if region.empty:
            return False
        meet = intersect_halfspaces(list(region.halfspaces) + hull_hs, dim=clean.dim)
        return not meet.empty

    lo, hi = 1, total  # depth 1/total is attained at every clean point
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if feasible(mid):
            lo = mid
        else:
            hi = mid - 1
    return Fraction(lo, total)


# ---------------------------------------------------------------------------
# reference median level search


def reference_bisect_levels(ds: DataSet, deadline=None, counts=None):
    """The median level search as first written: it builds the floor that
    the coordinatewise median certifies, and builds the floor again after
    every deepest-vertex jump before it bisects further."""
    from halfmed import regions

    counts = {} if counts is None else counts
    n = ds.n
    seeds = []

    def build(k):
        nonlocal seeds
        if ds.dim == 2:
            poly, seeds = regions._region_by_cuts_2d(ds, Fraction(k, n), k, deadline, seeds)
            return poly
        return regions.depth_region(ds, Fraction(k, n), deadline=deadline).polytope

    k_lo = max(regions.depth_count(regions._coordinatewise_median(ds), ds), 1)
    k_hi = n + 1
    best_poly = best_k = None
    while k_lo + 1 < k_hi or best_k != k_lo:
        k_try = (k_lo + k_hi) // 2 if best_k == k_lo else k_lo
        poly = build(k_try)
        if poly.empty:
            if k_try == k_lo:
                raise RuntimeError("level certified feasible came back empty")
            k_hi = k_try
        else:
            k_lo = best_k = k_try
            best_poly = poly
            deepest = max(counts.get(v, 0) for v in poly.vertices)
            if deepest > k_lo:
                k_lo = deepest
                best_k = None
    return best_poly, best_k


# ---------------------------------------------------------------------------
# flat sets in space: random lifts and their extreme points


def random_flat_dataset_3d(rng: random.Random, adim: int, max_n: int = 9) -> DataSet:
    """A 3-D set of affine dimension ``adim`` (1 or 2): a ``random_dataset``
    of that dimension, duplicates and collinear points included, mapped
    into space by an integer affine map that keeps its dimension."""
    from halfmed.geometry import dataset

    def rank_of(pts):
        return reference_matrix_rank([[a - b for a, b in zip(p, pts[0])] for p in pts[1:]])

    while True:
        low = random_dataset(rng, adim, max_n=max_n, denom=2, span=3)
        cols = [[rng.randint(-3, 3) for _ in range(3)] for _ in range(adim)]
        shift = [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
        pts = [
            tuple(s + sum(y * c[j] for y, c in zip(p, cols)) for j, s in enumerate(shift))
            for p in low.points
        ]
        if rank_of(low.points) == rank_of(pts) == adim:
            return dataset(pts)


def reference_extreme_points_3d(points) -> list:
    """The distinct points of a set in space of affine dimension at most 2
    that lie in no segment or triangle of the others.  By Caratheodory a
    point of such a set's hull lies in the hull of three of its points."""
    locs = sorted(set(points))

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    def in_segment(p, a, b):
        e, f = sub(b, a), sub(p, a)
        return _reference_cross3(e, f) == (0, 0, 0) and 0 <= dot(e, f) <= dot(e, e)

    def in_triangle(p, a, b, c):
        nrm = _reference_cross3(sub(b, a), sub(c, a))
        if nrm == (0, 0, 0) or dot(nrm, sub(p, a)) != 0:
            return False
        return all(
            dot(nrm, _reference_cross3(sub(v, u), sub(p, u))) >= 0
            for u, v in ((a, b), (b, c), (c, a))
        )

    out = []
    for p in locs:
        others = [q for q in locs if q != p]
        if not any(in_segment(p, a, b) for a, b in itertools.combinations(others, 2)) and not any(
            in_triangle(p, a, b, c) for a, b, c in itertools.combinations(others, 3)
        ):
            out.append(p)
    return out


# ---------------------------------------------------------------------------
# the hand-written span scans, and the Gram frame of flat sets in space


def reference_frame_basis(points) -> tuple:
    """The first nonzero difference from ``points[0]``, then the first one
    off its line, as ``reduce_dataset`` once scanned for them."""
    base = points[0]
    basis = []
    for p in points[1:]:
        v = tuple(a - b for a, b in zip(p, base))
        if not basis:
            if any(c != 0 for c in v):
                basis.append(v)
        elif any(c != 0 for c in _cross(basis[0], v)):
            basis.append(v)
            break
    return tuple(basis)


def reference_vec_rank3(vecs):
    """``depth._vec_rank3`` with its own scan: ``(rank, b1, normal)``."""
    b1 = vecs[0]
    for v in vecs[1:]:
        normal = _cross(b1, v)
        if normal != (0, 0, 0):
            rank = 3 if any(sum(a * b for a, b in zip(normal, w)) for w in vecs) else 2
            return rank, b1, normal
    return 1, b1, None


def reference_order_planar_cycle(verts):
    """``polytope._order_planar_cycle`` with its own scan."""
    from halfmed.geometry import convex_hull_2d

    def sub(a, b):
        return tuple(x - y for x, y in zip(a, b))

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    base = verts[0]
    b1 = None
    normal = None
    for v in verts[1:]:
        e = sub(v, base)
        if b1 is None:
            if any(c != 0 for c in e):
                b1 = e
            continue
        c = _cross(b1, e)
        if any(x != 0 for x in c):
            normal = c
            break
    if b1 is None or normal is None:
        return verts
    b2 = _cross(normal, b1)
    coords = {v: (dot(b1, sub(v, base)), dot(b2, sub(v, base))) for v in verts}
    hull2 = convex_hull_2d(list(coords.values()))
    back = {coords[v]: v for v in verts}
    return [back[c] for c in hull2]


class ReferenceGramFrame(AffineFrame):
    """An ``AffineFrame`` whose coordinates solve the Gram system
    ``(B^T B) y = B^T (x - base)`` and whose lifted halfspace normal is
    ``B (B^T B)^-1 a``."""

    def _gram_solve(self, rhs):
        dot = _reference_dot
        if len(self.basis) == 1:
            (b,) = self.basis
            return (rhs[0] / dot(b, b),)
        b1, b2 = self.basis
        g11, g12, g22 = dot(b1, b1), dot(b1, b2), dot(b2, b2)
        det = g11 * g22 - g12 * g12
        return ((g22 * rhs[0] - g12 * rhs[1]) / det, (g11 * rhs[1] - g12 * rhs[0]) / det)

    def coords(self, x):
        diff = tuple(a - b for a, b in zip(x, self.base))
        return self._gram_solve([_reference_dot(b, diff) for b in self.basis])

    def point(self, y):
        return tuple(c + sum(yc * b[j] for yc, b in zip(y, self.basis))
                     for j, c in enumerate(self.base))

    def halfspace(self, h):
        from halfmed.geometry import halfspace

        y = self._gram_solve(h.normal)
        w = tuple(sum(yc * b[j] for yc, b in zip(y, self.basis)) for j in range(3))
        return halfspace(w, h.offset + _reference_dot(w, self.base))


def reference_reduce_dataset(ds: DataSet):
    """``reduce_dataset`` by the scanned basis and the Gram frame."""
    frame = ReferenceGramFrame(ds.points[0], reference_frame_basis(ds.points))
    return frame, DataSet(tuple(frame.coords(p) for p in ds.points))


def reference_polygon_centroid(cycle) -> tuple:
    """Area centroid of a convex polygon in the plane by the shoelace sums."""
    a2 = cx = cy = Fraction(0)
    for (x0, y0), (x1, y1) in zip(cycle, list(cycle[1:]) + [cycle[0]]):
        w = x0 * y1 - x1 * y0
        a2 += w
        cx += (x0 + x1) * w
        cy += (y0 + y1) * w
    return (cx / (3 * a2), cy / (3 * a2))


# ---------------------------------------------------------------------------
# reference breakdown search: Gram-Schmidt frames, Fraction projections and
# the three search loops (probes, planar sweep, 3-D net) with their stops


def _reference_primitive(v):
    """A rational vector as coprime integers, sign kept, held in Fractions."""
    _, ints = reference_int_point(tuple(Fraction(c) for c in v))
    g = math.gcd(*ints)
    return tuple(Fraction(c // g) for c in ints)


def _reference_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def reference_projection_frame(u, d):
    """Gram-Schmidt of ``e_0, e_1, ...`` against ``u``, each vector made primitive."""
    from halfmed.breakdown import ProjectionFrame

    uvec = tuple(Fraction(c) for c in u)
    basis = []
    uu = _reference_dot(uvec, uvec)
    for j in range(d):
        e = tuple(Fraction(int(i == j)) for i in range(d))
        f = tuple(ec - _reference_dot(uvec, e) / uu * uc for ec, uc in zip(e, uvec))
        for b in basis:
            f = tuple(fc - _reference_dot(b, f) / _reference_dot(b, b) * bc for fc, bc in zip(f, b))
        if any(c != 0 for c in f):
            basis.append(_reference_primitive(f))
        if len(basis) == d - 1:
            break
    return ProjectionFrame(uvec, tuple(basis))


def reference_projections(ds: DataSet, frame):
    """One column of Fraction dot products ``b . X_i`` per basis vector."""
    return [[_reference_dot(b, p) for p in ds.points] for b in frame.basis]


def reference_max_depth_1d(values):
    """Largest 1-D depth by a scan of the groups of equal sorted values:
    ``min(#{v <= x}, #{v >= x})`` at each, as (value, count)."""
    vals = sorted(values)
    n = len(vals)
    best = 0
    i = 0
    while i < n:
        j = i
        while j < n and vals[j] == vals[i]:
            j += 1
        best = max(best, min(j, n - i))
        i = j
    return Fraction(best, n), best


def reference_median_interval_1d(values):
    """(first, last, depth) of the groups attaining the maximal 1-D depth."""
    vals = sorted(values)
    n = len(vals)
    _, best = reference_max_depth_1d(vals)
    lo = hi = None
    i = 0
    while i < n:
        j = i
        while j < n and vals[j] == vals[i]:
            j += 1
        if min(j, n - i) == best:
            if lo is None:
                lo = vals[i]
            hi = vals[i]
        i = j
    return lo, hi, Fraction(best, n)


def reference_projected_lambda(ds: DataSet, u) -> Fraction:
    from halfmed.geometry import dataset
    from halfmed.regions import median_region

    cols = reference_projections(ds, reference_projection_frame(u, ds.dim))
    if ds.dim == 2:
        return reference_max_depth_1d(cols[0])[0]
    return median_region(dataset(zip(*cols))).lambda_star


def reference_tie_and_arc_directions(ds: DataSet):
    """Fraction tie directions (both signs of each point difference) by
    angle in (-pi, pi], then the sum of each neighbouring pair.  The order
    is the exact comparator sort from the positive x-axis, rotated to start
    at the first direction below it."""
    seen, ties = set(), []
    for a, b in itertools.combinations(sorted(set(ds.points)), 2):
        v = _reference_primitive(tuple(y - x for x, y in zip(a, b)))
        for w in (v, tuple(-c for c in v)):
            if w not in seen:
                seen.add(w)
                ties.append(w)
    ties.sort(key=functools.cmp_to_key(_reference_angle_cmp))
    i = next(i for i, v in enumerate(ties) if v[1] < 0)
    ties = ties[i:] + ties[:i]
    out = list(ties)
    for a, b in zip(ties, ties[1:] + ties[:1]):
        mid = tuple(x + y for x, y in zip(a, b))
        if any(c != 0 for c in mid):
            out.append(mid)
    return out


def reference_upper_bound(ds: DataSet, cfg=None, lambda_star=None):
    """The probe loop, then the full planar sweep, or the 3-D net with its
    floor stop, all on Fraction directions.  ``lambda_star`` does not stop
    the search; a minimum equal to it only marks the result exact."""
    from halfmed.breakdown import DirectionSearchConfig, UpperBoundResult

    cfg = cfg or DirectionSearchConfig()
    d, n = ds.dim, ds.n
    floor = Fraction(-(-n // d), n)
    rng = random.Random(cfg.seed)
    probes = [tuple(Fraction(int(i == j)) for i in range(d)) for j in range(d)]
    for _ in range(cfg.probes):
        v = tuple(Fraction(rng.randint(-999, 999)) for _ in range(d))
        if any(c != 0 for c in v):
            probes.append(v)
    best = best_u = None
    for u in probes:
        lam = reference_projected_lambda(ds, u)
        if best is None or lam < best:
            best, best_u = lam, u
        if lam == floor:
            return UpperBoundResult(lam / (1 + lam), u, lam, True)
    if d == 2 and cfg.exhaustive:
        for u in reference_tie_and_arc_directions(ds):
            lam = reference_projected_lambda(ds, u)
            if lam < best:
                best, best_u = lam, u
        return UpperBoundResult(best / (1 + best), best_u, best, True)
    if d == 3:
        uniq = sorted(set(ds.points))
        diffs = [_reference_primitive(tuple(y - x for x, y in zip(a, b)))
                 for a, b in itertools.combinations(uniq, 2)]
        seen = set()
        for v, w in itertools.combinations(diffs, 2):
            c = _cross(v, w)
            if all(x == 0 for x in c):
                continue
            u = _reference_primitive(c)
            if u in seen:
                continue
            seen.add(u)
            lam = reference_projected_lambda(ds, u)
            if lam < best:
                best, best_u = lam, u
            if lam == floor:
                return UpperBoundResult(lam / (1 + lam), u, lam, True)
    return UpperBoundResult(best / (1 + best), best_u, best, best in (floor, lambda_star))


# ---------------------------------------------------------------------------
# the certificate region route, and the 3-D hull by full splits


def reference_region_certificates(ds: DataSet, tau):
    """``(region, certificates)`` at level ``tau``: the intersection of
    every irrotatable halfspace, the reference for ``depth_region``."""
    from halfmed.depth import depth_count, quantile_index
    from halfmed.geometry import as_fraction
    from halfmed.polytope import intersect_halfspaces, vertex_centroid
    from halfmed.regions import _empty_region, enumerate_irrotatable

    tau = as_fraction(tau)
    k = quantile_index(ds.n, tau)
    certs = enumerate_irrotatable(ds, tau)
    if not certs:
        # a nonempty level is the bounded intersection of its certificates,
        # so a level without one lies above the maximal depth
        return _empty_region(ds.dim), certs
    poly = intersect_halfspaces([c.halfspace for c in certs], dim=ds.dim)
    # outside the guaranteed range (tau above the maximal depth) the
    # intersection can overshoot; an exact depth check settles it
    if not poly.empty and (poly.unbounded or depth_count(vertex_centroid(poly), ds) < k):
        poly = _empty_region(ds.dim)
    return poly, certs


def reference_hull_halfspaces_3d(ds: DataSet):
    """The facets of a full-dimensional 3-D set, each candidate plane
    classified by a full ``_split`` of the rows."""
    from halfmed.geometry import Halfspace, _candidate_planes, _split

    scale, rows = ds.scaled_ints()
    facets = {}
    for _, _, p, off in _candidate_planes(rows):
        cut, boundary = _split(rows, p, off)
        if cut:
            if cut + len(boundary) < len(rows):
                continue
            p, off = tuple(-c for c in p), -off
        if p not in facets:
            facets[p] = Halfspace.of_row(tuple(scale * c for c in p), off, scale)
    return list(facets.values())
