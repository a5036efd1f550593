"""Exact rational geometry primitives.

Everything downstream (depth, regions, breakdown analysis) reduces to sign
tests of inner products, so all geometric state is kept in exact rational
arithmetic (`fractions.Fraction`).  Points and directions are plain tuples of
Fractions; halfspaces are closed sets ``{x : normal . x >= offset}``, each
stored as its reduced integer row.

Datasets may be degenerate on purpose: duplicated points, collinear triples,
or clouds whose affine hull is a proper subspace.  Nothing in this module
assumes general position.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re
from dataclasses import dataclass, field
from decimal import Decimal
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

Scalar = Fraction
Vec = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^[+-]?\d+/\d+$")


def as_fraction(value: object) -> Fraction:
    """Convert ints, rational strings ('3/4'), decimal strings and Fractions.

    Floats are converted via their exact binary expansion; use :func:`snap`
    when a controlled precision is wanted instead.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return Fraction(value)
    if isinstance(value, str):
        token = value.strip()
        try:
            if _RATIONAL_RE.match(token):
                num, den = token.split("/")
                return Fraction(int(Decimal(num)), int(Decimal(den)))
            # Decimal handles plain and scientific notation exactly.
            return Fraction(Decimal(token))
        except (ZeroDivisionError, ArithmeticError) as exc:
            raise ValueError(f"not a valid rational token: {value!r}") from exc
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def snap(value: float, bits: int = 53) -> Fraction:
    """Round a float to ``bits`` fractional binary digits, exactly."""
    scale = 1 << bits
    return Fraction(round(value * scale), scale)


def point(*coords: object) -> Vec:
    """Exact point from varargs or a single iterable: point(1, 2) == point((1, 2))."""
    if len(coords) == 1 and not isinstance(coords[0], (int, float, str, Fraction, Decimal)):
        coords = tuple(coords[0])
    return tuple(as_fraction(c) for c in coords)


def format_rational(x: Fraction) -> str:
    # Decimal converts ints of any length, where str stops at the
    # interpreter's int-to-str digit limit (4300 digits by default)
    num = str(Decimal(x.numerator))
    return num if x.denominator == 1 else f"{num}/{Decimal(x.denominator)}"


# ---------------------------------------------------------------------------
# small vector helpers


def dot(u: Sequence[Fraction], v: Sequence[Fraction]) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vsub(a: Sequence[Fraction], b: Sequence[Fraction]) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def is_zero_vec(a: Sequence[Fraction]) -> bool:
    return all(x == 0 for x in a)


def perp2(u: Sequence[Fraction]) -> Vec:
    """Counter-clockwise quarter turn of a planar vector."""
    return (-u[1], u[0])


def cross2(u: Sequence, v: Sequence):
    return u[0] * v[1] - u[1] * v[0]


def dot3(u: Sequence, v: Sequence):
    """Dot product of 3-vectors; integer inputs give integers."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def cross3(u: Sequence, v: Sequence) -> tuple:
    """Cross product; integer inputs give integers, Fractions give Fractions."""
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def span_pair(vecs: Iterable[Sequence]) -> tuple[tuple | None, tuple | None]:
    """The first nonzero 3-vector of ``vecs`` (ints or Fractions) and the
    first later one off its line, each None where there is none.  The scan
    stops at the second, so a lazy sequence is read no further."""
    it = iter(vecs)
    b1 = next((v for v in it if any(v)), None)
    if b1 is None:
        return None, None
    return b1, next((v for v in it if any(cross3(b1, v))), None)


def int_point(x: Sequence[Fraction]) -> tuple[int, tuple[int, ...]]:
    """``(q, a)`` with ``x = a / q``, ``q`` the least common multiple of its denominators.

    This is the one place where denominators are cleared.  A coordinate
    already on ``q`` shares its Fraction's numerator, so a long-lived view
    such as ``DataSet.row_ints`` copies no integer it need not.
    """
    dens = [c.denominator for c in x]
    q = math.lcm(*dens)
    return q, tuple([c.numerator if d == q else c.numerator * (q // d) for c, d in zip(x, dens)])


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Integer vector divided by the gcd of its entries (the zero vector stays)."""
    g = math.gcd(*v)
    if g > 1:
        return tuple([c // g for c in v])
    return tuple(v)


def canonical_direction(u: Sequence[Fraction]) -> Vec:
    """Scale a nonzero direction by the reciprocal of |first nonzero entry|.

    Two directions are equivalent iff one is a positive multiple of the other;
    the canonical form makes that an equality test (and a dict key).
    """
    for c in u:
        if c != 0:
            s = abs(c)
            return tuple(x / s for x in u)
    raise ValueError("zero vector has no direction")


def angular_cmp(a: Sequence, b: Sequence) -> int:
    """Exact comparison of two nonzero planar vectors by angle in [0, 2pi).

    Works for integer and Fraction coordinates alike; only signs of products
    are inspected.
    """
    ha = 0 if (a[1] > 0 or (a[1] == 0 and a[0] > 0)) else 1
    hb = 0 if (b[1] > 0 or (b[1] == 0 and b[0] > 0)) else 1
    if ha != hb:
        return -1 if ha < hb else 1
    c = a[0] * b[1] - a[1] * b[0]
    if c > 0:
        return -1
    if c < 0:
        return 1
    return 0


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Exact rank of a matrix of ints or Fractions (fraction-free elimination).

    Each row is scaled to integers, which keeps the rank; Bareiss elimination
    then divides every updated entry exactly by the previous pivot.
    """
    ints = [int_point(r)[1] for r in rows if any(c != 0 for c in r)]
    if not ints:
        return 0
    cols = len(ints[0])
    rank = 0
    prev = 1
    for col in range(cols):
        pivot = next((i for i in range(rank, len(ints)) if ints[i][col] != 0), None)
        if pivot is None:
            continue
        ints[rank], ints[pivot] = ints[pivot], ints[rank]
        pr = ints[rank]
        p = pr[col]
        for i in range(rank + 1, len(ints)):
            r = ints[i]
            f = r[col]
            ints[i] = [(p * a - f * b) // prev for a, b in zip(r, pr)]
        prev = p
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# halfspaces


class Side(Enum):
    INTERIOR = "interior"
    BOUNDARY = "boundary"
    EXTERIOR = "exterior"


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace ``{x : normal . x >= offset}`` stored as its reduced
    integer row: ``normal = a / den`` and ``offset = b / den`` for
    ``ints = (a, b)``, with ``den > 0`` and ``gcd(a, b, den) = 1``.

    The reduced row is unique, so equality and hash compare the rational
    halfspace.  It is the row times the least common multiple of the
    denominators.  Build one with :func:`halfspace` from rationals or
    :meth:`of_row` from integers.
    """

    ints: tuple[tuple[int, ...], int]
    den: int

    def __post_init__(self) -> None:
        if not any(self.ints[0]):
            raise ValueError("halfspace normal must be nonzero")

    @classmethod
    def of_row(cls, a: Sequence[int], b: int, den: int) -> "Halfspace":
        """The halfspace ``a . x >= b`` over ``den > 0``, divided by its gcd."""
        g = math.gcd(*a, b, den)
        return cls((tuple([c // g for c in a]), b // g), den // g)

    @property
    def normal(self) -> Vec:
        return tuple([Fraction(c, self.den) for c in self.ints[0]])

    @property
    def offset(self) -> Fraction:
        return Fraction(self.ints[1], self.den)

    @property
    def dim(self) -> int:
        return len(self.ints[0])

    def contains(self, x: Sequence[Fraction]) -> bool:
        a, b = self.ints
        return dot(a, x) >= b

    def canonical(self) -> "Halfspace":
        """Equivalent halfspace with the normal in canonical direction form."""
        a, b = self.ints
        return Halfspace.of_row(a, b, abs(next(c for c in a if c)))

    def canonical_key(self) -> tuple[Vec, Fraction]:
        c = self.canonical()
        return c.normal, c.offset


def halfspace(normal: Iterable[object], offset: object) -> Halfspace:
    """``normal . x >= offset`` from rationals; cleared by the lcm of the
    denominators, the row is already reduced."""
    den, row = int_point([*map(as_fraction, normal), as_fraction(offset)])
    return Halfspace((row[:-1], row[-1]), den)


def side_of(h: Halfspace, x: Sequence[Fraction]) -> Side:
    """Exact side classification of a point against a halfspace boundary."""
    a, b = h.ints
    s = dot(a, x)
    if s > b:
        return Side.INTERIOR
    if s == b:
        return Side.BOUNDARY
    return Side.EXTERIOR


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class DataSet:
    """Finite multiset of rational points; duplicates carry multiplicity."""

    points: tuple[Vec, ...]
    metadata: dict = field(default_factory=dict, compare=False, repr=False)
    _cache: dict = field(default_factory=dict, compare=False, repr=False, init=False)

    def __post_init__(self) -> None:
        if not self.points:
            raise ValueError("dataset must contain at least one point")
        d = len(self.points[0])
        if d == 0 or any(len(p) != d for p in self.points):
            raise ValueError("all points must share one positive dimension")

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return len(self.points[0])

    def row_ints(self) -> tuple[list[int], list[tuple[int, ...]]]:
        """Per-row integer coordinates ``(dens, nums)`` with ``X_i = nums[i] / dens[i]``.

        Cached.  ``dens[i]`` is the least common multiple of row i's own
        denominators, so one row with a long denominator does not lengthen
        the others.  Kernels that read only the signs of ``Xi - x`` (1-D and
        2-D depth, the witness recount) use this view.
        """
        cached = self._cache.get("rows")
        if cached is None:
            pairs = [int_point(p) for p in self.points]
            cached = ([den for den, _ in pairs], [row for _, row in pairs])
            self._cache["rows"] = cached
        return cached

    def scaled_ints(self) -> tuple[int, list[tuple[int, ...]]]:
        """Common-denominator integer coordinates ``x = k / scale``.

        Cached, and built from :meth:`row_ints`, whose rows it shares where
        a row's denominator is the scale.  Used where projections are
        compared across rows: 3-D depth, directional quantiles, contact
        locations, certificate planes and hulls.
        """
        cached = self._cache.get("ints")
        if cached is None:
            dens, nums = self.row_ints()
            scale = math.lcm(*dens)
            rows = [
                r if den == scale else tuple(c * (scale // den) for c in r)
                for den, r in zip(dens, nums)
            ]
            cached = (scale, rows)
            self._cache["ints"] = cached
        return cached


def dataset(
    points: Iterable[Iterable[object]],
    metadata: dict | None = None,
    **extra: object,
) -> DataSet:
    pts = tuple(tuple(as_fraction(c) for c in p) for p in points)
    meta = dict(metadata) if metadata else {}
    meta.update(extra)
    return DataSet(pts, meta)


def dataset_from_floats(
    rows, bits: int = 53, metadata: dict | None = None, **extra: object
) -> DataSet:
    pts = tuple(tuple(snap(float(c), bits) for c in row) for row in rows)
    meta = {"precision_bits": bits}
    if metadata:
        meta.update(metadata)
    meta.update(extra)
    return DataSet(pts, meta)


# ---------------------------------------------------------------------------
# affine dimension (exact rank of the homogeneous rows)


def affine_dimension(ds: DataSet | Sequence[Sequence[Fraction]]) -> int:
    """Dimension of the affine hull: the rank of the homogeneous rows
    ``(*p, 1)`` minus one.  Cached per dataset."""
    cache = ds._cache if isinstance(ds, DataSet) else {}
    if "adim" not in cache:
        pts = ds.points if isinstance(ds, DataSet) else list(ds)
        if not pts:
            raise ValueError("affine dimension of an empty set is undefined")
        cache["adim"] = matrix_rank([(*p, 1) for p in pts]) - 1
    return cache["adim"]


# ---------------------------------------------------------------------------
# the affine-hull frame of points on a line or plane in space


@dataclass(frozen=True)
class AffineFrame:
    """Exact coordinates on the affine hull of a line or plane in space.

    ``basis`` holds the first nonzero difference from ``base`` and, for a
    plane, the first difference off that line.  The point ``base + B y``
    has the coordinates ``y``, the dot products of ``x - base`` with the
    dual basis: the vectors of the span with ``dual_i . b_j = [i = j]``.
    """

    base: Vec
    basis: tuple[Vec, ...]

    @functools.cached_property
    def dual(self) -> tuple[Vec, ...]:
        """``b / |b|^2`` for a line; ``b2 x n`` and ``n x b1`` over ``|n|^2``,
        with ``n = b1 x b2``, for a plane."""
        if len(self.basis) == 1:
            (b,) = self.basis
            vecs = [b]
            nn = dot(b, b)
        else:
            b1, b2 = self.basis
            n = cross3(b1, b2)
            vecs = [cross3(b2, n), cross3(n, b1)]
            nn = dot(n, n)
        return tuple(tuple(c / nn for c in v) for v in vecs)

    def coords(self, x: Sequence[Fraction]) -> Vec:
        diff = vsub(x, self.base)
        return tuple(dot(v, diff) for v in self.dual)

    def _span(self, y: Sequence[Fraction], vecs: Sequence[Vec]) -> Vec:
        return tuple(sum(yc * v[j] for yc, v in zip(y, vecs)) for j in range(3))

    def point(self, y: Sequence[Fraction]) -> Vec:
        return tuple(bc + sc for bc, sc in zip(self.base, self._span(y, self.basis)))

    def halfspace(self, h: Halfspace) -> Halfspace:
        """The halfspace whose normal lies in the basis's span and which
        meets the hull in the reduced halfspace ``h``."""
        w = self._span(h.normal, self.dual)
        return halfspace(w, h.offset + dot(w, self.base))

    def equations(self) -> list[Halfspace]:
        """Pairs of opposite halfspaces whose intersection is the hull."""
        if len(self.basis) == 2:
            normals = [cross3(*self.basis)]
        else:
            (b,) = self.basis
            n1 = next(c for c in (cross3(b, e) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
                      if not is_zero_vec(c))
            normals = [n1, cross3(b, n1)]
        out = []
        for nrm in normals:
            off = dot(nrm, self.base)
            out += [halfspace(nrm, off), halfspace(tuple(-c for c in nrm), -off)]
        return out


def reduce_dataset(ds: DataSet) -> tuple[AffineFrame, DataSet]:
    """The frame of a 3-D dataset of affine dimension 1 or 2, and the data
    in its coordinates (same order, so same multiplicities)."""
    base = ds.points[0]
    basis = span_pair(vsub(p, base) for p in ds.points[1:])
    frame = AffineFrame(base, tuple(b for b in basis if b is not None))
    return frame, DataSet(tuple(frame.coords(p) for p in ds.points))


# ---------------------------------------------------------------------------
# convex hulls (exact, degenerate-safe) and their halfspace representations


def convex_hull_2d(points: Sequence[Vec]) -> list[Vec]:
    """Extreme points of a planar point multiset, counter-clockwise.

    Degenerate inputs are fine: collinear sets yield the two endpoints and a
    single repeated point yields one vertex.
    """
    uniq = sorted(set(points))
    if len(uniq) <= 1:
        return list(uniq)

    def chain(pts: list[Vec]) -> list[Vec]:
        out: list[Vec] = []
        for p in pts:
            while len(out) >= 2 and cross2(vsub(out[-1], out[-2]), vsub(p, out[-2])) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = chain(uniq)
    upper = chain(list(reversed(uniq)))
    return lower[:-1] + upper[:-1]


def hull_halfspaces(ds: DataSet) -> list[Halfspace]:
    """Closed halfspaces whose intersection is the convex hull (d <= 3).

    Cached per dataset; every call returns a fresh list.
    """
    cached = ds._cache.get("hull")
    if cached is None:
        d = ds.dim
        pts = ds.points
        if d == 1:
            cached = _box_halfspaces(pts, (0,))
        elif d == 2:
            cached = _hull_halfspaces_2d(pts)
        elif d == 3:
            cached = _hull_halfspaces_3d(ds)
        else:
            raise ValueError(f"hull halfspaces unsupported for dimension {d}")
        ds._cache["hull"] = cached
    return list(cached)


def _box_halfspaces(pts: Sequence[Vec], dims: Sequence[int]) -> list[Halfspace]:
    d = len(pts[0])
    out = []
    for j in dims:
        e = tuple(int(k == j) for k in range(d))
        out.append(halfspace(e, min(p[j] for p in pts)))
        out.append(halfspace(tuple(-c for c in e), -max(p[j] for p in pts)))
    return out


def _hull_halfspaces_2d(pts: Sequence[Vec]) -> list[Halfspace]:
    hull = convex_hull_2d(pts)
    if len(hull) == 1:
        return _box_halfspaces(hull, (0, 1))
    if len(hull) == 2:
        a, b = hull
        t = vsub(b, a)
        n = perp2(t)
        return [
            halfspace(n, dot(n, a)),
            halfspace(tuple(-c for c in n), -dot(n, a)),
            halfspace(t, dot(t, a)),
            halfspace(tuple(-c for c in t), -dot(t, b)),
        ]
    out = []
    for a, b in zip(hull, hull[1:] + hull[:1]):
        n = perp2(vsub(b, a))  # inward for a CCW boundary
        out.append(halfspace(n, dot(n, a)))
    return out


def _hull_halfspaces_3d(ds: DataSet) -> list[Halfspace]:
    adim = affine_dimension(ds)
    if adim == 0:
        return _box_halfspaces(ds.points, (0, 1, 2))
    if adim < 3:
        # the 1-D or 2-D hull of the reduced points, lifted into the flat
        frame, reduced = reduce_dataset(ds)
        return frame.equations() + [frame.halfspace(h) for h in hull_halfspaces(reduced)]

    # a facet is a candidate plane with no point strictly on one side,
    # oriented so that every point satisfies p . x >= off; the scan of a
    # plane stops at the first point that puts points on both sides
    scale, rows = ds.scaled_ints()
    facets: dict[tuple[int, ...], Halfspace] = {}
    for _, _, p, off in _candidate_planes(rows):
        below = above = False
        for r in rows:
            s = sum(map(operator.mul, p, r))
            below |= s < off
            above |= s > off
            if below and above:
                break
        else:
            if below:
                p, off = tuple(-c for c in p), -off
            if p not in facets:
                facets[p] = Halfspace.of_row(tuple(scale * c for c in p), off, scale)
    return list(facets.values())


# ---------------------------------------------------------------------------
# candidate lines and planes through the data's integer rows


def _candidate_planes(rows: list[tuple[int, ...]]):
    """``(u, u . a, p, p . a)`` per line (d=2) or plane (d=3) through sorted
    distinct locations ``a, b(, c)``: ``u`` is ``perp(b - a)`` or
    ``(b - a) x (c - a)``, and ``p`` its primitive multiple."""
    locs = sorted(set(rows))
    if len(locs[0]) == 2:
        for (a0, a1), (b0, b1) in itertools.combinations(locs, 2):
            u = (a1 - b1, b0 - a0)
            p = primitive(u)
            yield u, u[0] * a0 + u[1] * a1, p, p[0] * a0 + p[1] * a1
        return
    for a, b, c in itertools.combinations(locs, 3):
        u = cross3(vsub(b, a), vsub(c, a))
        if u == (0, 0, 0):
            continue
        p = primitive(u)
        yield u, dot3(u, a), p, dot3(p, a)


def _split(rows: list[tuple[int, ...]], normal: tuple[int, ...], level: int):
    """Cut count and boundary indices of ``{r : normal . r >= level}``."""
    cut = 0
    boundary = []
    for i, r in enumerate(rows):
        s = sum(map(operator.mul, normal, r))
        if s < level:
            cut += 1
        elif s == level:
            boundary.append(i)
    return cut, tuple(boundary)


# ---------------------------------------------------------------------------
# dataset text format
#
# One point per line, coordinates whitespace-separated, each written either in
# decimal or as a rational literal p/q.  Lines starting with '#' are comments;
# header comments of the form '# key = value' populate the metadata.


def read_dataset(path: str) -> DataSet:
    points: list[Vec] = []
    metadata: dict = {}
    dim = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, val = body.partition("=")
                    metadata[key.strip()] = val.strip()
                continue
            try:
                coords = tuple(as_fraction(tok) for tok in line.split())
            except Exception as exc:
                raise ValueError(f"{path}:{lineno}: bad coordinate ({exc})") from exc
            if dim is None:
                dim = len(coords)
            elif len(coords) != dim:
                raise ValueError(f"{path}:{lineno}: expected {dim} coordinates, got {len(coords)}")
            points.append(coords)
    if not points:
        raise ValueError(f"{path}: no data points found")
    return DataSet(tuple(points), metadata)


def write_dataset(ds: DataSet, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for key, val in ds.metadata.items():
            fh.write(f"# {key} = {val}\n")
        for p in ds.points:
            fh.write(" ".join(format_rational(c) for c in p) + "\n")
