"""Reference samplers and statistical probes for the robustness assumptions.

The asymptotic one-third robustness level of the halfspace median rests on
three properties of the sampling law: full-dimensional support (so samples
have full affine dimension), halfspace symmetry about a center, and a weak
smoothness condition (no hyperplane through the center carries positive
mass).  This module provides

* reference laws exercising each assumption — uniform balls and spheres, a
  ball/sphere mixture that is smooth yet not absolutely continuous, an
  atom-on-a-hyperplane construction that deliberately breaks smoothness,
  discrete clouds, and a wrapper that degrades any law into duplicated and
  collinear (not-in-general-position) samples;
* deterministic sampling into exact rational :class:`~halfmed.geometry.DataSet`
  values (floats are snapped once, at a configurable precision, and recorded
  in the metadata — every downstream computation is exact);
* Monte Carlo probes that measure the assumptions empirically and return
  verdicts with binomial confidence half-widths, plus an exact (count-based)
  symmetry check for finite datasets.

All randomness flows through ``numpy``'s counter-based Philox generator, so
identical ``(spec, n, seed)`` triples reproduce datasets bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .geometry import DataSet, as_fraction, dataset, dataset_from_floats, format_rational
from .depth import direction_net, tukey_depth

__all__ = [
    "DistributionSpec",
    "ProbeReport",
    "uniform_ball",
    "uniform_sphere",
    "ball_sphere_mixture",
    "atom_on_hyperplane",
    "discrete_cloud",
    "degenerate_sampler",
    "sample",
    "sample_floats",
    "symmetrize",
    "halfspace_symmetry_probe",
    "smoothness_probe",
    "depth_continuity_probe",
    "population_depth_estimate",
    "parse_spec_text",
    "parse_spec_file",
    "format_spec",
]


# ---------------------------------------------------------------------------
# distribution specifications


_VARIANTS = ("ball", "sphere", "mixture", "atom", "discrete", "degenerate")


@dataclass(frozen=True)
class DistributionSpec:
    """Immutable description of a sampling law.

    ``variant`` selects the family; the remaining fields are interpreted per
    variant (see the constructor functions).  ``center`` is the symmetry
    center for every variant except ``discrete``, whose symmetry (if any) is
    a property of the points and must be probed rather than assumed.
    """

    variant: str
    dim: int
    center: tuple[float, ...]
    radius: float = 1.0
    m0: float = 0.0
    dup_rate: float = 0.0
    collinear_rate: float = 0.0
    base: "DistributionSpec | None" = None
    points: tuple[tuple[float, ...], ...] | None = None
    weights: tuple[float, ...] | None = None

    @property
    def theta0(self) -> tuple[float, ...]:
        return self.center

    def __post_init__(self) -> None:
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown distribution variant {self.variant!r}")
        if self.dim < 1:
            raise ValueError("dimension must be >= 1")
        if len(self.center) != self.dim:
            raise ValueError("center dimension mismatch")


def _center_tuple(center, dim: int) -> tuple[float, ...]:
    if center is None:
        return (0.0,) * dim
    ct = tuple(float(c) for c in center)
    if len(ct) != dim:
        raise ValueError("center dimension mismatch")
    return ct


def uniform_ball(dim: int, radius: float = 1.0, center=None) -> DistributionSpec:
    """Uniform law on the closed ball of the given radius about ``center``."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return DistributionSpec("ball", dim, _center_tuple(center, dim), radius=float(radius))


def uniform_sphere(dim: int, radius: float = 1.0, center=None) -> DistributionSpec:
    """Uniform law on the sphere (surface only) of the given radius."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    return DistributionSpec("sphere", dim, _center_tuple(center, dim), radius=float(radius))


def ball_sphere_mixture(dim: int, center=None) -> DistributionSpec:
    """Fair mixture of the unit ball and the radius-2 sphere about ``center``.

    A coin flip picks the component: uniform on the closed unit ball, or
    uniform on the sphere of radius 2.  The law is halfspace symmetric and
    smooth (every hyperplane carries zero mass) yet not absolutely
    continuous — half its mass sits on a measure-zero surface.
    """
    return DistributionSpec("mixture", dim, _center_tuple(center, dim))


def atom_on_hyperplane(
    dim: int, m0: float, base: DistributionSpec | None = None, center=None
) -> DistributionSpec:
    """Law with probability mass ``m0`` concentrated on a fixed hyperplane.

    With probability ``m0`` the draw lies on the hyperplane through the
    center orthogonal to the first coordinate axis, distributed as a
    (dim-1)-dimensional uniform unit ball inside that hyperplane; otherwise
    it comes from ``base`` (default: the uniform unit ball).  The result is
    still halfspace symmetric about the center, but the hyperplane carries
    mass ``m0`` — the smoothness condition fails there by construction.
    """
    if not 0 <= m0 <= 1:
        raise ValueError("m0 must lie in [0, 1]")
    ct = _center_tuple(center, dim)
    if base is None:
        base = uniform_ball(dim, 1.0, ct)
    if base.dim != dim:
        raise ValueError("base dimension mismatch")
    return DistributionSpec("atom", dim, ct, m0=float(m0), base=base)


def discrete_cloud(points, weights=None) -> DistributionSpec:
    """Discrete law on a finite point set with optional positive weights."""
    pts = tuple(tuple(float(c) for c in p) for p in points)
    if not pts:
        raise ValueError("discrete cloud needs at least one point")
    dim = len(pts[0])
    if any(len(p) != dim for p in pts):
        raise ValueError("points must share one dimension")
    if weights is None:
        wts = (1.0,) * len(pts)
    else:
        wts = tuple(float(w) for w in weights)
        if len(wts) != len(pts):
            raise ValueError("weights length mismatch")
        if any(w <= 0 for w in wts):
            raise ValueError("weights must be positive")
    return DistributionSpec(
        "discrete", dim, (0.0,) * dim, points=pts, weights=wts
    )


def degenerate_sampler(
    base: DistributionSpec, dup_rate: float, collinear_rate: float
) -> DistributionSpec:
    """Degrade ``base`` samples into not-in-general-position datasets.

    After drawing ``n`` base points, each point (from the second on) is
    replaced by a copy of its predecessor with probability ``dup_rate``, and
    each disjoint consecutive triple is flattened onto the line through its
    outer points with probability ``collinear_rate``.
    """
    if not 0 <= dup_rate <= 1 or not 0 <= collinear_rate <= 1:
        raise ValueError("rates must lie in [0, 1]")
    return DistributionSpec(
        "degenerate",
        base.dim,
        base.center,
        dup_rate=float(dup_rate),
        collinear_rate=float(collinear_rate),
        base=base,
    )


# ---------------------------------------------------------------------------
# sampling


def _ball_rows(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    """Uniform draws in the centered ball: Gaussian direction, U^(1/d) radius."""
    if dim == 0:
        return np.zeros((n, 0))
    g = rng.standard_normal((n, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = radius * rng.random(n) ** (1.0 / dim)
    return g / norms * radii[:, None]


def _sphere_rows(rng: np.random.Generator, n: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((n, dim))
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return g / norms * radius


def _draw(spec: DistributionSpec, n: int, rng: np.random.Generator) -> np.ndarray:
    center = np.asarray(spec.center, dtype=float)
    if spec.variant == "ball":
        return center + _ball_rows(rng, n, spec.dim, spec.radius)
    if spec.variant == "sphere":
        return center + _sphere_rows(rng, n, spec.dim, spec.radius)
    if spec.variant == "mixture":
        take_ball = rng.random(n) < 0.5
        ball = _ball_rows(rng, n, spec.dim, 1.0)
        sphere = _sphere_rows(rng, n, spec.dim, 2.0)
        return center + np.where(take_ball[:, None], ball, sphere)
    if spec.variant == "atom":
        if spec.base is None:
            raise RuntimeError("atom distribution has no base distribution")
        on_plane = rng.random(n) < spec.m0
        base_rows = _draw(spec.base, n, rng)
        plane_rows = np.empty((n, spec.dim))
        plane_rows[:, 0] = center[0]
        plane_rows[:, 1:] = center[1:] + _ball_rows(rng, n, spec.dim - 1, 1.0)
        return np.where(on_plane[:, None], plane_rows, base_rows)
    if spec.variant == "discrete":
        if spec.points is None or spec.weights is None:
            raise RuntimeError("discrete distribution needs points and weights")
        pts = np.asarray(spec.points, dtype=float)
        w = np.asarray(spec.weights, dtype=float)
        idx = rng.choice(len(pts), size=n, p=w / w.sum())
        return pts[idx]
    if spec.variant == "degenerate":
        rows, dup, tri = _degenerate_parts(spec, n, rng)
        for i in range(1, n):
            if dup[i]:
                rows[i] = rows[i - 1]
        for j in range(n // 3):
            if not tri[j]:
                continue
            a, b, c = rows[3 * j], rows[3 * j + 1], rows[3 * j + 2]
            span = c - a
            denom = float(span @ span)
            if denom == 0.0:
                rows[3 * j + 1] = a
            else:
                t = float((b - a) @ span) / denom
                rows[3 * j + 1] = a + t * span
        return rows
    raise ValueError(f"unknown distribution variant {spec.variant!r}")


def _degenerate_parts(
    spec: DistributionSpec, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Base draw plus duplication/flattening masks, in a fixed draw order."""
    if spec.base is None:
        raise RuntimeError("degenerate distribution has no base distribution")
    rows = _draw(spec.base, n, rng).copy()
    dup = rng.random(n) < spec.dup_rate
    tri = rng.random(n // 3) < spec.collinear_rate
    return rows, dup, tri


def sample_floats(spec: DistributionSpec, n: int, seed: int = 0) -> np.ndarray:
    """Draw ``n`` i.i.d. samples as a float array of shape ``(n, dim)``.

    Deterministic per ``(spec, n, seed)`` — the generator is counter-based
    and the draw order inside each variant is fixed.
    """
    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.Generator(np.random.Philox(key=seed))
    return _draw(spec, n, rng)


def sample(spec: DistributionSpec, n: int, seed: int = 0, bits: int = 53) -> DataSet:
    """Draw ``n`` samples and snap them to exact rationals at ``bits`` precision.

    Snapping happens exactly once, here; the precision and provenance are
    recorded in the dataset metadata so downstream exact computations can
    report how the rationals were produced.

    For degenerate samplers, duplication and collinear flattening are applied
    to the snapped rationals so the degeneracies are exact: duplicated points
    compare equal and flattened triples have zero determinant.  (The float
    route applies the same post-processing approximately.)
    """
    metadata = {"source": format_spec(spec, inline=True), "seed": seed}
    if spec.variant != "degenerate":
        rows = sample_floats(spec, n, seed)
        return dataset_from_floats(rows.tolist(), bits=bits, metadata=metadata)

    if n < 1:
        raise ValueError("need n >= 1 samples")
    rng = np.random.Generator(np.random.Philox(key=seed))
    rows, dup, tri = _degenerate_parts(spec, n, rng)
    base = dataset_from_floats(rows.tolist(), bits=bits, metadata=metadata)
    pts = list(base.points)
    for i in range(1, n):
        if dup[i]:
            pts[i] = pts[i - 1]
    for j in range(n // 3):
        if not tri[j]:
            continue
        a, b, c = pts[3 * j], pts[3 * j + 1], pts[3 * j + 2]
        span = tuple(cc - ac for cc, ac in zip(c, a))
        denom = sum(s * s for s in span)
        if denom == 0:
            pts[3 * j + 1] = a
        else:
            t = sum((bc - ac) * s for bc, ac, s in zip(b, a, span)) / denom
            pts[3 * j + 1] = tuple(ac + t * s for ac, s in zip(a, span))
    return dataset(pts, metadata=dict(base.metadata))


def symmetrize(ds: DataSet, center) -> DataSet:
    """Return the dataset joined with its point reflection through ``center``.

    The result has ``2n`` points (multiplicities preserved) and is exactly
    centrally symmetric about ``center``, hence halfspace symmetric: every
    closed halfspace through the center contains at least half the points.
    """
    c = tuple(as_fraction(x) for x in center)
    if len(c) != ds.dim:
        raise ValueError("center dimension mismatch")
    reflected = [tuple(2 * cc - p for cc, p in zip(c, pt)) for pt in ds.points]
    meta = dict(ds.metadata)
    meta["symmetrized_about"] = " ".join(format_rational(x) for x in c)
    return dataset(list(ds.points) + reflected, metadata=meta)


# ---------------------------------------------------------------------------
# probe reports


@dataclass(frozen=True)
class ProbeReport:
    """Outcome of a statistical probe.

    ``estimate`` is the headline statistic, ``half_width`` its 95% binomial
    half-width (``1.96 * sqrt(p(1-p)/N)``; zero for exact counts), and
    ``verdict`` the thresholded conclusion.  ``details`` carries the
    per-direction or per-width breakdown behind the headline number.
    """

    statistic: str
    estimate: float
    half_width: float
    N: int
    verdict: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        """True when the verdict affirms the probed assumption."""
        return self.verdict in ("PASS", "SMOOTH", "CONTINUOUS")

    def __str__(self) -> str:
        return (
            f"{self.statistic}: estimate={self.estimate:.6g} "
            f"half_width={self.half_width:.2g} N={self.N} -> {self.verdict}"
        )


def _binom_half_width(p: float, n: int) -> float:
    return 1.96 * math.sqrt(max(p * (1.0 - p), 0.0) / n) if n > 0 else 0.0


# ---------------------------------------------------------------------------
# halfspace symmetry


def halfspace_symmetry_probe(
    data,
    theta0: Sequence[object],
    directions: int = 32,
    N: int = 100_000,
    seed: int = 0,
) -> ProbeReport:
    """Measure the minimum closed-halfspace mass over halfspaces through ``theta0``.

    Halfspace symmetry about ``theta0`` means every closed halfspace whose
    boundary passes through ``theta0`` holds probability at least one half.

    * Given a :class:`DataSet`, the check is exact: the minimum over all
      directions of the fraction of points in the closed halfspace equals
      the exact depth of ``theta0`` in the dataset (substituting ``u`` by
      ``-u`` maps the at-least side onto the at-most side), so the depth
      solver's value is the true minimum and the half-width is zero.
      Verdict ``PASS`` iff the fraction is >= 1/2 exactly.
    * Given a :class:`DistributionSpec`, the minimum is estimated over a
      direction net from ``N`` Monte Carlo draws.  Verdict ``PASS`` iff the
      minimum is >= 1/2 - 3 * half_width.
    """
    if isinstance(data, DataSet):
        x = tuple(as_fraction(c) for c in theta0)
        res = tukey_depth(x, data)
        frac = res.value
        return ProbeReport(
            statistic="halfspace-symmetry (exact)",
            estimate=float(frac),
            half_width=0.0,
            N=data.n,
            verdict="PASS" if frac >= Fraction(1, 2) else "FAIL",
            details={
                "fraction": frac,
                "witness_direction": tuple(-c for c in res.witness),
            },
        )
    spec: DistributionSpec = data
    if directions < 1:
        raise ValueError("need at least one direction")
    samples = sample_floats(spec, N, seed)
    theta = np.asarray([float(c) for c in theta0], dtype=float)
    net = direction_net(spec.dim, directions, seed=seed + 1)
    best = 1.0
    witness = None
    for u in net:
        p = float(np.mean(samples @ u >= theta @ u))
        if p < best:
            best, witness = p, u
    half = _binom_half_width(best, N)
    verdict = "PASS" if best >= 0.5 - 3.0 * half else "FAIL"
    return ProbeReport(
        statistic="halfspace-symmetry (Monte Carlo)",
        estimate=best,
        half_width=half,
        N=N,
        verdict=verdict,
        details={
            "witness_direction": None if witness is None else tuple(map(float, witness))
        },
    )


# ---------------------------------------------------------------------------
# smoothness (hyperplane mass)


def smoothness_probe(
    spec: DistributionSpec,
    x0: Sequence[object],
    widths: Sequence[float] = (1e-1, 1e-2, 1e-3),
    directions: int = 16,
    N: int = 100_000,
    seed: int = 0,
    threshold: float = 0.02,
) -> ProbeReport:
    """Estimate the worst hyperplane mass near ``x0`` along shrinking slabs.

    For every direction ``u`` in a net and every width ``w`` the probe
    estimates ``P(|u.X - u.x0| <= w)``.  A law that is smooth at ``x0`` (no
    hyperplane through ``x0`` carries mass) sends the worst slab mass to
    zero with the width; an atom on a hyperplane keeps it pinned at the atom
    mass.  Verdict ``SMOOTH`` iff the final (narrowest) width's maximum is
    at most ``threshold``; otherwise ``NON-SMOOTH`` with the witness
    direction in the details.
    """
    ws = [float(w) for w in widths]
    if not ws or any(b >= a for a, b in zip(ws, ws[1:])):
        raise ValueError("widths must be strictly decreasing")
    samples = sample_floats(spec, N, seed)
    point = np.asarray([float(c) for c in x0], dtype=float)
    net = direction_net(spec.dim, directions, seed=seed + 1)
    per_width: list[float] = []
    witness = None
    final_max = 0.0
    for w in ws:
        worst = 0.0
        worst_u = None
        for u in net:
            scale = float(np.linalg.norm(u))
            if scale == 0.0:
                continue
            mass = float(np.mean(np.abs((samples - point) @ u) <= w * scale))
            if mass > worst:
                worst, worst_u = mass, u
        per_width.append(worst)
        final_max, witness = worst, worst_u
    half = _binom_half_width(final_max, N)
    verdict = "SMOOTH" if final_max <= threshold else "NON-SMOOTH"
    return ProbeReport(
        statistic="hyperplane-mass",
        estimate=final_max,
        half_width=half,
        N=N,
        verdict=verdict,
        details={
            "widths": tuple(ws),
            "max_slab_mass": tuple(per_width),
            "witness_direction": None if witness is None else tuple(map(float, witness)),
            "threshold": threshold,
        },
    )


# ---------------------------------------------------------------------------
# depth continuity at the center


def population_depth_estimate(
    dist_spec,
    x: Sequence[float],
    n_samples: int,
    seed: int = 0,
    n_directions: int = 64,
) -> tuple[float, float]:
    """Monte Carlo depth estimate under a sampling law, with a 95% half-width.

    Returns ``(estimate, 1.96 * sqrt(p(1-p)/N))`` where the estimate is the
    minimum over a direction net of the closed-halfspace probability.
    """
    samples = sample_floats(dist_spec, n_samples, seed)
    xf = np.asarray([float(c) for c in x], dtype=float)
    net = direction_net(samples.shape[1], n_directions, seed=seed + 1)
    best = 1.0
    for u in net:
        p = float(np.mean(samples @ u <= xf @ u))
        if p < best:
            best = p
    half = 1.96 * math.sqrt(max(best * (1.0 - best), 1e-12) / n_samples)
    return best, half


def depth_continuity_probe(
    spec: DistributionSpec,
    theta0: Sequence[object],
    approach_direction: Sequence[object],
    radii: Sequence[float] = (0.5, 0.1, 0.02),
    N: int = 20_000,
    seed: int = 0,
    tolerance: float = 0.03,
) -> ProbeReport:
    """Compare population depth at the center against nearby off-center points.

    Estimates the population depth at ``theta0`` and at ``theta0 + r * dir``
    for each radius ``r`` (decreasing).  When the law places mass ``m0 > 0``
    on a hyperplane through the center, depth jumps: points on the lighter
    side have depth at most ``(1 - m0)/2`` no matter how close they are,
    while the center keeps depth 1/2.  Verdict:

    * for specs with a hyperplane atom (``m0 > 0``): ``DISCONTINUOUS`` iff
      every side estimate is <= (1 - m0)/2 + tolerance while the center
      estimate is >= 1/2 - tolerance, else ``INCONCLUSIVE``;
    * otherwise: ``CONTINUOUS`` iff the gap between the center estimate and
      the estimate at the smallest radius is <= tolerance (plus the Monte
      Carlo half-widths), else ``INCONCLUSIVE``.
    """
    rs = [float(r) for r in radii]
    if not rs or any(b >= a for a, b in zip(rs, rs[1:])) or rs[-1] <= 0:
        raise ValueError("radii must be strictly decreasing and positive")
    theta = [float(c) for c in theta0]
    direction = [float(c) for c in approach_direction]
    norm = math.sqrt(sum(c * c for c in direction))
    if norm == 0.0:
        raise ValueError("approach direction must be nonzero")
    direction = [c / norm for c in direction]
    center_est, center_half = population_depth_estimate(spec, theta, N, seed=seed)
    side: list[tuple[float, float, float]] = []
    for i, r in enumerate(rs):
        pt = [t + r * u for t, u in zip(theta, direction)]
        est, half = population_depth_estimate(spec, pt, N, seed=seed + 1 + i)
        side.append((r, est, half))
    details = {
        "center_estimate": center_est,
        "center_half_width": center_half,
        "side_estimates": tuple(side),
        "tolerance": tolerance,
    }
    final_est = side[-1][1]
    if spec.variant == "atom" and spec.m0 > 0:
        ceiling = (1.0 - spec.m0) / 2.0 + tolerance
        ok = all(est <= ceiling for _, est, _ in side) and center_est >= 0.5 - tolerance
        verdict = "DISCONTINUOUS" if ok else "INCONCLUSIVE"
        details["side_ceiling"] = ceiling
    else:
        gap = abs(final_est - center_est)
        limit = tolerance + center_half + side[-1][2]
        verdict = "CONTINUOUS" if gap <= limit else "INCONCLUSIVE"
        details["final_gap"] = gap
    return ProbeReport(
        statistic="depth-continuity",
        estimate=final_est,
        half_width=side[-1][2],
        N=N,
        verdict=verdict,
        details=details,
    )


# ---------------------------------------------------------------------------
# plain-text spec files (key = value lines)


_SPEC_NAMES = {
    "uniformball": "ball",
    "ball": "ball",
    "uniformsphere": "sphere",
    "sphere": "sphere",
    "ballspheremixture": "mixture",
    "mixture": "mixture",
    "atomonhyperplane": "atom",
    "atom": "atom",
    "discretecloud": "discrete",
    "cloud": "discrete",
    "discrete": "discrete",
    "degeneratesampler": "degenerate",
    "degenerate": "degenerate",
}

_CANONICAL_NAMES = {
    "ball": "UniformBall",
    "sphere": "UniformSphere",
    "mixture": "BallSphereMixture",
    "atom": "AtomOnHyperplane",
    "discrete": "DiscreteCloud",
    "degenerate": "DegenerateSampler",
}


def parse_spec_text(text: str) -> tuple[DistributionSpec, dict]:
    """Parse a ``key = value`` block into a spec plus leftover options.

    Recognized keys: ``variant`` (required), ``dim``, ``radius``, ``center``
    (space-separated coordinates), ``m0``, ``dup_rate``, ``collinear_rate``,
    ``base`` (variant name for atom/degenerate wrappers), ``base_radius``,
    ``points`` (semicolon-separated comma tuples), ``weights``.  Lines
    starting with ``#`` are comments.  Unrecognized keys (for example
    ``seed`` or ``precision``) are returned untouched in the options dict so
    callers can apply them.
    """
    kv: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, val = line.partition("=")
        kv[key.strip().lower()] = val.strip()
    if "variant" not in kv:
        raise ValueError("spec text is missing the required 'variant' key")
    variant_raw = kv.pop("variant")
    variant = _SPEC_NAMES.get(variant_raw.replace("_", "").replace("-", "").lower())
    if variant is None:
        raise ValueError(f"unknown distribution variant {variant_raw!r}")

    def pop_float(key: str, default: float) -> float:
        return float(kv.pop(key)) if key in kv else default

    dim = int(kv.pop("dim", kv.pop("d", "2")))
    center = None
    if "center" in kv:
        center = [float(tok) for tok in kv.pop("center").split()]
    if variant == "ball":
        spec = uniform_ball(dim, pop_float("radius", 1.0), center)
    elif variant == "sphere":
        spec = uniform_sphere(dim, pop_float("radius", 1.0), center)
    elif variant == "mixture":
        spec = ball_sphere_mixture(dim, center)
    elif variant == "atom":
        base = _parse_base(kv, dim, center)
        spec = atom_on_hyperplane(dim, pop_float("m0", 0.5), base, center)
    elif variant == "degenerate":
        base = _parse_base(kv, dim, center) or uniform_ball(dim, 1.0, center)
        spec = degenerate_sampler(
            base, pop_float("dup_rate", 0.0), pop_float("collinear_rate", 0.0)
        )
    else:  # discrete
        if "points" not in kv:
            raise ValueError("discrete variant requires a 'points' key")
        pts = [
            [float(tok) for tok in chunk.replace(",", " ").split()]
            for chunk in kv.pop("points").split(";")
            if chunk.strip()
        ]
        weights = None
        if "weights" in kv:
            weights = [float(tok) for tok in kv.pop("weights").split()]
        spec = discrete_cloud(pts, weights)
    return spec, kv


def _parse_base(kv: dict, dim: int, center) -> DistributionSpec | None:
    if "base" not in kv:
        return None
    name = _SPEC_NAMES.get(kv.pop("base").replace("_", "").replace("-", "").lower())
    if name is None or name in ("atom", "degenerate", "discrete"):
        raise ValueError("base must be a ball, sphere, or mixture variant")
    radius = float(kv.pop("base_radius", "1"))
    if name == "ball":
        return uniform_ball(dim, radius, center)
    if name == "sphere":
        return uniform_sphere(dim, radius, center)
    return ball_sphere_mixture(dim, center)


def parse_spec_file(path) -> tuple[DistributionSpec, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


def format_spec(spec: DistributionSpec, inline: bool = False) -> str:
    """Render a spec back to ``key = value`` text (round-trips with the parser).

    With ``inline=True`` the pairs are joined by ``'; '`` on one line, for
    embedding in dataset metadata.
    """
    pairs: list[tuple[str, str]] = [
        ("variant", _CANONICAL_NAMES[spec.variant]),
        ("dim", str(spec.dim)),
    ]
    if any(c != 0.0 for c in spec.center):
        pairs.append(("center", " ".join(repr(c) for c in spec.center)))
    if spec.variant in ("ball", "sphere"):
        pairs.append(("radius", repr(spec.radius)))
    if spec.variant == "atom":
        pairs.append(("m0", repr(spec.m0)))
    if spec.variant == "degenerate":
        pairs.append(("dup_rate", repr(spec.dup_rate)))
        pairs.append(("collinear_rate", repr(spec.collinear_rate)))
    if spec.base is not None and not (
        spec.base.variant == "ball" and spec.base.radius == 1.0
    ):
        pairs.append(("base", _CANONICAL_NAMES[spec.base.variant]))
        if spec.base.variant in ("ball", "sphere"):
            pairs.append(("base_radius", repr(spec.base.radius)))
    if spec.points is not None:
        pairs.append(
            ("points", "; ".join(",".join(repr(c) for c in p) for p in spec.points))
        )
        if spec.weights is not None and any(w != spec.weights[0] for w in spec.weights):
            pairs.append(("weights", " ".join(repr(w) for w in spec.weights)))
    sep = "; " if inline else "\n"
    return sep.join(f"{k} = {v}" for k, v in pairs)
