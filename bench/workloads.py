"""The benchmark's four workloads: inputs drawn from a seed, ops and checks.

Every op is a call into halfmed's public API that a user of the library
would make.  Inputs come only from ``--seed``: the same seed gives the same
datasets and queries, another seed gives other ones, and the op list has the
same length and order for every seed.

A pass runs every op once, on fresh ``DataSet`` objects so that the lazy
per-dataset caches are paid inside op time on every pass, as a user pays
them once per dataset.  Outputs are checked after the pass, outside the
timed phase.

Sizes are smaller than the work they stand for (criterion-6 trials run to
n = 1600, 3-D medians to n = 30).  One pass must fit a 25-s run on
a 2-core machine, and op cost varies a lot between datasets of one size
(2-D medians by a factor of 3-4), so a pass holds many small datasets rather
than a few large ones: the medians then move little from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

DEFAULT_SEED = 0

# Direction of every attack plan.  It is fixed by the benchmark rather than
# taken from ``upper_bound``, whose direction a faster search may change.
ATTACK_DIRECTION = (Fraction(3), Fraction(1))
ATTACK_DISTANCES = (10**3, 10**4, 10**5)

# dup_rate / collinear_rate of the degenerate samplers
_DEGENERATE_RATES = (0.1, 0.2)


@dataclass(frozen=True)
class Op:
    kind: str  # input class, e.g. "2d_n2000_bits53"
    size: str  # "small", "large" or "other"
    data: int  # index into Workload.datasets
    run: Callable[[Any, Any], Any]
    check: Callable[[Any, Any, Any], list[str]]
    digest: Callable[[Any], Any]


@dataclass
class Workload:
    datasets: list
    ops: list[Op]


def sub_seed(seed: int, index: int) -> int:
    """Independent sampler key for the ``index``-th dataset of a run."""
    h = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(h[:8], "big")


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def vec(v) -> list[str]:
    return [frac(c) for c in v]


def op_digest(value) -> str:
    """Short hash of an op's algorithm-independent outputs."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:12]


# ---------------------------------------------------------------------------
# shared checks


def recount(ds, x, u) -> int:
    """#{i : u.Xi <= u.x}, recounted in plain Fractions."""
    ux = sum(a * b for a, b in zip(u, x))
    return sum(1 for p in ds.points if sum(a * b for a, b in zip(u, p)) <= ux)


def check_depth(ds, x, res) -> list[str]:
    problems = []
    if res.n != ds.n or res.value != Fraction(res.count, ds.n):
        problems.append(f"depth value {res.value} != {res.count}/{ds.n}")
    got = recount(ds, x, res.witness)
    if got != res.count:
        problems.append(f"witness recount {got} != count {res.count}")
    if ds.dim == 1:
        le = sum(1 for p in ds.points if p[0] <= x[0])
        ge = sum(1 for p in ds.points if p[0] >= x[0])
        if min(le, ge) != res.count:
            problems.append(f"1-D depth {res.count} != {min(le, ge)}")
    return problems


def check_median(H, ds, mr) -> list[str]:
    """Region vertices have depth count n*lambda*, and the median lies in it."""
    k = mr.lambda_star * ds.n
    if k.denominator != 1 or not 1 <= k <= ds.n:
        return [f"lambda* = {mr.lambda_star} is not a depth level of n = {ds.n}"]
    if mr.region.empty or not mr.region.vertices:
        return ["median region is empty"]
    problems = []
    for v in mr.region.vertices:
        res = H.tukey_depth(v, ds)
        problems += check_depth(ds, v, res)
        if res.count != k:
            problems.append(f"region vertex depth count {res.count} != {k}")
    if not mr.region.contains(mr.median):
        problems.append("median point lies outside the median region")
    return problems


def median_digest(mr) -> dict:
    return {
        "lambda_star": frac(mr.lambda_star),
        "vertices": sorted(vec(v) for v in mr.region.vertices),
        "median": vec(mr.median),
    }


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Round-robin over groups of ops, so that a slow spell of a shared
    machine falls on every input class alike."""
    out: list[Op] = []
    for i in range(max(len(g) for g in groups)):
        out += [g[i] for g in groups if i < len(g)]
    return out


def _full_dimensional(H, spec, n: int, seed: int, index: int):
    """First draw of full affine dimension, as run_convergence samples."""
    for attempt in range(100):
        ds = H.sample(spec, n, sub_seed(seed, index * 100 + attempt), bits=21)
        if H.affine_dimension(ds) == spec.dim:
            return ds
    raise RuntimeError(f"no full-dimensional draw for {spec} at n={n}")


# ---------------------------------------------------------------------------
# depth-batch: tukey_depth queries in 1-D, 2-D (21- and 53-bit) and 3-D

# (dim, n, bits, size, datasets, queries per dataset)
_DEPTH_CLASSES = (
    (1, 200, 53, "small", 2, 20),
    (2, 200, 21, "small", 2, 20),
    (2, 200, 53, "small", 4, 30),
    (3, 30, 53, "small", 8, 10),
    (1, 2000, 53, "large", 2, 20),
    (2, 2000, 21, "large", 2, 7),
    (2, 2000, 53, "large", 4, 13),
    (3, 60, 53, "large", 9, 6),
)
# The op counts put each median in the middle of one class, away from the
# jump to the next: the median of all ops falls among the 1-D n = 2000
# queries, the small median among the 2-D n = 200 53-bit ones and the large
# median among the 2-D n = 2000 53-bit ones.  3-D query cost varies from one
# dataset to the next, so those classes spread over more datasets.


def _rational_query(rng: random.Random, dim: int) -> tuple[Fraction, ...]:
    """A point of the unit cube with odd, non-dyadic denominators."""
    out = []
    for _ in range(dim):
        q = 2 * rng.randint(1, 499) + 1
        out.append(Fraction(rng.randint(-q, q), q))
    return tuple(out)


def _depth_batch(H, seed: int) -> Workload:
    rng = random.Random(sub_seed(seed, -1))
    datasets, groups = [], []
    for dim, n, bits, size, n_sets, queries in _DEPTH_CLASSES:
        spec = H.degenerate_sampler(H.uniform_ball(dim), *_DEGENERATE_RATES)
        kind = f"{dim}d_n{n}" + (f"_bits{bits}" if dim == 2 else "")
        for _ in range(n_sets):
            ds = H.sample(spec, n, sub_seed(seed, len(datasets)), bits=bits)
            datasets.append(ds)
            group = []
            for j in range(queries):
                if j % 2 == 0:
                    q = ds.points[rng.randrange(n)]  # ties and multiplicity
                else:
                    q = _rational_query(rng, dim)
                group.append(
                    Op(
                        kind,
                        size,
                        len(datasets) - 1,
                        run=lambda H, ds, q=q: H.tukey_depth(q, ds),
                        check=lambda H, ds, res, q=q: check_depth(ds, q, res),
                        digest=lambda res: [res.count, res.n],
                    )
                )
            groups.append(group)
    return Workload(datasets, _interleave(groups))


# ---------------------------------------------------------------------------
# convergence-2d: one trial of run_convergence's inner loop

_CONVERGENCE_SPECS = ("uniform_ball", "ball_sphere_mixture")
# (n, size, trials per spec and pass).  With equal counts, the median of all
# ops falls in the middle of the n = 60 trials.
_CONVERGENCE_SIZES = ((30, "small", 11), (60, "other", 11), (100, "large", 11))


def _convergence_trial(H, ds, search_seed: int):
    mr = H.median_region(ds)
    lam = mr.lambda_star
    lower = lam / (1 + lam)
    ub = H.upper_bound(ds, H.DirectionSearchConfig(seed=search_seed, exhaustive=False))
    return mr, lower, ub


def _check_trial(H, ds, out) -> list[str]:
    mr, lower, ub = out
    problems = check_median(H, ds, mr)
    if lower != mr.lambda_star / (1 + mr.lambda_star):
        problems.append("lower != lambda*/(1+lambda*)")
    problems += _check_upper(ub, lower)
    return problems


def _check_upper(ub, lower) -> list[str]:
    problems = []
    if ub.bound != ub.inf_lambda / (1 + ub.inf_lambda):
        problems.append("upper bound != lambda_u/(1+lambda_u)")
    if ub.bound < lower:
        problems.append(f"upper bound {ub.bound} < lower bound {lower}")
    return problems


def _trial_digest(out) -> dict:
    mr, lower, ub = out
    return dict(median_digest(mr), lower=frac(lower), upper=frac(ub.bound))


def _convergence_2d(H, seed: int) -> Workload:
    datasets, groups = [], []
    for spec_name in _CONVERGENCE_SPECS:
        spec = getattr(H, spec_name)(2)
        for n, size, trials in _CONVERGENCE_SIZES:
            group = []
            for _ in range(trials):
                index = len(datasets)
                datasets.append(_full_dimensional(H, spec, n, seed, index))
                group.append(
                    Op(
                        f"{spec_name}_n{n}",
                        size,
                        index,
                        run=lambda H, ds, k=index: _convergence_trial(H, ds, k),
                        check=_check_trial,
                        digest=_trial_digest,
                    )
                )
            groups.append(group)
    return Workload(datasets, _interleave(groups))


# ---------------------------------------------------------------------------
# median-3d: median_region in 3-D

# (sampler, n, size, medians per pass).  The degenerate sets carry
# duplicates and collinear triples, so their certificates can hold more than
# three boundary points.
_MEDIAN_3D_CLASSES = (
    ("ball", 8, "small", 10),
    ("degenerate", 10, "other", 6),
    ("ball", 12, "large", 5),
)


def _median_3d(H, seed: int) -> Workload:
    datasets, groups = [], []
    for sampler, n, size, count in _MEDIAN_3D_CLASSES:
        spec = H.uniform_ball(3)
        if sampler == "degenerate":
            spec = H.degenerate_sampler(spec, 0.15, 0.3)
        group = []
        for _ in range(count):
            datasets.append(_full_dimensional(H, spec, n, seed, len(datasets)))
            group.append(
                Op(
                    f"{sampler}_n{n}",
                    size,
                    len(datasets) - 1,
                    run=lambda H, ds: H.median_region(ds),
                    check=check_median,
                    digest=median_digest,
                )
            )
        groups.append(group)
    return Workload(datasets, _interleave(groups))


# ---------------------------------------------------------------------------
# attack-2d: bounds, attack plans and their exact verification

# (n, size, datasets per pass)
_ATTACK_CLASSES = ((10, "small", 18), (20, "large", 8))


def _attack_op(H, ds):
    lower = H.lower_bound(ds)
    ub = H.upper_bound(ds)
    plans = [
        H.build_attack(ds, ATTACK_DIRECTION, distance=dist) for dist in ATTACK_DISTANCES
    ]
    checks = [H.verify_attack(ds, plan) for plan in plans]
    lam = lower / (1 - lower)
    m_low = math.ceil(ds.n * lam) - 1
    if m_low >= 1:
        low = H.build_attack(ds, ATTACK_DIRECTION, distance=10**4, m=m_low)
        plans.append(low)
        checks.append(H.verify_attack(ds, low))
    return lower, ub, plans, checks


def _check_attack(H, ds, out) -> list[str]:
    lower, ub, plans, checks = out
    lam = H.median_region(ds).lambda_star
    problems = []
    if lower != lam / (1 + lam):
        problems.append(f"lower {lower} != lambda*/(1+lambda*) = {lam / (1 + lam)}")
    problems += _check_upper(ub, lower)
    n = ds.n
    expected = len(ATTACK_DISTANCES) + (1 if math.ceil(n * lam) - 1 >= 1 else 0)
    if len(plans) != expected:
        problems.append(f"{len(plans)} plans, expected {expected}")
    for j, (plan, res) in enumerate(zip(plans, checks)):
        m = plan.m
        if res.depth_at_y0 != Fraction(m, n + m):
            problems.append(f"plan {j}: depth at y0 {res.depth_at_y0} != {m}/{n + m}")
        if res.sup_depth_inside > n * plan.lambda_u / (n + m):
            problems.append(f"plan {j}: sup depth {res.sup_depth_inside} above the cap")
        should_escape = j < len(ATTACK_DISTANCES)
        if res.escaped != should_escape:
            problems.append(f"plan {j} (m = {m}): escaped = {res.escaped}")
    return problems


def _attack_digest(out) -> dict:
    lower, ub, plans, checks = out
    return {
        "lower": frac(lower),
        "upper": frac(ub.bound),
        "plans": [[plan.m, frac(plan.lambda_u)] for plan in plans],
        "verify": [
            [frac(r.sup_depth_inside), frac(r.depth_at_y0), r.escaped] for r in checks
        ],
    }


def _attack_2d(H, seed: int) -> Workload:
    spec = H.degenerate_sampler(H.ball_sphere_mixture(2), *_DEGENERATE_RATES)
    datasets, groups = [], []
    for n, size, count in _ATTACK_CLASSES:
        group = []
        for _ in range(count):
            datasets.append(_full_dimensional(H, spec, n, seed, len(datasets)))
            group.append(
                Op(
                    f"n{n}",
                    size,
                    len(datasets) - 1,
                    run=_attack_op,
                    check=_check_attack,
                    digest=_attack_digest,
                )
            )
        groups.append(group)
    return Workload(datasets, _interleave(groups))


# ---------------------------------------------------------------------------

BUILDERS = {
    "depth-batch": _depth_batch,
    "convergence-2d": _convergence_2d,
    "median-3d": _median_3d,
    "attack-2d": _attack_2d,
}


def build(H, name: str, seed: int) -> Workload:
    return BUILDERS[name](H, seed)


@dataclass
class PassResult:
    wall_s: float
    times_s: list[float]
    outputs: list
    errors: list[str | None]


def time_pass(H, wl: Workload) -> PassResult:
    """Run every op once on fresh datasets; only the ops are timed."""
    fresh = [H.DataSet(ds.points, dict(ds.metadata)) for ds in wl.datasets]
    times, outputs, errors = [], [], []
    clock = time.perf_counter
    start = clock()
    for op in wl.ops:
        ds = fresh[op.data]
        t0 = clock()
        try:
            out, err = op.run(H, ds), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        times.append(clock() - t0)
        outputs.append(out)
        errors.append(err)
    return PassResult(clock() - start, times, outputs, errors)


def check_pass(H, wl: Workload, result: PassResult) -> tuple[list[list[str]], list[str]]:
    """Problems found in each op's output, and each op's output digest."""
    problems, digests = [], []
    for op, out, err in zip(wl.ops, result.outputs, result.errors):
        if err is not None:
            problems.append([err])
            digests.append("")
            continue
        ds = wl.datasets[op.data]
        try:
            found = op.check(H, ds, out)
            digest = op_digest(op.digest(out))
        except Exception as exc:  # a malformed output fails its check
            found, digest = [f"check raised {type(exc).__name__}: {exc}"], ""
        problems.append(found)
        digests.append(digest)
    return problems, digests
