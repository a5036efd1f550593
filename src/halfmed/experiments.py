"""Experiment orchestration: convergence studies, oracle sweeps, attack demos.

Three reproducible experiment drivers sit on top of the exact machinery:

* :func:`run_convergence` — samples datasets of growing size from a law that
  passes the symmetry and smoothness preflight, computes the exact maximal
  depth and both robustness bounds per trial, and aggregates exact rational
  medians per sample size.  At desk scale the medians approach the
  asymptotic value 1/3.
* :func:`run_region_oracle` — adversarial sweep comparing the depth-region
  polytopes against pointwise depth on a probe battery (vertices, sample
  points, random rational probes, facet-outward pushes), including
  degenerate (duplicated / collinear) instances; any mismatch is reported.
* :func:`run_attack_demo` — builds worst-case contamination plans across a
  scale schedule, verifies them, and exports plot-ready geometry.

Determinism: every trial derives its seed from the master seed by counter,
rows are sorted before writing, and the result CSVs contain only exactly
reproducible values (timings go to a separate file, since wall-clock noise
must not break byte-identical outputs).
"""

from __future__ import annotations

import csv
import math
import pathlib
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .geometry import (
    DataSet,
    Side,
    affine_dimension,
    dataset,
    format_rational,
    side_of,
)
from .depth import depth_count
from .regions import _level_scope, depth_region, enumerate_irrotatable, median_region
from .breakdown import (
    DirectionSearchConfig,
    build_attack,
    upper_bound,
    verify_attack,
)
from .distributions import (
    DistributionSpec,
    ProbeReport,
    degenerate_sampler,
    halfspace_symmetry_probe,
    sample,
    smoothness_probe,
    uniform_ball,
)
from .polytope import write_region_files

__all__ = [
    "ExperimentConfig",
    "ConvergenceRow",
    "ConvergenceResult",
    "PreflightError",
    "run_convergence",
    "aggregate_convergence",
    "trend_ok",
    "median_fraction",
    "OracleSummary",
    "run_region_oracle",
    "AttackDemoRow",
    "AttackDemoResult",
    "run_attack_demo",
    "write_csv",
]


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class ExperimentConfig:
    """Shared experiment settings.

    ``n_schedule`` must be strictly increasing; ``trials`` is the number of
    repetitions per schedule entry (for the oracle sweep it is the number of
    instances, and ``max(n_schedule)`` caps the instance size).
    """

    name: str
    spec: DistributionSpec | None = None
    n_schedule: tuple[int, ...] = (50, 200, 800, 1600)
    trials: int = 20
    seed: int = 0
    out_dir: str | None = None
    budget_s: float = 60.0
    precision_bits: int = 21

    def __post_init__(self) -> None:
        if not self.n_schedule or any(
            b <= a for a, b in zip(self.n_schedule, self.n_schedule[1:])
        ):
            raise ValueError("n_schedule must be nonempty and strictly increasing")
        if any(n < 1 for n in self.n_schedule):
            raise ValueError("sample sizes must be positive")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


class PreflightError(RuntimeError):
    """A convergence run was refused because an assumption probe failed."""

    def __init__(self, report: ProbeReport):
        super().__init__(f"preflight refused: {report}")
        self.report = report


def _sub_seed(master: int, counter: int) -> int:
    # distinct, deterministic, and stable across platforms
    return (master * 1_000_003 + counter) % (1 << 63)


def _sample_full_dim(
    spec: DistributionSpec, n: int, seed: int, bits: int, attempts: int = 40
) -> DataSet:
    """Sample until the dataset has full affine dimension (resample guard)."""
    for attempt in range(attempts):
        ds = sample(spec, n, _sub_seed(seed, attempt * 7_654_321), bits=bits)
        if affine_dimension(ds) == spec.dim:
            return ds
    raise RuntimeError(
        f"could not draw a full-dimensional sample of size {n} in {attempts} attempts"
    )


# ---------------------------------------------------------------------------
# CSV plumbing (RFC 4180: header row, CRLF line endings, minimal quoting)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> pathlib.Path:
    out = pathlib.Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
    return out


def _cell(v: object) -> str:
    if v is None:
        return ""
    if isinstance(v, Fraction):
        return format_rational(v)
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (tuple, list)):
        return " ".join(_cell(c) for c in v)
    return str(v)


# ---------------------------------------------------------------------------
# convergence experiment


@dataclass(frozen=True)
class ConvergenceRow:
    """One trial's exact results (``None`` fields mark a budget abort)."""

    n: int
    trial: int
    lambda_star: Fraction | None
    lower: Fraction | None
    inf_lambda_u: Fraction | None
    upper: Fraction | None
    runtime_ms: int
    status: str = "ok"


@dataclass(frozen=True)
class ConvergenceResult:
    rows: tuple[ConvergenceRow, ...]
    medians: dict
    aborted: bool
    csv_paths: tuple[pathlib.Path, ...] = ()


def median_fraction(values: Sequence[Fraction]) -> Fraction:
    """Exact median (mean of the two middle values for even counts)."""
    if not values:
        raise ValueError("median of an empty sequence")
    s = sorted(values)
    mid = len(s) // 2
    if len(s) % 2:
        return s[mid]
    return (s[mid - 1] + s[mid]) / 2


_THIRD = Fraction(1, 3)


def aggregate_convergence(rows: Sequence[ConvergenceRow]) -> dict:
    """Per-``n`` exact medians of the level and both bounds.

    ``deviation`` is the larger of the two median bounds' distances from the
    asymptotic value 1/3; ``gap`` is the median per-trial bound gap.
    """
    by_n: dict[int, list[ConvergenceRow]] = {}
    for row in rows:
        if row.status == "ok":
            by_n.setdefault(row.n, []).append(row)
    out: dict[int, dict[str, Fraction]] = {}
    for n in sorted(by_n):
        grp = by_n[n]
        ml = median_fraction([r.lower for r in grp])
        mu = median_fraction([r.upper for r in grp])
        out[n] = {
            "lambda_star": median_fraction([r.lambda_star for r in grp]),
            "lower": ml,
            "upper": mu,
            "deviation": max(abs(ml - _THIRD), abs(mu - _THIRD)),
            "gap": median_fraction([r.upper - r.lower for r in grp]),
        }
    return out


def trend_ok(medians: dict, allowed_blips: int = 1, key: str = "deviation") -> bool:
    """True when the per-``n`` medians shrink along the schedule.

    The tracked quantity must be non-increasing between consecutive sizes in
    all but at most ``allowed_blips`` steps (sampling noise allowance).
    """
    ns = sorted(medians)
    vals = [medians[n][key] for n in ns]
    blips = sum(1 for a, b in zip(vals, vals[1:]) if b > a)
    return blips <= allowed_blips


def run_convergence(cfg: ExperimentConfig) -> ConvergenceResult:
    """Sample, solve, and aggregate the convergence experiment.

    Preflight: the law must pass the halfspace-symmetry probe and the
    smoothness probe at its center, otherwise the run is refused with a
    :class:`PreflightError` carrying the failing report (never silently
    run).  Each (n, trial) pair draws a full-dimensional dataset from a
    counter-derived sub-seed and computes the exact maximal depth, the lower
    robustness bound, and the projection upper bound.  A trial exceeding the
    wall budget is recorded as a partial row with status ``"budget"``.

    When ``cfg.out_dir`` is set, three CSVs are written: exact results,
    exact per-``n`` medians, and (separately, to keep the result files
    byte-reproducible) wall-clock timings.
    """
    if cfg.spec is None:
        raise ValueError("run_convergence requires a distribution spec")
    spec = cfg.spec
    center = spec.center

    sym = halfspace_symmetry_probe(spec, center, seed=cfg.seed)
    if sym.verdict != "PASS":
        raise PreflightError(sym)
    smooth = smoothness_probe(spec, center, seed=cfg.seed)
    if smooth.verdict != "SMOOTH":
        raise PreflightError(smooth)

    rows: list[ConvergenceRow] = []
    aborted = False
    counter = 0
    for n in cfg.n_schedule:
        # the exact sweep only for small datasets, where it is cheap
        search = DirectionSearchConfig(seed=cfg.seed, exhaustive=n <= 64)
        for trial in range(cfg.trials):
            counter += 1
            ds = _sample_full_dim(
                spec, n, _sub_seed(cfg.seed, counter), cfg.precision_bits
            )
            t0 = time.perf_counter()
            lam = lower = inf_lam = upper = None
            status = "ok"
            lam = median_region(ds).lambda_star
            lower = lam / (1 + lam)
            if time.perf_counter() - t0 > cfg.budget_s:
                status = "budget"
            else:
                ub = upper_bound(ds, search, lam)
                inf_lam, upper = ub.inf_lambda, ub.bound
                if time.perf_counter() - t0 > cfg.budget_s:
                    status = "budget"
            if status == "budget":
                aborted = True
            runtime_ms = int(round((time.perf_counter() - t0) * 1000))
            rows.append(
                ConvergenceRow(n, trial, lam, lower, inf_lam, upper, runtime_ms, status)
            )

    rows.sort(key=lambda r: (r.n, r.trial))
    medians = aggregate_convergence(rows)
    paths: tuple[pathlib.Path, ...] = ()
    if cfg.out_dir:
        base = pathlib.Path(cfg.out_dir)
        results = write_csv(
            base / f"{cfg.name}_results.csv",
            ["n", "trial", "lambda_star", "lower", "inf_lambda_u", "upper", "status"],
            [
                [r.n, r.trial, r.lambda_star, r.lower, r.inf_lambda_u, r.upper, r.status]
                for r in rows
            ],
        )
        med = write_csv(
            base / f"{cfg.name}_medians.csv",
            ["n", "median_lambda_star", "median_lower", "median_upper", "deviation", "gap"],
            [
                [n, m["lambda_star"], m["lower"], m["upper"], m["deviation"], m["gap"]]
                for n, m in sorted(medians.items())
            ],
        )
        timings = write_csv(
            base / f"{cfg.name}_timings.csv",
            ["n", "trial", "runtime_ms"],
            [[r.n, r.trial, r.runtime_ms] for r in rows],
        )
        paths = (results, med, timings)
    return ConvergenceResult(tuple(rows), medians, aborted, paths)


# ---------------------------------------------------------------------------
# region oracle sweep


@dataclass(frozen=True)
class OracleSummary:
    """Outcome of the region-vs-pointwise-depth equivalence sweep."""

    instances: int
    taus_checked: int
    probes_checked: int
    mismatches: int
    mismatch_examples: tuple[str, ...]
    gp_instances: int
    gp_certificate_violations: int

    @property
    def clean(self) -> bool:
        return self.mismatches == 0 and self.gp_certificate_violations == 0


def _random_rational_probes(
    rng: random.Random, ds: DataSet, count: int
) -> list[tuple[Fraction, ...]]:
    """Random points with small denominators, spread over the padded bbox."""
    den = 128
    lows = [min(p[i] for p in ds.points) for i in range(ds.dim)]
    highs = [max(p[i] for p in ds.points) for i in range(ds.dim)]
    pts = []
    for _ in range(count):
        coords = []
        for lo, hi in zip(lows, highs):
            a = math.floor(lo * den) - den
            b = math.ceil(hi * den) + den
            coords.append(Fraction(rng.randint(a, b), den))
        pts.append(tuple(coords))
    return pts


def _facet_pushes(region, delta: Fraction = Fraction(1, 4096)) -> list[tuple[Fraction, ...]]:
    """One point just outside each facet, seeded from a boundary vertex."""
    if region.empty or not region.vertices:
        return []
    out = []
    for h in region.halfspaces:
        anchor = next((v for v in region.vertices if side_of(h, v) is Side.BOUNDARY), None)
        if anchor is None:
            continue
        normal = h.normal
        step = delta / sum(c * c for c in normal)
        out.append(tuple(a - step * c for a, c in zip(anchor, normal)))
    return out


def _is_general_position(ds: DataSet) -> bool:
    """No duplicate points and no (d-1)-flat holding more than d points."""
    pts = ds.points
    if len(set(pts)) != len(pts):
        return False
    d = ds.dim
    if d == 1:
        return True
    import itertools

    if d == 2:
        for a, b, c in itertools.combinations(pts, 3):
            if (b[0] - a[0]) * (c[1] - a[1]) == (b[1] - a[1]) * (c[0] - a[0]):
                return False
        return True
    for quad in itertools.combinations(pts, 4):
        if affine_dimension(dataset(quad)) <= 2:
            return False
    return True


def run_region_oracle(cfg: ExperimentConfig) -> OracleSummary:
    """Compare region membership against pointwise depth on random instances.

    Draws ``cfg.trials`` datasets (sizes up to ``max(cfg.n_schedule)``) from
    ``cfg.spec`` — by default a degenerate-sampler-wrapped uniform ball, so
    duplicated and collinear configurations are exercised — and checks, for
    every depth level from the minimum up to the maximal depth, that the
    membership predicate of the region polytope agrees with pointwise depth
    on the probe battery.  For instances in general position it additionally
    verifies the textbook certificate shape: exactly ``d`` boundary points
    and exactly ``ceil(n*tau) - 1`` points cut away.
    """
    spec = cfg.spec or degenerate_sampler(uniform_ball(2, 1.0), 0.3, 0.2)
    d = spec.dim
    max_n = max(cfg.n_schedule)
    min_n = d + 2
    if max_n < min_n:
        raise ValueError(f"need max(n_schedule) >= {min_n} for dimension {d}")
    mismatches: list[str] = []
    taus = probes = 0
    gp_instances = gp_violations = 0
    for inst in range(cfg.trials):
        rng = random.Random(_sub_seed(cfg.seed, inst))
        n = rng.randint(min_n, max_n)
        ds = sample(spec, n, _sub_seed(cfg.seed, 10_000 + inst), bits=cfg.precision_bits)
        k_max = int(median_region(ds).lambda_star * ds.n)
        general = _is_general_position(ds)
        if general:
            gp_instances += 1
        # one scope per instance: the candidate table serves every level
        with _level_scope(ds, None):
            for k in range(1, k_max + 1):
                tau = Fraction(k, ds.n)
                taus += 1
                region = depth_region(ds, tau).polytope
                battery: list[tuple[Fraction, ...]] = list(region.vertices)
                battery.extend(ds.points)
                battery.extend(_random_rational_probes(rng, ds, 100))
                battery.extend(_facet_pushes(region))
                for x in battery:
                    probes += 1
                    inside = region.contains(x)
                    deep = depth_count(x, ds) >= k
                    if inside != deep:
                        mismatches.append(
                            f"instance {inst} (n={ds.n}, d={d}) tau={tau}: "
                            f"point {tuple(map(str, x))} region={inside} depth>=k={deep}"
                        )
                if general:
                    for cert in enumerate_irrotatable(ds, tau):
                        if len(cert.boundary_indices) != d or cert.cut_count != k - 1:
                            gp_violations += 1
    return OracleSummary(
        instances=cfg.trials,
        taus_checked=taus,
        probes_checked=probes,
        mismatches=len(mismatches),
        mismatch_examples=tuple(mismatches[:10]),
        gp_instances=gp_instances,
        gp_certificate_violations=gp_violations,
    )


# ---------------------------------------------------------------------------
# attack demonstration


@dataclass(frozen=True)
class AttackDemoRow:
    """One verified contamination plan at one placement scale."""

    scale: int
    m: int
    y0: tuple[Fraction, ...]
    sup_depth_inside: Fraction
    depth_at_y0: Fraction
    escaped: bool
    median_shift_sq: Fraction


@dataclass(frozen=True)
class AttackDemoResult:
    dataset: DataSet
    direction: tuple[Fraction, ...]
    inf_lambda_u: Fraction
    rows: tuple[AttackDemoRow, ...]
    exported: tuple[pathlib.Path, ...]

    @property
    def all_escaped(self) -> bool:
        return all(r.escaped for r in self.rows)


def run_attack_demo(
    cfg: ExperimentConfig,
    ds: DataSet | None = None,
    scales: Sequence[int] = (10**3, 10**4, 10**5),
    m: int | None = None,
) -> AttackDemoResult:
    """Build, verify, and export contamination attacks across a scale schedule.

    Uses the direction realizing the projection upper bound, places
    ``m = ceil(n * inf_lambda_u)`` identical contaminating points (unless
    overridden), and records for each scale the exact supremum of the
    contaminated depth over the clean hull, the contaminated depth at the
    contamination site, the escape verdict, and how far the contaminated
    median barycenter moved.  With ``cfg.out_dir`` set, exports the clean
    median region, the contamination line, and the per-scale trajectory.
    """
    if ds is None:
        if cfg.spec is None:
            raise ValueError("run_attack_demo needs a dataset or a spec")
        ds = _sample_full_dim(
            cfg.spec, max(cfg.n_schedule), _sub_seed(cfg.seed, 999), cfg.precision_bits
        )
    med = median_region(ds)
    ub = upper_bound(ds, lambda_star=med.lambda_star)
    rows: list[AttackDemoRow] = []
    plan0 = None
    for scale in scales:
        plan = build_attack(ds, ub.direction, distance=scale, m=m)
        plan0 = plan0 or plan
        verification = verify_attack(ds, plan)
        shift2 = sum((a - b) ** 2 for a, b in zip(verification.median, med.median))
        rows.append(
            AttackDemoRow(
                scale=scale,
                m=plan.m,
                y0=plan.y0,
                sup_depth_inside=verification.sup_depth_inside,
                depth_at_y0=verification.depth_at_y0,
                escaped=verification.escaped,
                median_shift_sq=shift2,
            )
        )
    exported: tuple[pathlib.Path, ...] = ()
    if cfg.out_dir:
        base = pathlib.Path(cfg.out_dir)
        base.mkdir(parents=True, exist_ok=True)
        region_files = write_region_files(med.region, base, stem=f"{cfg.name}_median")
        attack_csv = write_csv(
            base / f"{cfg.name}_attack.csv",
            [
                "scale",
                "m",
                "y0",
                "sup_depth_inside",
                "depth_at_y0",
                "escaped",
                "median_shift_sq",
            ],
            [
                [
                    r.scale,
                    r.m,
                    r.y0,
                    r.sup_depth_inside,
                    r.depth_at_y0,
                    r.escaped,
                    r.median_shift_sq,
                ]
                for r in rows
            ],
        )
        if plan0 is None:
            raise RuntimeError("attack demo ran no contamination scale")
        line_txt = base / f"{cfg.name}_line.txt"
        with open(line_txt, "w", encoding="utf-8") as fh:
            fh.write("# contamination line: anchor + t * direction\n")
            fh.write("anchor " + " ".join(format_rational(c) for c in plan0.y0) + "\n")
            fh.write("direction " + " ".join(format_rational(c) for c in plan0.u) + "\n")
        exported = tuple(region_files) + (attack_csv, line_txt)
    return AttackDemoResult(
        dataset=ds,
        direction=tuple(ub.direction),
        inf_lambda_u=ub.inf_lambda,
        rows=tuple(rows),
        exported=exported,
    )
