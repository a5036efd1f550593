"""Command-line interface.

Subcommands::

    halfmed depth        exact depth of a query point in a dataset
    halfmed region       depth region polytope at a level tau
    halfmed median       maximal-depth region and its barycenter
    halfmed bounds       breakdown-robustness bounds (lower / upper)
    halfmed attack       build + verify worst-case contamination plans
    halfmed breakdown    exhaustive exact breakdown search (small n)
    halfmed convergence  sampling experiment: bounds vs. sample size
    halfmed probe        symmetry / smoothness / continuity probes
    halfmed sample       draw a dataset from a spec file

Datasets come from ``--data FILE`` (one point per line, rational or decimal
coordinates, ``#`` comments) or are sampled with ``--spec FILE --n SIZE``
from a plain-text distribution spec.  Exit codes: 0 success, 2 precondition
or probe refusal, 3 budget abort.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .geometry import DataSet, as_fraction, format_rational, read_dataset, write_dataset
from .depth import tukey_depth
from .regions import depth_region, enumerate_irrotatable, median_region
from .breakdown import (
    DirectionSearchConfig,
    build_attack,
    exact_breakdown,
    lower_bound,
    upper_bound,
    verify_attack,
)
from .distributions import (
    depth_continuity_probe,
    halfspace_symmetry_probe,
    parse_spec_file,
    sample,
    smoothness_probe,
)
from .experiments import (
    ExperimentConfig,
    PreflightError,
    run_attack_demo,
    run_convergence,
)
from .polytope import write_region_files

EXIT_OK = 0
EXIT_REFUSED = 2
EXIT_BUDGET = 3


def _fmt(x) -> str:
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, tuple):
        return "(" + ", ".join(_fmt(c) for c in x) + ")"
    return str(x)


def _parse_point(text: str):
    return tuple(as_fraction(tok) for tok in text.replace(",", " ").split())


def _add_input_flags(p: argparse.ArgumentParser, need_data: bool = False) -> None:
    p.add_argument("--data", metavar="FILE", help="dataset file (one point per line)")
    if not need_data:
        p.add_argument("--spec", metavar="FILE", help="distribution spec file to sample from")
        p.add_argument("--n", type=int, default=20, help="sample size when using --spec")
    p.add_argument("--seed", type=int, default=None, help="sampling seed")
    p.add_argument(
        "--precision",
        type=int,
        default=None,
        metavar="BITS",
        help="rational snap precision for sampled data (default 53)",
    )


def _load_dataset(args) -> DataSet:
    if args.data:
        return read_dataset(args.data)
    spec_path = getattr(args, "spec", None)
    if spec_path:
        spec, opts = parse_spec_file(spec_path)
        seed = args.seed if args.seed is not None else int(opts.get("seed", 0))
        bits = (
            args.precision
            if args.precision is not None
            else int(opts.get("precision", 53))
        )
        return sample(spec, args.n, seed=seed, bits=bits)
    raise ValueError("provide --data FILE or --spec FILE")


def _load_spec(args):
    if not args.spec:
        raise ValueError("this command requires --spec FILE")
    spec, opts = parse_spec_file(args.spec)
    seed = args.seed if args.seed is not None else int(opts.get("seed", 0))
    return spec, opts, seed


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_depth(args) -> int:
    ds = _load_dataset(args)
    x = _parse_point(args.point)
    res = tukey_depth(x, ds)
    print(f"depth    {format_rational(res.value)}  ({res.count} of {res.n} points)")
    print(f"witness  {_fmt(res.witness)}  (closed halfspace attaining the minimum)")
    print(f"boundary {res.boundary_count} points on the witness hyperplane")
    return EXIT_OK


def _cmd_region(args) -> int:
    ds = _load_dataset(args)
    tau = as_fraction(args.tau)
    # enumerated first: flat data refuse before anything is printed
    certs = enumerate_irrotatable(ds, tau) if args.certificates else None
    result = depth_region(ds, tau)
    poly = result.polytope
    k = result.required
    print(f"tau      {format_rational(tau)}  (requires >= {k} of {ds.n} points)")
    if poly.empty:
        print("region   empty (tau above the maximal depth)")
    else:
        print(f"region   {len(poly.vertices)} vertices, {len(poly.halfspaces)} halfspaces")
        for v in poly.vertices:
            print("  vertex " + _fmt(v))
    if certs is not None:
        print(f"certificates ({len(certs)}):")
        for cert in certs:
            print(
                f"  normal {_fmt(cert.halfspace.normal)} offset "
                f"{format_rational(cert.halfspace.offset)} boundary "
                f"{list(cert.boundary_indices)} cut {cert.cut_count}"
            )
    if args.out:
        paths = write_region_files(poly, args.out, stem=args.stem)
        for p in paths:
            print(f"wrote    {p}")
    return EXIT_OK


def _cmd_median(args) -> int:
    ds = _load_dataset(args)
    res = median_region(ds)
    print(f"lambda*  {format_rational(res.lambda_star)}  (maximal depth)")
    print(f"median   {_fmt(res.median)}  (barycenter average)")
    print(f"region   {len(res.region.vertices)} vertices")
    for v in res.region.vertices:
        print("  vertex " + _fmt(v))
    if args.out:
        paths = write_region_files(res.region, args.out, stem=args.stem)
        for p in paths:
            print(f"wrote    {p}")
    return EXIT_OK


def _cmd_bounds(args) -> int:
    ds = _load_dataset(args)
    cfg = DirectionSearchConfig(
        probes=args.probes,
        seed=args.seed if args.seed is not None else 0,
        exhaustive=args.exhaustive,
    )
    lo = lower_bound(ds)
    ub = upper_bound(ds, cfg, lo / (1 - lo))
    print(f"lower        {format_rational(lo)}  (= lambda*/(1+lambda*))")
    print(f"upper        {format_rational(ub.bound)}  (exact: {ub.exact})")
    print(f"inf lambda_u {format_rational(ub.inf_lambda)}  at direction {_fmt(ub.direction)}")
    if lo == ub.bound:
        print(f"pinched      breakdown point is exactly {format_rational(lo)}")
    return EXIT_OK


def _cmd_attack(args) -> int:
    ds = _load_dataset(args)
    scales = [int(s) for s in args.scales.split(",")] if args.scales else [10**3, 10**4, 10**5]
    if args.direction:
        u = _parse_point(args.direction)
        all_escaped = True
        for scale in scales:
            plan = build_attack(ds, u, distance=scale, m=args.m)
            ver = verify_attack(ds, plan)
            all_escaped &= ver.escaped
            print(
                f"scale {scale:>8}: m={plan.m} y0={_fmt(plan.y0)} "
                f"sup_inside={format_rational(ver.sup_depth_inside)} "
                f"depth(y0)={format_rational(ver.depth_at_y0)} escaped={ver.escaped}"
            )
        print("escaped at every scale" if all_escaped else "NO ESCAPE at some scale")
        return EXIT_OK
    cfg = ExperimentConfig(
        name=args.name,
        n_schedule=(ds.n,),
        trials=1,
        seed=args.seed if args.seed is not None else 0,
        out_dir=args.out,
    )
    demo = run_attack_demo(cfg, ds=ds, scales=scales, m=args.m)
    print(f"direction    {_fmt(demo.direction)}  inf lambda_u {format_rational(demo.inf_lambda_u)}")
    for r in demo.rows:
        print(
            f"scale {r.scale:>8}: m={r.m} y0={_fmt(r.y0)} "
            f"sup_inside={format_rational(r.sup_depth_inside)} escaped={r.escaped}"
        )
    for p in demo.exported:
        print(f"wrote    {p}")
    print("escaped at every scale" if demo.all_escaped else "NO ESCAPE at some scale")
    return EXIT_OK


def _cmd_breakdown(args) -> int:
    ds = _load_dataset(args)
    report = exact_breakdown(ds, m_max=args.m_max)
    print(f"n={report.n} d={report.dim}")
    print(f"lower    {format_rational(report.lower)}")
    print(f"upper    {format_rational(report.upper)}")
    if report.exact_m is None:
        print("exact m  not found within the search family")
    else:
        print(f"exact m  {report.exact_m}  (ratio {format_rational(report.exact_ratio)})")
    return EXIT_OK


def _cmd_convergence(args) -> int:
    spec, opts, seed = _load_spec(args)
    schedule = tuple(int(tok) for tok in args.schedule.split(","))
    bits = (
        args.precision
        if args.precision is not None
        else int(opts.get("precision", 21))
    )
    cfg = ExperimentConfig(
        name=args.name,
        spec=spec,
        n_schedule=schedule,
        trials=args.trials,
        seed=seed,
        out_dir=args.out,
        budget_s=args.budget,
        precision_bits=bits,
    )
    res = run_convergence(cfg)
    print("n, median lambda*, median lower, median upper, |median bound - 1/3|")
    for n, m in sorted(res.medians.items()):
        print(
            f"{n:>6}  {format_rational(m['lambda_star'])}  {format_rational(m['lower'])}"
            f"  {format_rational(m['upper'])}  {format_rational(m['deviation'])}"
            f"  (~{float(m['deviation']):.4f})"
        )
    for p in res.csv_paths:
        print(f"wrote    {p}")
    if res.aborted:
        print("budget abort: at least one trial exceeded the wall limit", file=sys.stderr)
        return EXIT_BUDGET
    return EXIT_OK


def _cmd_probe(args) -> int:
    spec, opts, seed = _load_spec(args)
    theta = _parse_point(args.theta) if args.theta else tuple([0] * spec.dim)
    if args.kind == "symmetry":
        report = halfspace_symmetry_probe(spec, theta, N=args.N, seed=seed)
    elif args.kind == "smoothness":
        report = smoothness_probe(spec, theta, N=args.N, seed=seed)
    else:
        direction = (
            _parse_point(args.direction)
            if args.direction
            else tuple([1] + [0] * (spec.dim - 1))
        )
        report = depth_continuity_probe(
            spec, theta, direction, N=min(args.N, 50_000), seed=seed
        )
    print(report)
    for key, val in report.details.items():
        print(f"  {key}: {val}")
    ran_clean = report.verdict not in ("FAIL", "INCONCLUSIVE")
    return EXIT_OK if ran_clean else EXIT_REFUSED


def _cmd_sample(args) -> int:
    spec, opts, seed = _load_spec(args)
    bits = (
        args.precision
        if args.precision is not None
        else int(opts.get("precision", 53))
    )
    ds = sample(spec, args.n, seed=seed, bits=bits)
    if args.out_file:
        write_dataset(ds, args.out_file)
        print(f"wrote    {args.out_file}  ({ds.n} points, d={ds.dim})")
    else:
        for p in ds.points:
            print(" ".join(format_rational(c) for c in p))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="halfmed",
        description="Exact halfspace depth, depth regions, medians, and robustness bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("depth", help="exact depth of a query point")
    _add_input_flags(p)
    p.add_argument("--point", required=True, help="query point, e.g. '1 1' or '1/2,3/4'")
    p.set_defaults(func=_cmd_depth)

    p = sub.add_parser("region", help="depth region polytope at a level tau")
    _add_input_flags(p)
    p.add_argument("--tau", required=True, help="depth level, e.g. '1/4' or '0.25'")
    p.add_argument("--certificates", action="store_true", help="print the certificate list")
    p.add_argument("--out", metavar="DIR", help="write region geometry files here")
    p.add_argument("--stem", default="region", help="filename stem for --out")
    p.set_defaults(func=_cmd_region)

    p = sub.add_parser("median", help="maximal-depth region and its barycenter")
    _add_input_flags(p)
    p.add_argument("--out", metavar="DIR", help="write region geometry files here")
    p.add_argument("--stem", default="median", help="filename stem for --out")
    p.set_defaults(func=_cmd_median)

    p = sub.add_parser("bounds", help="breakdown-robustness bounds")
    _add_input_flags(p)
    p.add_argument("--probes", type=int, default=32, help="random probe directions")
    exh = p.add_mutually_exclusive_group()
    exh.add_argument(
        "--exhaustive", dest="exhaustive", action="store_true", default=True,
        help="run the exact d=2 direction sweep unless a probe reaches the pinch floor (default)",
    )
    exh.add_argument(
        "--no-exhaustive", dest="exhaustive", action="store_false",
        help="skip the exact sweep (probed upper bound only)",
    )
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("attack", help="build and verify contamination plans")
    _add_input_flags(p)
    p.add_argument("--direction", help="contamination direction (default: bound minimizer)")
    p.add_argument("--m", type=int, default=None, help="override the contamination count")
    p.add_argument("--scales", help="comma-separated placement scales (default 1e3,1e4,1e5)")
    p.add_argument("--out", metavar="DIR", help="export geometry and CSV here")
    p.add_argument("--name", default="attack", help="output filename prefix")
    p.set_defaults(func=_cmd_attack)

    p = sub.add_parser("breakdown", help="exhaustive exact breakdown search (small n)")
    _add_input_flags(p)
    p.add_argument("--m-max", type=int, default=None, help="largest m to try (default n)")
    p.set_defaults(func=_cmd_breakdown)

    p = sub.add_parser("convergence", help="bounds vs. sample size experiment")
    p.add_argument("--spec", required=True, metavar="FILE", help="distribution spec file")
    p.add_argument("--name", default="convergence", help="output filename prefix")
    p.add_argument("--schedule", default="50,200,800,1600", help="comma-separated sizes")
    p.add_argument("--trials", type=int, default=20, help="trials per size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precision", type=int, default=None, metavar="BITS")
    p.add_argument("--budget", type=float, default=60.0, help="per-trial wall limit (s)")
    p.add_argument("--out", metavar="DIR", help="write CSV tables here")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser("probe", help="sampling-assumption probes")
    p.add_argument("--spec", required=True, metavar="FILE", help="distribution spec file")
    p.add_argument(
        "--kind",
        choices=("symmetry", "smoothness", "continuity"),
        required=True,
        help="which assumption to probe",
    )
    p.add_argument("--theta", help="center point (default origin)")
    p.add_argument("--direction", help="approach direction for the continuity probe")
    p.add_argument("--N", type=int, default=100_000, help="Monte Carlo sample size")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_probe)

    p = sub.add_parser("sample", help="draw a dataset from a spec file")
    p.add_argument("--spec", required=True, metavar="FILE")
    p.add_argument("--n", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--precision", type=int, default=None, metavar="BITS")
    p.add_argument("--out-file", metavar="FILE", help="write the dataset here")
    p.set_defaults(func=_cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreflightError as exc:
        print(f"refused: {exc.report}", file=sys.stderr)
        return EXIT_REFUSED
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
