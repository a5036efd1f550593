"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload convergence-2d --seeds 1-10
    python3 bench/spread.py --workload all --seeds 1-10 --out bench/baseline.json

For each metric it prints the median over the runs and the spread: the
distance between the first and third quartiles (``statistics.quantiles``
with n=4) as a share of the median.  Metrics that the result line carries
(those of BENCHMARK.json) are gated; the others are printed only.  ``--out``
merges medians and spreads into a JSON file keyed by workload.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import BUILDERS  # noqa: E402

WORKLOADS = tuple(BUILDERS)


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict, float]:
    """One benchmark run: its result line, its record and its duration."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    elapsed = time.monotonic() - t0
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.stderr.write(out.stdout)
    record_path = ROOT / ".bench_results" / f"{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record_path.read_text()), elapsed


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else 0.0


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=pathlib.Path)
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)

    summary: dict = {}
    for workload in workloads:
        values: dict[str, list[float]] = {}
        gated: set[str] = set()
        elapsed, failed, machine = [], 0, {}
        for seed in seeds:
            result, record, secs = run(workload, seed, args.seconds, args.trace)
            elapsed.append(secs)
            failed += result["failed"]
            if not args.trace:  # per-layer metrics carry no bound
                gated.update(result["metrics"])
            for name, value in record["metrics"].items():
                values.setdefault(name, []).append(value)
            machine = {k: record[k] for k in ("nproc", "cpu", "versions", "git_sha", "git_dirty")}
            print(f"{workload} seed {seed}: {secs:.1f} s, correct={result['correct']}",
                  flush=True)
        print(f"{workload}: {len(seeds)} runs, failed ops {failed}, "
              f"run time median {statistics.median(elapsed):.1f} s, max {max(elapsed):.1f} s")
        rows = {}
        for name, vals in values.items():
            med = statistics.median(vals)
            sp = spread(vals) if len(vals) >= 2 else 0.0
            rows[name] = {"median": med, "spread": sp, "gated": name in gated}
            mark = "" if name in gated or args.trace else "  (printed only)"
            print(f"  {name:<48} median {med:<12.6g} spread {sp:.3f}{mark}")
        summary[workload] = {
            "seeds": seeds,
            "trace": args.trace,
            "run_s_median": statistics.median(elapsed),
            "machine": machine,
            "metrics": rows,
        }

    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        for workload, entry in summary.items():
            key = "per_layer" if args.trace else "end_to_end"
            data.setdefault(workload, {})[key] = entry
        args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
