"""halfmed benchmark: exact, checked workloads timed end to end and per layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload depth-batch --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --workload all

Workloads (see ``workloads.py``):

* ``depth-batch``: ``tukey_depth`` queries in 1-D, 2-D at 21 and 53 bits, 3-D;
* ``convergence-2d``: ``median_region`` + bounds, one convergence trial per op;
* ``median-3d``: ``median_region`` in 3-D, general and degenerate data;
* ``attack-2d``: bounds, ``build_attack`` and ``verify_attack`` per dataset.

Load comes from one process and one thread in a closed loop: each op starts
when the previous one returns.  Each workload runs in a child process, which
is killed at a wall limit; ops of a pass it did not finish count as failed.

``--trace 0`` prints the end-to-end metrics: set-up time (the median over
several fresh processes, each importing halfmed and drawing every input),
the wall time of a pass over every op, the median op time, peak RSS, and,
printed only, the medians over the small and the large inputs, the tail
percentile and the failed fraction.  ``--trace 1`` runs the same passes
untraced and then, in a second process, with every public layer function
wrapped (see ``tracer.py``), and prints per-layer calls, self times and
counters per pass.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Every output is checked; at the
default seed the outputs must also match the digests in ``digest.json``.
A record of the run (machine, versions, load, per-op times, spans) is
written to ``.bench_results/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import TRACED  # noqa: E402
from workloads import BUILDERS, DEFAULT_SEED  # noqa: E402

SETUP_PROCESSES = 4  # fresh set-ups besides the timing worker's own
RUN_LIMIT_S = 170.0  # a whole run ends within this
TRACED_SHARE = 0.6  # of the remaining time limit, kept for the traced worker

# The end-to-end metrics of BENCHMARK.json.  The op medians and the tail
# are printed and recorded too, but carry no bound: their cost varies
# several-fold between datasets of one size and the op counts are small, so
# over ten seeds on a shared 2-core machine they spread by 0.1-0.25 of their
# median (op_p50_ms on attack-2d the most).  fail_frac is the result line's
# failed / attempted.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
)
PRINTED = END_TO_END + (
    ("op_p50_ms", "ms"),
    ("small_op_p50_ms", "ms"),
    ("large_op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
)

# The runner only reads the layer table; the timing worker never imports
# the tracer.  distributions.sample runs in set-up and is reported apart.
_LAYER_FUNCS = tuple(
    f"{mod}.{name}" for mod, names in TRACED.items() if mod != "distributions" for name in names
)
_DEPTH_CLASSES = ("1d", "2d_bits21", "2d_bits53", "3d")
# Counts and times are per pass, except distributions.sample, which runs
# once per run in set-up; the p50s and ratios are over all calls of a run.
PER_LAYER = tuple(
    [(f"{f}.calls", "count") for f in _LAYER_FUNCS]
    + [(f"{f}.self_s", "s") for f in _LAYER_FUNCS]
    + [(f"depth.tukey_depth.p50_ms.{c}", "ms") for c in _DEPTH_CLASSES]
    + [
        ("regions.cut_rounds", "count"),
        ("regions.enumerate_irrotatable.certificates", "count"),
        ("regions.depth_region.empty_frac", "ratio"),
        ("polytope.intersect_halfspaces.halfspaces_in", "count"),
        ("polytope.intersect_halfspaces.vertices_out", "count"),
        ("breakdown.region_builds", "count"),
        ("distributions.sample.calls", "count"),
        ("distributions.sample.self_s", "s"),
        ("trace.overhead_frac", "ratio"),
        ("trace.untraced_frac", "ratio"),
    ]
)


# ---------------------------------------------------------------------------
# run record


def loadavg() -> list[float]:
    try:
        return [float(x) for x in pathlib.Path("/proc/loadavg").read_text().split()[:3]]
    except OSError:
        return []


def cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def calibration_ms() -> float:
    """Time of a fixed pure-Python loop: shows how fast the machine runs now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i % 7
    return (time.perf_counter() - t0) * 1e3


def git_state() -> tuple[str, bool | None]:
    if not (ROOT / ".git").exists():
        return "unknown", None
    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=20, check=True,
        ).stdout.strip()
        dirty = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            capture_output=True, text=True, timeout=20, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown", None
    return sha, bool(dirty)


# ---------------------------------------------------------------------------
# workers


def worker_env() -> dict:
    env = dict(os.environ)
    env.update(
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONHASHSEED="0",
    )
    return env


def run_worker(args, mode: str, limit_s: float, record: dict) -> dict:
    """Run one worker to completion or to its wall limit; parse its events."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    load_before, calib_before = loadavg(), calibration_ms()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True,
    )
    killed = False
    try:
        out, err = proc.communicate(timeout=max(limit_s, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        killed = True
    events: dict = {"setup": None, "pass": [], "done": None}
    for line in out.splitlines():
        try:
            ev = json.loads(line)
        except json.JSONDecodeError:
            continue
        if ev.get("event") == "pass":
            events["pass"].append(ev)
        elif ev.get("event") in ("setup", "done"):
            events[ev["event"]] = ev
    events.update(killed=killed, returncode=proc.returncode, stderr=err[-4000:])
    record.setdefault("workers", []).append(
        {
            "mode": mode,
            "limit_s": limit_s,
            "killed": killed,
            "returncode": proc.returncode,
            "loadavg_before": load_before,
            "loadavg_after": loadavg(),
            "calibration_ms_before": calib_before,
            "calibration_ms_after": calibration_ms(),
        }
    )
    return events


def require_setup(events: dict, mode: str) -> None:
    if events["setup"] is None:
        sys.stderr.write(f"{mode} worker failed during set-up:\n{events['stderr']}\n")
        sys.exit(3)


def tally(events: dict, reference: list[str] | None) -> tuple[int, int, list[str]]:
    """Ops attempted and failed by one worker, and the first problems seen."""
    n_ops = len(events["setup"]["kinds"])
    attempted = failed = 0
    notes: list[str] = []
    if reference is not None and len(reference) != n_ops:
        notes.append(f"digest.json holds {len(reference)} digests for {n_ops} ops")
        reference = [""] * n_ops
    first_digests = None
    for ev in events["pass"]:
        attempted += n_ops
        if first_digests is None:
            first_digests = ev["digests"]
        for i, (problems, digest) in enumerate(zip(ev["problems"], ev["digests"])):
            problems = list(problems)
            if digest != first_digests[i]:
                problems.append("output differs between passes")
            if reference is not None and digest != reference[i]:
                problems.append("output differs from digest.json")
            if problems:
                failed += 1
                if len(notes) < 5:
                    notes.append(f"op {i} ({events['setup']['kinds'][i]}): {problems[0]}")
    if events["killed"] or events["done"] is None:
        # the pass in progress never finished: all its ops count as failed
        attempted += n_ops
        failed += n_ops
        why = "wall limit" if events["killed"] else f"exit {events['returncode']}"
        notes.append(f"worker stopped by {why}; {n_ops} unfinished ops failed")
    return attempted, failed, notes


def tail_percentile(n_ops: int) -> float:
    """Highest percentile with at least ten of ``n_ops`` ops beyond it."""
    return math.floor(1000 * (1 - 10 / n_ops)) / 10 if n_ops > 10 else 0.0


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def load_reference(workload: str, seed: int) -> list[str] | None:
    """Recorded output digests, checked at the default seed only."""
    if seed != DEFAULT_SEED:
        return None
    path = HERE / "digest.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    return digests.get(workload, [])


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(args, record: dict, deadline: float) -> tuple[dict, int, int, list[str]]:
    setups = []
    for _ in range(SETUP_PROCESSES):
        ev = run_worker(args, "setup", min(60.0, deadline - time.monotonic()), record)
        require_setup(ev, "setup")
        setups.append(ev["setup"]["setup_s"])
    limit = min(3 * args.seconds + 30, deadline - time.monotonic())
    events = run_worker(args, "time", limit, record)
    require_setup(events, "timing")
    setups.append(events["setup"]["setup_s"])
    reference = None if args.record_digest else load_reference(args.workload, args.seed)
    attempted, failed, notes = tally(events, reference)
    if args.record_digest:
        save_digest(args, events)

    kinds, sizes = events["setup"]["kinds"], events["setup"]["sizes"]
    times = [t for ev in events["pass"] for t in ev["times_s"]]
    by_size = {"small": [], "large": []}
    for ev in events["pass"]:
        for t, size in zip(ev["times_s"], sizes):
            by_size.get(size, []).append(t)
    n_ops = len(kinds)
    p_tail = tail_percentile(n_ops)
    if events["done"]:
        peak_kb = events["done"]["peak_rss_kb"]
    else:  # killed: the largest child this runner has waited for
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {}
    if times:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(ev["wall_s"] for ev in events["pass"]),
            "op_p50_ms": statistics.median(times) * 1e3,
            "small_op_p50_ms": statistics.median(by_size["small"]) * 1e3,
            "large_op_p50_ms": statistics.median(by_size["large"]) * 1e3,
            "op_tail_ms": percentile(times, p_tail) * 1e3,
            "peak_rss_mb": peak_kb / 1024,
        }
    record.update(
        setups_s=setups,
        passes=len(events["pass"]),
        ops_per_pass=n_ops,
        op_tail_percentile=p_tail,
        versions=versions(events),
        op_kinds=kinds,
        op_times_s=[ev["times_s"] for ev in events["pass"]],
        problems=notes,
    )
    print(f"workload {args.workload}  seed {args.seed}  passes {len(events['pass'])}"
          f"  ops/pass {n_ops}")
    for name, unit in PRINTED:
        if name in metrics:
            extra = ""
            if name == "op_tail_ms":
                extra = f"  (p{p_tail:g} of {len(times)} ops)"
            elif name == "setup_s":
                extra = f"  (median of {len(setups)} set-ups)"
            print(f"  {name:<18} {metrics[name]:.6g} {unit}{extra}")
    print_fail_frac(attempted, failed)
    return metrics, attempted, failed, notes


def print_fail_frac(attempted: int, failed: int) -> None:
    print(f"  {'fail_frac':<18} {failed / max(attempted, 1):.6g}  ({failed} of {attempted} ops)")


def per_layer(args, record: dict, deadline: float) -> tuple[dict, int, int, list[str]]:
    remaining = deadline - time.monotonic()
    plain = run_worker(args, "time", (1 - TRACED_SHARE) * remaining, record)
    require_setup(plain, "timing")
    traced = run_worker(args, "trace", deadline - time.monotonic(), record)
    require_setup(traced, "traced")
    reference = load_reference(args.workload, args.seed)
    attempted, failed, notes = tally(plain, reference)
    a2, f2, n2 = tally(traced, reference)
    attempted, failed, notes = attempted + a2, failed + f2, notes + n2
    if not plain["pass"] or not traced["pass"] or traced["done"] is None:
        return {}, attempted, failed, notes

    passes = len(traced["pass"])
    snap = traced["done"]["trace"]
    stats = snap["stats"]
    edges = {(site, label): n for site, label, n in snap["edges"]}
    counts = snap["counts"]

    def per_pass(x: float) -> float:
        return x / passes

    def calls(label: str) -> int:
        return stats.get(label, {}).get("calls", 0)

    metrics: dict[str, float] = {}
    for f in _LAYER_FUNCS:
        metrics[f"{f}.calls"] = per_pass(calls(f))
    for f in _LAYER_FUNCS:
        metrics[f"{f}.self_s"] = per_pass(stats.get(f, {}).get("self_s", 0.0))
    for c in _DEPTH_CLASSES:
        metrics[f"depth.tukey_depth.p50_ms.{c}"] = snap["depth_p50_ms"].get(c, 0.0)
    builds = calls("regions.median_region") + calls("regions.depth_region")
    cuts = edges.get(("regions", "polytope.intersect_halfspaces"), 0)
    metrics["regions.cut_rounds"] = cuts / builds if builds else 0.0
    metrics["regions.enumerate_irrotatable.certificates"] = per_pass(
        counts.get("regions.enumerate_irrotatable.certificates", 0)
    )
    n_regions = calls("regions.depth_region")
    metrics["regions.depth_region.empty_frac"] = (
        counts.get("regions.depth_region.empty", 0) / n_regions if n_regions else 0.0
    )
    for key in ("halfspaces_in", "vertices_out"):
        label = f"polytope.intersect_halfspaces.{key}"
        metrics[label] = per_pass(counts.get(label, 0))
    metrics["breakdown.region_builds"] = per_pass(
        edges.get(("breakdown", "regions.depth_region"), 0)
        + edges.get(("breakdown", "regions.median_region"), 0)
    )
    sample = traced["setup"]["trace"]["stats"].get("distributions.sample", {})
    metrics["distributions.sample.calls"] = sample.get("calls", 0)
    metrics["distributions.sample.self_s"] = sample.get("self_s", 0.0)

    plain_wall = statistics.median(ev["wall_s"] for ev in plain["pass"])
    traced_wall = statistics.median(ev["wall_s"] for ev in traced["pass"])
    traced_total = sum(ev["wall_s"] for ev in traced["pass"])
    self_total = sum(s["self_s"] for s in stats.values())
    metrics["trace.overhead_frac"] = traced_wall / plain_wall - 1
    metrics["trace.untraced_frac"] = 1 - snap["top_s"] / traced_total

    # Self times partition the time inside outermost spans; the rest of the
    # traced wall time is the untraced remainder.
    remainder = traced_total - snap["top_s"]
    if abs(self_total + remainder - traced_total) > 1e-6 * traced_total or remainder < 0:
        failed += 1
        notes.append(
            f"layer self times {self_total:.6f} s + remainder {remainder:.6f} s"
            f" != traced wall {traced_total:.6f} s"
        )
    if snap["missing"]:
        notes.append(f"functions not found, not traced: {snap['missing']}")

    record.update(
        passes=passes,
        untraced_wall_s=plain_wall,
        traced_wall_s=traced_wall,
        versions=versions(traced),
        spans=snap,
        setup_spans=traced["setup"]["trace"],
        problems=notes,
    )
    print(f"workload {args.workload}  seed {args.seed}  traced passes {passes}"
          f"  untraced wall {plain_wall:.6g} s  traced wall {traced_wall:.6g} s")
    for name, unit in PER_LAYER:
        print(f"  {name:<48} {metrics[name]:.6g} {unit}")
    # a layer's outermost spans hold its self time and its wrapped callees'
    for layer, secs in sorted(snap["layer_s"].items()):
        print(f"  {layer} spans, self time plus wrapped children: {secs / passes:.6g} s"
              f" = {secs / traced_total:.1%} of the traced wall time")
    print_fail_frac(attempted, failed)
    return metrics, attempted, failed, notes


def versions(events: dict) -> dict:
    done = events["done"] or {}
    return {"python": done.get("python"), "numpy": done.get("numpy")}


def save_digest(args, events: dict) -> None:
    if args.seed != DEFAULT_SEED:
        raise SystemExit("--record-digest needs the default seed")
    path = HERE / "digest.json"
    digests = json.loads(path.read_text()) if path.exists() else {}
    digests[args.workload] = events["pass"][0]["digests"]
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")


def run_one(args) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    sha, dirty = git_state()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "runner_python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }
    if args.trace:
        metrics, attempted, failed, notes = per_layer(args, record, deadline)
        table = PER_LAYER
    else:
        metrics, attempted, failed, notes = end_to_end(args, record, deadline)
        table = END_TO_END
    for note in notes:
        print(f"  problem: {note}")
    record["metrics"] = metrics
    out_dir = ROOT / ".bench_results"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, indent=1) + "\n")
    print("record " + json.dumps({k: record[k] for k in (
        "nproc", "cpu", "runner_python", "git_sha", "git_dirty")}
        | {"versions": record.get("versions"),
           "loadavg": [(w["loadavg_before"], w["loadavg_after"]) for w in record["workers"]],
           "calibration_ms": [round(w["calibration_ms_before"], 2) for w in record["workers"]]}))
    complete = all(name in metrics for name, _ in table)
    return {
        "correct": failed == 0 and complete,
        "attempted": max(attempted, 1),
        "failed": failed if complete else max(failed, 1),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in table if name in metrics},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS) + ["all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true",
                    help="write this run's output digests to digest.json")
    args = ap.parse_args()

    if not (ROOT / "src" / "halfmed" / "__init__.py").is_file():
        sys.stderr.write(f"no halfmed sources under {ROOT / 'src'}; nothing to run\n")
        return 2

    if args.workload != "all":
        print(json.dumps(run_one(args)))
        return 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in BUILDERS:
        res = run_one(argparse.Namespace(**{**vars(args), "workload": name}))
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        for key, value in res["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
        print(json.dumps(res))
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
