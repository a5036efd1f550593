"""One benchmark process: set up one workload, run timed passes, report.

Started by ``run.py``; prints one JSON object per line on stdout:

* ``setup``: set-up time (import halfmed, draw and snap every input) and the
  kind and size class of every op;
* ``pass``: per-op times, check problems and output digests of one pass;
* ``done``: peak RSS, library versions and, when traced, the span totals.

Modes: ``setup`` stops after set-up, ``time`` runs untraced passes, and
``trace`` runs passes with the tracer installed.  Only ``trace`` imports the
tracer.
"""

import sys
import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent


def emit(event: str, **fields) -> None:
    print(json.dumps(dict(event=event, **fields)), flush=True)


def import_halfmed():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import halfmed

    where = pathlib.Path(halfmed.__file__).resolve()
    if src.resolve() not in where.parents:
        raise SystemExit(f"halfmed was imported from {where}, not from {src}")
    return halfmed


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "time", "trace"), required=True)
    args = ap.parse_args()

    H = import_halfmed()
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()  # set-up spans record distributions.sample
    import workloads

    wl = workloads.build(H, args.workload, args.seed)
    setup_s = time.perf_counter() - _T0
    setup_trace = None
    if tracer is not None:
        tracer.uninstall()
        setup_trace = tracer.snapshot()
        tracer.reset()
    emit(
        "setup",
        setup_s=setup_s,
        kinds=[op.kind for op in wl.ops],
        sizes=[op.size for op in wl.ops],
        trace=setup_trace,
    )
    if args.mode == "setup":
        return

    # Another pass starts only if it is expected to end within --seconds.
    start = time.perf_counter()
    last = 0.0
    passes = 0
    while passes == 0 or time.perf_counter() - start + last <= args.seconds:
        t0 = time.perf_counter()
        if tracer is not None:
            with tracer:
                result = workloads.time_pass(H, wl)
        else:
            result = workloads.time_pass(H, wl)
        problems, digests = workloads.check_pass(H, wl, result)
        emit(
            "pass",
            wall_s=result.wall_s,
            times_s=result.times_s,
            problems=problems,
            digests=digests,
        )
        passes += 1
        last = time.perf_counter() - t0

    import numpy

    emit(
        "done",
        peak_rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        python=platform.python_version(),
        numpy=numpy.__version__,
        trace=tracer.snapshot() if tracer is not None else None,
    )


if __name__ == "__main__":
    main()
