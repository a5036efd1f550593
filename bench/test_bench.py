"""Tests of the benchmark itself: tracer accounting, checks and run control.

Run from the root of the repository::

    python -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import json
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import halfmed  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import TRACED, Tracer  # noqa: E402


def _sites():
    mods = [halfmed] + [importlib.import_module(f"halfmed.{m}") for m in TRACED]
    return {(m.__name__, name): getattr(m, name) for m in mods for name in vars(m)}


def test_self_time_of_nested_spans():
    tr = Tracer(traced={})
    inner = tr._wrap("m.inner", "m", lambda: time.sleep(0.02))

    def body():
        time.sleep(0.01)
        inner()
        inner()

    outer = tr._wrap("m.outer", "m", body)
    outer()
    s_in, s_out = tr.stats["m.inner"], tr.stats["m.outer"]
    assert s_in.calls == 2 and s_out.calls == 1
    assert s_in.self_s == s_in.total_s >= 0.04
    assert abs(s_out.self_s - (s_out.total_s - s_in.total_s)) < 1e-9
    assert 0.01 <= s_out.self_s < 0.03
    assert abs(tr.top_s - s_out.total_s) < 1e-12
    assert abs(s_in.self_s + s_out.self_s - tr.top_s) < 1e-9


def test_nested_library_spans_partition_the_call():
    ds = halfmed.dataset(
        [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4), (1, 1, 1), (4, 4, 4), (2, 1, 3)]
    )
    with Tracer() as tr:
        halfmed.median_region(ds)
    med = tr.stats["regions.median_region"]
    # 3-D medians build their levels through depth_region, wrapped in the module
    assert tr.stats["regions.depth_region"].calls >= 1
    assert tr.edges["regions", "regions.depth_region"] >= 1
    assert med.calls == 1 and med.self_s < med.total_s
    assert abs(tr.top_s - med.total_s) < 1e-12
    assert abs(sum(s.self_s for s in tr.stats.values()) - tr.top_s) < 1e-9
    # the regions layer's outermost span is the median call, children included
    assert tr.layer_s["regions"] == med.total_s
    assert 0 < tr.layer_s["polytope"] < med.total_s


def test_wrappers_are_restored():
    before = _sites()
    try:
        with Tracer():
            wrapped = _sites()
            assert hasattr(halfmed.regions.witness_cut, "__wrapped_label__")
            assert hasattr(halfmed.breakdown.depth_region, "__wrapped_label__")
            assert hasattr(halfmed.tukey_depth, "__wrapped_label__")
            raise KeyError("leave the block by an exception")
    except KeyError:
        pass
    after = _sites()
    assert wrapped != before
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _depth_ops(seed: int = workloads.DEFAULT_SEED, count: int = 8):
    wl = workloads.build(halfmed, "depth-batch", seed)
    return dataclasses.replace(wl, ops=wl.ops[:count])


def _events(wl, problems, digests, killed=False):
    return {
        "setup": {"kinds": [op.kind for op in wl.ops]},
        "pass": [{"problems": problems, "digests": digests}],
        "killed": killed,
        "done": None if killed else {},
        "returncode": -9 if killed else 0,
    }


def test_checks_pass_on_correct_outputs():
    wl = _depth_ops()
    problems, digests = workloads.check_pass(halfmed, wl, workloads.time_pass(halfmed, wl))
    assert problems == [[] for _ in wl.ops]
    attempted, failed, _ = run.tally(_events(wl, problems, digests), digests)
    assert (attempted, failed) == (len(wl.ops), 0)


def test_injected_wrong_result_raises_fail_frac(monkeypatch):
    wl = _depth_ops()
    good = workloads.check_pass(halfmed, wl, workloads.time_pass(halfmed, wl))[1]
    real = halfmed.tukey_depth

    def off_by_one(x, ds):
        res = real(x, ds)
        count = res.count + 1
        return dataclasses.replace(res, count=count, value=halfmed.as_fraction(count) / ds.n)

    monkeypatch.setattr(halfmed, "tukey_depth", off_by_one)
    result = workloads.time_pass(halfmed, wl)
    problems, digests = workloads.check_pass(halfmed, wl, result)
    assert all(any("recount" in p for p in found) for found in problems)
    attempted, failed, notes = run.tally(_events(wl, problems, digests), good)
    assert failed == attempted == len(wl.ops)
    assert notes


def test_digest_mismatch_and_unfinished_pass_count_as_failed():
    wl = _depth_ops()
    problems, digests = workloads.check_pass(halfmed, wl, workloads.time_pass(halfmed, wl))
    wrong = ["0" * 12] + digests[1:]
    assert run.tally(_events(wl, problems, digests), wrong)[1] == 1
    attempted, failed, _ = run.tally(_events(wl, problems, digests, killed=True), digests)
    assert (attempted, failed) == (2 * len(wl.ops), len(wl.ops))


def test_other_seed_changes_inputs_not_op_count():
    for name in workloads.BUILDERS:
        a = workloads.build(halfmed, name, 1)
        b = workloads.build(halfmed, name, 2)
        assert [(op.kind, op.size) for op in a.ops] == [(op.kind, op.size) for op in b.ops]
        assert [ds.n for ds in a.datasets] == [ds.n for ds in b.datasets]
        assert all(x.points != y.points for x, y in zip(a.datasets, b.datasets))
        again = workloads.build(halfmed, name, 1)
        assert [ds.points for ds in again.datasets] == [ds.points for ds in a.datasets]


def test_wall_limit_kills_the_worker(tmp_path):
    args = argparse.Namespace(workload="median-3d", seed=0, seconds=1.0)
    record: dict = {}
    events = run.run_worker(args, "time", 3.0, record)
    assert events["killed"] and record["workers"][0]["killed"]
    n_ops = len(events["setup"]["kinds"])
    assert run.tally(events, None)[:2] == (n_ops, n_ops)


def test_benchmark_json_lists_the_result_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.BUILDERS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "depth-batch", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
