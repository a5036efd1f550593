"""Experiment drivers: convergence runs, oracle sweeps, attack demos, CSV I/O."""

import contextlib
from fractions import Fraction as F

import pytest

import halfmed.experiments as experiments
import halfmed.regions as regions
from halfmed import (
    ConvergenceRow,
    ExperimentConfig,
    PreflightError,
    aggregate_convergence,
    atom_on_hyperplane,
    ball_sphere_mixture,
    dataset,
    degenerate_sampler,
    discrete_cloud,
    median_fraction,
    run_attack_demo,
    run_convergence,
    run_region_oracle,
    trend_ok,
    uniform_ball,
    write_csv,
)

DS_A = dataset([(0, 0), (2, 0), (1, 1), (1, 1)])


class TestCsv:
    def test_quoting_and_conversion(self, tmp_path):
        path = write_csv(
            tmp_path / "t.csv",
            ["a", "b", "c", "d"],
            [[F(1, 3), 'say "hi", ok', None, (1, 2)]],
        )
        raw = path.read_bytes()
        assert raw.count(b"\r\n") == 2
        body = raw.decode("utf-8").split("\r\n")[1]
        assert body == '1/3,"say ""hi"", ok",,1 2'

    def test_float_cells_round_trip(self, tmp_path):
        path = write_csv(tmp_path / "f.csv", ["x"], [[0.1]])
        assert "0.1" in path.read_text()


class TestAggregation:
    def test_median_fraction_exact(self):
        assert median_fraction([F(1), F(3), F(2)]) == F(2)
        assert median_fraction([F(1, 3), F(1, 2)]) == F(5, 12)
        with pytest.raises(ValueError):
            median_fraction([])

    def test_aggregate_and_deviation(self):
        rows = [
            ConvergenceRow(n=10, trial=0, lambda_star=F(1, 2), lower=F(1, 3),
                           inf_lambda_u=F(1, 2), upper=F(1, 3), runtime_ms=1.0),
            ConvergenceRow(n=10, trial=1, lambda_star=F(2, 5), lower=F(2, 7),
                           inf_lambda_u=F(2, 5), upper=F(1, 3), runtime_ms=1.0),
            ConvergenceRow(n=10, trial=2, lambda_star=None, lower=None,
                           inf_lambda_u=None, upper=None, runtime_ms=0.0,
                           status="budget"),
        ]
        med = aggregate_convergence(rows)
        assert set(med) == {10}
        m = med[10]
        # budget row excluded; medians over the two ok rows
        assert m["lambda_star"] == F(9, 20)
        assert m["lower"] == (F(1, 3) + F(2, 7)) / 2
        assert m["upper"] == F(1, 3)
        assert m["deviation"] == max(abs(m["lower"] - F(1, 3)), abs(m["upper"] - F(1, 3)))

    def test_trend_allows_one_blip(self):
        good = {10: {"deviation": F(3, 10)}, 20: {"deviation": F(2, 10)},
                40: {"deviation": F(1, 10)}}
        assert trend_ok(good)
        one_blip = {10: {"deviation": F(3, 10)}, 20: {"deviation": F(4, 10)},
                    40: {"deviation": F(1, 10)}}
        assert trend_ok(one_blip)
        two_blips = {10: {"deviation": F(1, 10)}, 20: {"deviation": F(2, 10)},
                     40: {"deviation": F(3, 10)}}
        assert not trend_ok(two_blips)
        assert trend_ok(two_blips, allowed_blips=2)


class TestConvergence:
    def test_small_run_rows_and_csv_determinism(self, tmp_path):
        def cfg(out):
            return ExperimentConfig(
                name="mini",
                spec=uniform_ball(2, 1.0),
                n_schedule=(16, 32),
                trials=3,
                seed=5,
                out_dir=out,
                budget_s=120.0,
            )

        res = run_convergence(cfg(tmp_path / "a"))
        assert not res.aborted
        assert len(res.rows) == 6
        for row in res.rows:
            assert row.status == "ok"
            assert row.lower == row.lambda_star / (1 + row.lambda_star)
            assert row.lower <= row.upper
        assert trend_ok(res.medians) or len(res.medians) <= 2
        # byte-identical outputs for identical configurations
        res2 = run_convergence(cfg(tmp_path / "b"))
        for p1, p2 in zip(res.csv_paths, res2.csv_paths):
            if p1.name.endswith("_timings.csv"):
                continue
            assert p1.read_bytes() == p2.read_bytes(), p1.name
        results = next(p for p in res.csv_paths if p.name.endswith("_results.csv"))
        raw = results.read_bytes()
        assert raw.count(b"\r\n") == len(res.rows) + 1
        header = raw.split(b"\r\n")[0].decode()
        assert "runtime" not in header  # timings live in a separate file

    def test_preflight_refuses_asymmetric_spec(self, tmp_path):
        cfg = ExperimentConfig(
            name="bad",
            spec=discrete_cloud([(0, 0), (1, 0), (2, 0)]),
            n_schedule=(16,),
            trials=1,
            out_dir=tmp_path,
        )
        with pytest.raises(PreflightError) as exc:
            run_convergence(cfg)
        assert exc.value.report.verdict == "FAIL"

    def test_preflight_refuses_non_smooth_spec(self, tmp_path):
        cfg = ExperimentConfig(
            name="bad2",
            spec=atom_on_hyperplane(2, m0=0.4),
            n_schedule=(16,),
            trials=1,
            out_dir=tmp_path,
        )
        with pytest.raises(PreflightError) as exc:
            run_convergence(cfg)
        assert exc.value.report.verdict == "NON-SMOOTH"

    def test_budget_abort_leaves_marker_row(self, tmp_path):
        cfg = ExperimentConfig(
            name="tight",
            spec=uniform_ball(2, 1.0),
            n_schedule=(16,),
            trials=2,
            out_dir=tmp_path,
            budget_s=0.0,
        )
        res = run_convergence(cfg)
        assert res.aborted
        assert any(r.status == "budget" for r in res.rows)

    def test_schedule_must_increase(self):
        with pytest.raises(ValueError):
            ExperimentConfig(name="x", n_schedule=(50, 50))


class TestRegionOracle:
    def test_sweep_is_clean_on_degenerate_instances(self):
        cfg = ExperimentConfig(
            name="oracle",
            spec=degenerate_sampler(uniform_ball(2, 1.0), 0.3, 0.2),
            n_schedule=(8,),
            trials=6,
            seed=3,
        )
        summary = run_region_oracle(cfg)
        assert summary.instances == 6
        assert summary.mismatches == 0
        assert summary.gp_certificate_violations == 0
        assert summary.taus_checked > 0
        assert summary.probes_checked > 0
        assert summary.clean

    def test_candidate_table_is_built_once_per_instance(self, monkeypatch):
        builds = []
        table = regions._plane_table

        def counted(ds, deadline):
            builds.append(ds)
            return table(ds, deadline)

        monkeypatch.setattr(regions, "_plane_table", counted)
        cfg = ExperimentConfig(
            name="oracle", spec=uniform_ball(2), n_schedule=(30,), trials=2, seed=0
        )
        summary = run_region_oracle(cfg)
        assert summary.gp_instances == 2
        assert len(builds) == len({id(ds) for ds in builds}) == 2
        # a scope per level builds the table at every level, to the same summary
        builds.clear()
        monkeypatch.setattr(
            experiments, "_level_scope", lambda ds, deadline: contextlib.nullcontext()
        )
        assert repr(run_region_oracle(cfg)) == repr(summary)
        assert len(builds) == summary.taus_checked > 2


class TestAttackDemo:
    def test_demo_escapes_with_linear_growth(self, tmp_path):
        cfg = ExperimentConfig(name="demo", out_dir=tmp_path, trials=1)
        res = run_attack_demo(cfg, ds=DS_A, scales=(10**3, 10**4, 10**5))
        assert res.inf_lambda_u == F(1, 2)
        assert res.all_escaped
        shifts = [row.median_shift_sq for row in res.rows]
        assert all(b >= 25 * a for a, b in zip(shifts, shifts[1:]))
        for row in res.rows:
            assert row.m == 2
            assert row.escaped
            assert row.depth_at_y0 == F(2, 6)
        for path in res.exported:
            assert path.exists()
        names = {p.name for p in res.exported}
        assert "demo_attack.csv" in names
