"""End-to-end command-line checks: output content and exit codes."""

from fractions import Fraction as F

import pytest

from halfmed.cli import main

DS_A_TEXT = "0 0\n2 0\n1 1\n1 1\n"

BALL_SPEC = "variant = ball\ndim = 2\nradius = 1.0\n"
CLOUD_SPEC = "variant = cloud\npoints = 0,0; 1,0; 2,0\n"
ATOM_SPEC = "variant = atom\ndim = 2\nm0 = 0.4\n"


@pytest.fixture
def data_file(tmp_path):
    p = tmp_path / "ds.txt"
    p.write_text(DS_A_TEXT)
    return str(p)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDepth:
    def test_depth_at_median(self, capsys, data_file):
        code, out, _ = run(capsys, ["depth", "--data", data_file, "--point", "1 1"])
        assert code == 0
        assert "1/2" in out

    def test_depth_outside(self, capsys, data_file):
        code, out, _ = run(capsys, ["depth", "--data", data_file, "--point", "5 5"])
        assert code == 0
        assert "0" in out

    def test_missing_file_refused(self, capsys, tmp_path):
        code, _, err = run(
            capsys, ["depth", "--data", str(tmp_path / "nope.txt"), "--point", "0 0"]
        )
        assert code == 2
        assert err.strip()


class TestRegion:
    def test_region_vertices(self, capsys, data_file):
        code, out, _ = run(capsys, ["region", "--data", data_file, "--tau", "1/4"])
        assert code == 0
        for vertex in ("(0, 0)", "(1, 1)", "(2, 0)"):
            assert vertex in out

    def test_region_with_certificates(self, capsys, data_file):
        code, out, _ = run(
            capsys,
            ["region", "--data", data_file, "--tau", "1/2", "--certificates"],
        )
        assert code == 0
        assert out.count("boundary") >= 4

    CERTS_HALF = ("  normal (-1, 1) offset 0 boundary [0, 2, 3] cut 1\n"
                  "  normal (1, -1) offset 0 boundary [0, 2, 3] cut 0\n"
                  "  normal (1, 1) offset 2 boundary [1, 2, 3] cut 1\n"
                  "  normal (-1, -1) offset -2 boundary [1, 2, 3] cut 0\n")
    CERTS_THREE_QUARTERS = ("  normal (-1, 1) offset 0 boundary [0, 2, 3] cut 1\n"
                            "  normal (0, -2) offset 0 boundary [0, 1] cut 2\n"
                            "  normal (1, 1) offset 2 boundary [1, 2, 3] cut 1\n")

    @pytest.mark.parametrize("tau, want", [
        pytest.param("1/2", "tau      1/2  (requires >= 2 of 4 points)\n"
                            "region   1 vertices, 5 halfspaces\n"
                            "  vertex (1, 1)\n"
                            "certificates (4):\n" + CERTS_HALF, id="half"),
        pytest.param("3/4", "tau      3/4  (requires >= 3 of 4 points)\n"
                            "region   empty (tau above the maximal depth)\n"
                            "certificates (3):\n" + CERTS_THREE_QUARTERS,
                     id="above-lambda-star"),
    ])
    def test_certificates_pinned(self, capsys, data_file, tau, want):
        code, out, err = run(capsys, ["region", "--data", data_file, "--tau", tau,
                                      "--certificates"])
        assert (code, out, err) == (0, want, "")

    @pytest.mark.parametrize("text", [
        "0\n1\n2\n2\n5\n5\n",
        DS_A_TEXT,
        "0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n0 2\n1 2\n2 2\n1 1\n",
        "0 0 0\n1 0 0\n0 1 0\n0 0 1\n1 1 1\n1 1 1\n",
    ], ids=["1d", "2d", "grid", "3d"])
    def test_certificates_listed_at_every_level(self, capsys, tmp_path, text):
        # the list follows the region lines at every level, empty ones included
        from halfmed import enumerate_irrotatable, read_dataset

        path = tmp_path / "ds.txt"
        path.write_text(text)
        ds = read_dataset(str(path))
        for k in range(1, ds.n + 1):
            tau = f"{k}/{ds.n}"
            _, region, _ = run(capsys, ["region", "--data", str(path), "--tau", tau])
            code, out, _ = run(capsys, ["region", "--data", str(path), "--tau", tau,
                                        "--certificates"])
            certs = enumerate_irrotatable(ds, F(k, ds.n))
            assert code == 0 and out.startswith(region)
            lines = out[len(region):].splitlines()
            assert lines[0] == f"certificates ({len(certs)}):"
            assert len(lines) == len(certs) + 1

    def test_no_route_option(self, capsys, data_file):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--data", data_file, "--tau", "1/2", "--method", "cuts"])
        assert exc.value.code == 2
        assert "--method" in capsys.readouterr().err

    def test_invalid_tau_refused(self, capsys, data_file):
        code, _, err = run(capsys, ["region", "--data", data_file, "--tau", "7/4"])
        assert code == 2
        assert "tau" in err

    def test_region_export(self, capsys, data_file, tmp_path):
        out_dir = tmp_path / "geo"
        code, _, _ = run(
            capsys,
            ["region", "--data", data_file, "--tau", "1/4", "--out", str(out_dir)],
        )
        assert code == 0
        assert any(out_dir.iterdir())


class TestFlatDataFiles:
    # a coplanar and a collinear set in space, with duplicates
    FLAT = {
        "plane": "0 0 1\n3 0 4\n0 2 5\n1 1 4\n1 1 4\n2 1/2 4\n1/3 1 10/3\n",
        "line": "0 1 2\n1 3 1\n2 5 0\n2 5 0\n-1/2 0 5/2\n",
    }

    @staticmethod
    def _files(capsys, tmp_path, name, route):
        data = tmp_path / f"{name}.txt"
        data.write_text(TestFlatDataFiles.FLAT[name])
        out = {}
        for argv in (["region", "--tau", "1/3"], ["median"]):
            out_dir = tmp_path / route / argv[0]
            code, stdout, _ = run(capsys, argv + ["--data", str(data), "--out", str(out_dir)])
            assert code == 0
            out[argv[0]] = (stdout.replace(str(out_dir), "<out>"),
                            {f.name: f.read_bytes() for f in sorted(out_dir.iterdir())})
        return out

    @pytest.mark.parametrize("name", ["plane", "line"])
    def test_region_and_median_files_match_gram_reference(
        self, capsys, tmp_path, monkeypatch, name
    ):
        from halfmed import regions
        from oracles import reference_reduce_dataset

        got = self._files(capsys, tmp_path, name, "dual")
        monkeypatch.setattr(regions, "reduce_dataset", reference_reduce_dataset)
        assert got == self._files(capsys, tmp_path, name, "gram")

    @pytest.mark.parametrize("name", ["plane", "line"])
    def test_certificates_refused_before_any_output(self, capsys, tmp_path, name):
        data = tmp_path / f"{name}.txt"
        data.write_text(self.FLAT[name])
        code, out, err = run(capsys, ["region", "--data", str(data), "--tau", "1/3",
                                      "--certificates"])
        assert (code, out) == (2, "")
        assert "full affine-dimensional" in err


class TestMedianAndBounds:
    def test_median(self, capsys, data_file):
        code, out, _ = run(capsys, ["median", "--data", data_file])
        assert code == 0
        assert "1/2" in out and "(1, 1)" in out

    def test_bounds_pinch(self, capsys, data_file):
        code, out, _ = run(capsys, ["bounds", "--data", data_file])
        assert code == 0
        assert "1/3" in out

    def test_bounds_exhaustive_flag(self, capsys, data_file):
        code, out, _ = run(capsys, ["bounds", "--data", data_file, "--exhaustive"])
        assert code == 0
        assert "1/3" in out

    def test_collinear_data_refused(self, capsys, tmp_path):
        p = tmp_path / "line.txt"
        p.write_text("0 0\n1 1\n2 2\n")
        code, _, err = run(capsys, ["bounds", "--data", str(p)])
        assert code == 2
        assert err.strip()


class TestAttackAndBreakdown:
    def test_attack_escapes(self, capsys, data_file, tmp_path):
        code, out, _ = run(
            capsys,
            ["attack", "--data", data_file, "--out", str(tmp_path / "exp")],
        )
        assert code == 0
        assert "escaped" in out.lower()

    def test_attack_with_direction_and_m(self, capsys, data_file):
        code, out, _ = run(
            capsys,
            ["attack", "--data", data_file, "--direction", "1 0", "--m", "1",
             "--scales", "1000"],
        )
        assert code == 0
        assert "no escape" in out.lower() or "false" in out.lower()

    def test_breakdown_search(self, capsys, data_file):
        code, out, _ = run(capsys, ["breakdown", "--data", data_file])
        assert code == 0
        assert "m = 2" in out or "exact_m,2" in out.replace(" ", "") or "2" in out


class TestBreakdownOutputPinned:
    """Byte-exact stdout of ``bounds``, ``breakdown`` and ``attack`` on a
    duplicated 3x3 lattice, where the sweep and the probes disagree; a probe
    search that reaches lambda* is exact."""

    GRID_TEXT = "0 0\n1 0\n2 0\n0 1\n1 1\n2 1\n0 2\n1 2\n2 2\n1 1\n"
    LOWER = "lower        3/8  (= lambda*/(1+lambda*))\n"
    PINCHED = "pinched      breakdown point is exactly 3/8\n"

    @pytest.fixture
    def grid_file(self, tmp_path):
        p = tmp_path / "grid.txt"
        p.write_text(self.GRID_TEXT)
        return str(p)

    @pytest.mark.parametrize("flags, body", [
        pytest.param([], "upper        3/8  (exact: True)\n"
                         "inf lambda_u 3/5  at direction (730, -211)\n" + PINCHED,
                     id="default"),
        pytest.param(["--probes", "0", "--exhaustive"],
                     "upper        3/8  (exact: True)\n"
                     "inf lambda_u 3/5  at direction (-2, -1)\n" + PINCHED,
                     id="sweep-only"),
        pytest.param(["--probes", "0", "--no-exhaustive"],
                     "upper        7/17  (exact: False)\n"
                     "inf lambda_u 7/10  at direction (1, 0)\n",
                     id="axes-only"),
        pytest.param(["--probes", "2", "--seed", "3", "--no-exhaustive"],
                     "upper        3/8  (exact: True)\n"
                     "inf lambda_u 3/5  at direction (-512, 214)\n" + PINCHED,
                     id="probes-reach-lambda-star"),
    ])
    def test_bounds(self, capsys, grid_file, flags, body):
        code, out, _ = run(capsys, ["bounds", "--data", grid_file] + flags)
        assert (code, out) == (0, self.LOWER + body)

    def test_breakdown(self, capsys, grid_file):
        code, out, _ = run(capsys, ["breakdown", "--data", grid_file])
        assert (code, out) == (0, "n=10 d=2\nlower    3/8\nupper    3/8\nexact m  6  (ratio 3/8)\n")

    def test_breakdown_not_found_below_the_floor(self, capsys, grid_file):
        # lambda* = 3/5 puts the first m tried at 6, above --m-max 5
        code, out, _ = run(capsys, ["breakdown", "--data", grid_file, "--m-max", "5"])
        assert (code, out) == (0, "n=10 d=2\nlower    3/8\nupper    3/8\n"
                                  "exact m  not found within the search family\n")

    @pytest.mark.parametrize("flags, body", [
        ([], "direction    (730, -211)  inf lambda_u 3/5\n"
             "scale     1000: m=6 y0=(577619551/577421, -12133437210/42151733) "
             "sup_inside=3/8 escaped=True\n"
             "scale    10000: m=6 y0=(5774408551/577421, -121785685110/42151733) "
             "sup_inside=3/8 escaped=True\n"
             "scale   100000: m=6 y0=(57742298551/577421, -1218308164110/42151733) "
             "sup_inside=3/8 escaped=True\n"
             "escaped at every scale\n"),
        (["--direction", "3 1", "--m", "5"],
         "scale     1000: m=5 y0=(4999/5, 5009/15) sup_inside=2/5 depth(y0)=1/3 escaped=False\n"
         "scale    10000: m=5 y0=(49999/5, 50009/15) sup_inside=2/5 depth(y0)=1/3 escaped=False\n"
         "scale   100000: m=5 y0=(499999/5, 500009/15) sup_inside=2/5 depth(y0)=1/3 "
         "escaped=False\n"
         "NO ESCAPE at some scale\n"),
        (["--direction", "3 1"],
         "scale     1000: m=6 y0=(4999/5, 5009/15) sup_inside=3/8 depth(y0)=3/8 escaped=True\n"
         "scale    10000: m=6 y0=(49999/5, 50009/15) sup_inside=3/8 depth(y0)=3/8 escaped=True\n"
         "scale   100000: m=6 y0=(499999/5, 500009/15) sup_inside=3/8 depth(y0)=3/8 "
         "escaped=True\n"
         "escaped at every scale\n"),
    ], ids=["demo", "direction-m5", "direction"])
    def test_attack(self, capsys, grid_file, flags, body):
        code, out, _ = run(capsys, ["attack", "--data", grid_file] + flags)
        assert (code, out) == (0, body)


class TestSampleAndProbe:
    def test_sample_writes_dataset(self, capsys, tmp_path):
        spec = tmp_path / "ball.spec"
        spec.write_text(BALL_SPEC)
        out_file = tmp_path / "sampled.txt"
        code, _, _ = run(
            capsys,
            ["sample", "--spec", str(spec), "--n", "12", "--seed", "4",
             "--out-file", str(out_file)],
        )
        assert code == 0
        text = out_file.read_text()
        assert len([l for l in text.splitlines() if l and not l.startswith("#")]) == 12

    def test_symmetry_probe_pass(self, capsys, tmp_path):
        spec = tmp_path / "ball.spec"
        spec.write_text(BALL_SPEC)
        code, out, _ = run(
            capsys,
            ["probe", "--spec", str(spec), "--kind", "symmetry", "--N", "20000"],
        )
        assert code == 0
        assert "PASS" in out

    def test_symmetry_probe_fail_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "cloud.spec"
        spec.write_text(CLOUD_SPEC)
        code, out, _ = run(
            capsys,
            ["probe", "--spec", str(spec), "--kind", "symmetry",
             "--theta", "2 0", "--N", "20000"],
        )
        assert code == 2
        assert "FAIL" in out

    def test_smoothness_verdict_is_success_even_when_non_smooth(self, capsys, tmp_path):
        spec = tmp_path / "atom.spec"
        spec.write_text(ATOM_SPEC)
        code, out, _ = run(
            capsys,
            ["probe", "--spec", str(spec), "--kind", "smoothness", "--N", "20000"],
        )
        assert code == 0
        assert "NON-SMOOTH" in out


class TestSpecInputPinned:
    """Byte-exact stdout of the spec-file paths: a sampled dataset for
    ``depth``, ``sample`` to stdout and the continuity probe.  Each of
    ``--seed`` and ``--precision`` falls back to the spec file's option."""

    OPTS_SPEC = BALL_SPEC + "seed = 5\nprecision = 8\n"

    @pytest.fixture
    def specs(self, tmp_path):
        out = {}
        for name, text in (("ball", BALL_SPEC), ("opts", self.OPTS_SPEC)):
            out[name] = tmp_path / f"{name}.spec"
            out[name].write_text(text)
        return {k: str(v) for k, v in out.items()}

    @pytest.mark.parametrize("spec, flags, want", [
        pytest.param("ball", ["--n", "7", "--seed", "2", "--precision", "8", "--point", "0,0"],
                     "depth    1/7  (1 of 7 points)\n"
                     "witness  (-1, -7619/14591)  (closed halfspace attaining the minimum)\n"
                     "boundary 0 points on the witness hyperplane\n", id="flags"),
        pytest.param("opts", ["--n", "6", "--point", "1/8,0"],
                     "depth    1/6  (1 of 6 points)\n"
                     "witness  (-1, 5090103/1232599)  (closed halfspace attaining the minimum)\n"
                     "boundary 0 points on the witness hyperplane\n", id="spec-options"),
    ])
    def test_depth_on_a_sampled_dataset(self, capsys, specs, spec, flags, want):
        assert run(capsys, ["depth", "--spec", specs[spec]] + flags) == (0, want, "")

    @pytest.mark.parametrize("spec, flags, want", [
        pytest.param("ball", ["--n", "4", "--seed", "4", "--precision", "10"],
                     "0 489/1024\n-1/16 165/512\n37/1024 -189/256\n-39/1024 -739/1024\n",
                     id="flags"),
        pytest.param("opts", ["--n", "3"], "51/64 119/256\n33/256 53/256\n5/16 -3/128\n",
                     id="spec-options"),
    ])
    def test_sample_to_stdout(self, capsys, specs, spec, flags, want):
        assert run(capsys, ["sample", "--spec", specs[spec]] + flags) == (0, want, "")

    def test_continuity_probe(self, capsys, specs):
        want = (
            "depth-continuity: estimate=0.47 half_width=0.022 N=2000 -> CONTINUOUS\n"
            "  center_estimate: 0.4805\n"
            "  center_half_width: 0.021896794646705714\n"
            "  side_estimates: ((0.5, 0.187, 0.017088626182347137), "
            "(0.1, 0.431, 0.021703803150600123), (0.02, 0.47, 0.021873986376515827))\n"
            "  tolerance: 0.03\n"
            "  final_gap: 0.01050000000000001\n"
        )
        argv = ["probe", "--spec", specs["ball"], "--kind", "continuity", "--N", "2000",
                "--seed", "1"]
        assert run(capsys, argv) == (0, want, "")


class TestConvergenceCommand:
    def test_preflight_refusal(self, capsys, tmp_path):
        spec = tmp_path / "cloud.spec"
        spec.write_text(CLOUD_SPEC)
        code, _, err = run(
            capsys,
            ["convergence", "--spec", str(spec), "--schedule", "16",
             "--trials", "1", "--out", str(tmp_path)],
        )
        assert code == 2
        assert err.strip()

    def test_budget_abort_exit_code(self, capsys, tmp_path):
        spec = tmp_path / "ball.spec"
        spec.write_text(BALL_SPEC)
        code, _, _ = run(
            capsys,
            ["convergence", "--spec", str(spec), "--schedule", "16",
             "--trials", "1", "--budget", "0.0", "--out", str(tmp_path)],
        )
        assert code == 3

    def test_small_run_succeeds(self, capsys, tmp_path):
        spec = tmp_path / "ball.spec"
        spec.write_text(BALL_SPEC)
        code, out, _ = run(
            capsys,
            ["convergence", "--spec", str(spec), "--schedule", "16,24",
             "--trials", "2", "--seed", "1", "--out", str(tmp_path / "runs")],
        )
        assert code == 0
        assert (tmp_path / "runs").exists()
        assert "16" in out and "24" in out


class TestSubcommandDocs:
    @staticmethod
    def _subcommands():
        import argparse

        from halfmed.cli import build_parser

        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        return list(sub.choices)

    def test_every_subcommand_in_the_module_docstring(self):
        from halfmed import cli

        names = self._subcommands()
        assert len(names) == 9
        for name in names:
            assert f"halfmed {name} " in cli.__doc__, name

    def test_every_subcommand_in_the_readme(self):
        import pathlib

        readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
        for name in self._subcommands():
            assert f"$ halfmed {name} " in section, name
