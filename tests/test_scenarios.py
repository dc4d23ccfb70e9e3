from dataclasses import replace

import numpy as np
import pytest

from lownoise.channels import channel_to_config, pure_state_density, stack_channels
from lownoise.errors import ConfigInvalid
from lownoise.report import config_hash, render_jsonl
from lownoise.spectral import jump_covariance, output_shift_curves
from lownoise.sweep import run_sweep
from lownoise.scenarios import (
    Scenario,
    SweepConfig,
    build_scenario,
    random_channel,
    scenario_ancilla_bell,
    scenario_from_config,
    scenario_pauli2,
    scenario_threelevel,
    scenario_to_config,
)


class TestRandomChannel:
    def test_seed_determinism(self):
        a = random_channel(3, 2, [1, 1], seed=123, with_hamiltonian=True)
        b = random_channel(3, 2, [1, 1], seed=123, with_hamiltonian=True)
        assert channel_to_config(a) == channel_to_config(b)

    def test_different_seeds_differ(self):
        a = random_channel(3, 2, [1, 1], seed=1)
        b = random_channel(3, 2, [1, 1], seed=2)
        assert channel_to_config(a) != channel_to_config(b)

    def test_trace_preserving_over_grid(self):
        for seed in range(20):
            dim = (2, 3, 4)[seed % 3]
            ch = random_channel(dim, 1, [1], seed=seed)
            for s in np.geomspace(1e-5, 1e-2, 8):
                assert ch.tpcp_residual(np.array([s])) <= 1e-12

    def test_limits(self):
        with pytest.raises(ConfigInvalid):
            random_channel(9, 1, [1], seed=0)
        with pytest.raises(ConfigInvalid):
            random_channel(2, 4, [1, 1, 1, 1], seed=0)


class TestThreeLevelScenario:
    def test_default_conditions_hold(self):
        sc = scenario_threelevel()
        dm = jump_covariance(sc.channel, sc.input_state, np.ones(2))
        a, d = dm[0, 0].real, dm[1, 1].real
        det = a * d - (dm[0, 1] * dm[1, 0]).real
        assert det == pytest.approx(1 / 54, rel=1e-12)
        n1, n2 = sc.sweep.direction
        assert abs(n1 * a - n2 * d) == pytest.approx(1 / 18, rel=1e-12)

    def test_degenerate_direction_rejected(self):
        with pytest.raises(ConfigInvalid, match="direction"):
            scenario_threelevel(direction=(1 / 3, 2 / 3))


class TestPauliScenario:
    def test_input_state_matches_bloch(self):
        sc = scenario_pauli2()
        rho = pure_state_density(sc.input_state)
        from lownoise.scenarios import bloch_vector

        np.testing.assert_allclose(bloch_vector(rho), np.ones(3) / np.sqrt(3), atol=1e-12)


class TestBellScenario:
    def test_frame_is_orthonormal_complement(self):
        sc = scenario_ancilla_bell()
        full = np.column_stack([sc.input_state, sc.frame])
        assert np.linalg.norm(full.conj().T @ full - np.eye(4)) <= 1e-12

    def test_closed_fisher_consistent_with_inverse(self):
        sc = scenario_ancilla_bell()
        eps = np.array([1e-3, 2e-3])
        j = sc.closed_forms["fisher"](eps)
        jinv = sc.closed_forms["jinv"](eps)
        np.testing.assert_allclose(j @ jinv, np.eye(2), atol=1e-12)


class TestSweepConfig:
    def test_empty_scales(self):
        with pytest.raises(ConfigInvalid):
            SweepConfig(direction=(0.5, 0.5), scales=())

    def test_non_increasing_scales(self):
        with pytest.raises(ConfigInvalid):
            SweepConfig(direction=(0.5, 0.5), scales=(1e-3, 1e-4))

    def test_bad_direction(self):
        with pytest.raises(ConfigInvalid):
            SweepConfig(direction=(0.7, 0.7))
        with pytest.raises(ConfigInvalid):
            SweepConfig(direction=(1.2, -0.2))

    @pytest.mark.parametrize("name", ["three-level", "pauli2", "ancilla-bell"])
    @pytest.mark.parametrize("sweep", [dict(direction="ab"), dict(scales=["x"]), dict(direction=[[0.5], [0.25, 0.25]])])
    def test_direction_or_scales_that_are_not_numbers_rejected(self, name, sweep):
        with pytest.raises(ConfigInvalid, match="must be numbers"):
            build_scenario(name, **sweep)

    def test_seed_keys_span_the_philox_range(self):
        # grid point t draws its Monte Carlo shots with key seed * 1009 + t < 2**64
        largest = (2**64 - 2) // 1009
        assert SweepConfig(direction=(1.0,), scales=(1e-3, 1e-2), seed=largest).monte_carlo_seed(1) < 2**64
        for seed in (-1, largest + 1, 2**64):
            with pytest.raises(ConfigInvalid, match="seed"):
                SweepConfig(direction=(1.0,), scales=(1e-3, 1e-2), seed=seed)

    def test_points(self):
        # a sweep's noise points are scale * direction
        sw = SweepConfig(direction=(0.25, 0.75), scales=(1e-3, 1e-2))
        sc = scenario_threelevel(direction=sw.direction, scales=sw.scales)
        spectra = output_shift_curves(sc.channel, sc.input_state, sw.direction, sw.scales)
        np.testing.assert_allclose(spectra[0].eps, [2.5e-4, 7.5e-4])
        np.testing.assert_allclose(spectra[1].eps, [2.5e-3, 7.5e-3])


class TestScenarioConfig:
    def test_named_round_trip(self):
        for name in ("three-level", "pauli2", "ancilla-bell"):
            sc = build_scenario(name)
            cfg = scenario_to_config(sc)
            sc2 = scenario_from_config(cfg)
            assert config_hash(scenario_to_config(sc2)) == config_hash(cfg)
            assert sc2.closed_forms  # named scenarios keep their reference formulas

    def test_custom_scenario_round_trip(self):
        from lownoise.scenarios import Scenario

        ch = random_channel(3, 2, [1, 1], seed=55)
        phi = np.zeros(3, dtype=complex)
        phi[0] = 1.0
        sc = Scenario(
            name="custom",
            channel=ch,
            input_state=phi,
            sweep=SweepConfig(direction=(0.5, 0.5), scales=(1e-4, 1e-3, 1e-2)),
        )
        cfg = scenario_to_config(sc)
        sc2 = scenario_from_config(cfg)
        assert scenario_to_config(sc2) == cfg

    def test_column_input_state_is_a_config_error_before_any_point(self):
        # every layer flattens one channel's input, so a (N, 1) column would sweep the whole grid first
        sc = scenario_threelevel()
        with pytest.raises(ConfigInvalid, match=r"input state has shape \(3, 1\), expected \(3,\)"):
            run_sweep(replace(sc, input_state=sc.input_state[:, None]))

    def test_channel_stack_takes_one_input_per_channel(self):
        sc = scenario_threelevel()
        stack = stack_channels([sc.channel] * 2)
        assert Scenario("stack", stack, np.array([sc.input_state] * 2), sc.sweep).input_state.shape == (2, 3)
        for phi in (sc.input_state, np.array([sc.input_state] * 3)):
            with pytest.raises(ConfigInvalid, match="input state has shape"):
                Scenario("stack", stack, phi, sc.sweep)

    def test_builtin_name_with_other_channel_keeps_the_file(self):
        cfg = scenario_to_config(scenario_threelevel())
        cfg["channel"] = channel_to_config(random_channel(3, 2, [1, 1], seed=5))
        sc = scenario_from_config(cfg)
        assert scenario_to_config(sc) == cfg
        assert not sc.closed_forms and not sc.expected_orders
        assert run_sweep(sc).config_hash == config_hash(cfg)

    def test_unknown_name(self):
        with pytest.raises(ConfigInvalid):
            build_scenario("no-such-scenario")

    def test_malformed_config(self):
        with pytest.raises(ConfigInvalid):
            scenario_from_config({"name": "x"})

    def test_numpy_seed_gives_the_python_seed_report(self):
        scales = (1e-4, 1e-3, 3e-3, 1e-2)
        sc = build_scenario("pauli2", scales=scales, seed=np.int64(3))
        assert type(sc.sweep.seed) is int
        want = render_jsonl(run_sweep(build_scenario("pauli2", scales=scales, seed=3), shots=1000), with_meta=False)
        assert render_jsonl(run_sweep(sc, shots=1000), with_meta=False) == want

    @pytest.mark.parametrize("seed", [7.9, 7.0, True, "7", None])
    def test_seed_that_is_not_an_integer_rejected(self, seed):
        cfg = scenario_to_config(scenario_threelevel())
        cfg["sweep"]["seed"] = seed
        with pytest.raises(ConfigInvalid, match="seed"):
            scenario_from_config(cfg)
