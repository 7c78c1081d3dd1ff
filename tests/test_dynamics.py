"""Unit tests for the true and filtering dynamics (the nominal law is alpha = 0) and episodes."""

import numpy as np
import pytest

from qfclab import dynamics
from qfclab.channels import ParameterError, depolarizing, imprecise_measurement
from qfclab.controllers import BasicTable, basic_policy
from qfclab.dynamics import (
    EnvConfig,
    FilterDivergenceError,
    estimate_average_state,
    filter_update,
    run_episodes,
    step_true,
)
from qfclab.qcore import basis_state, maximally_mixed
from qfclab.rngstream import RngStream

from oracles import (
    TrainingEpisodeReplay,
    averaged_map_iteration,
    basic_controller_chain,
    control_unitary_closed_form,
)


def make_cfg(**kw):
    defaults = dict(noise_kind="depolarizing", alpha=0.0, epsilon=0.0, horizon=20)
    defaults.update(kw)
    return EnvConfig(**defaults)


class TestEnvConfig:
    def test_equal_configs_compare_equal_and_hash(self):
        a, b = EnvConfig(), EnvConfig()
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b, a.with_alpha(0.0)}) == 1

    def test_differing_initial_state_compares_unequal(self):
        assert EnvConfig() != EnvConfig(initial_state=basis_state(1))
        assert EnvConfig() != EnvConfig(initial_state=maximally_mixed())

    def test_differing_scalar_field_compares_unequal(self):
        assert EnvConfig() != EnvConfig().with_alpha(0.2)
        assert EnvConfig() != EnvConfig(horizon=5)

    def test_unknown_noise_kind_rejected_even_at_alpha_zero(self):
        # alpha = 0 skips the noise map, so the config itself must check the kind
        with pytest.raises(ParameterError, match="unknown noise kind"):
            EnvConfig(noise_kind="dephasing", alpha=0.0)
        with pytest.raises(ParameterError, match="alpha"):
            EnvConfig(alpha=-0.1)
        for epsilon in (0.5, -0.1):
            with pytest.raises(ParameterError, match="epsilon"):
                EnvConfig(epsilon=epsilon)

    def test_initial_state_is_a_read_only_copy(self):
        rho = basis_state(0)
        cfg = EnvConfig(initial_state=rho)
        rho[0, 0] = 0.0
        assert cfg == EnvConfig()
        with pytest.raises(ValueError):
            cfg.initial_state[0, 0] = 0.5


class TestStepTrue:
    def test_target_is_fixed_point_without_noise_or_control(self):
        cfg = make_cfg(initial_state=basis_state(2))
        gen = RngStream(1).generator()
        for _ in range(10):
            rho, outcome = step_true(basis_state(2), 0.0, cfg, gen.random())
            assert outcome == 2
            np.testing.assert_allclose(rho, basis_state(2), atol=1e-12)

    def test_outcome_distribution_matches_squared_unitary_column(self):
        # beta=1 pulse from |0><0|: outcome law is the squared first column of U
        cfg = make_cfg()
        gen = RngStream(2).generator()
        expected = np.abs(control_unitary_closed_form(1.0)[:, 0]) ** 2
        n = 100_000
        counts = np.zeros(3)
        for _ in range(n):
            _, outcome = step_true(basis_state(0), 1.0, cfg, gen.random())
            counts[outcome] += 1
        freqs = counts / n
        sigma = np.sqrt(expected * (1 - expected) / n)
        assert np.all(np.abs(freqs - expected) <= 3 * sigma)

    def test_fully_depolarized_outcomes_are_uniform(self):
        cfg = make_cfg(alpha=1.0, epsilon=0.1)
        gen = RngStream(3).generator()
        n = 30_000
        counts = np.zeros(3)
        for _ in range(n):
            _, outcome = step_true(basis_state(2), 0.0, cfg, gen.random())
            counts[outcome] += 1
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(counts / n - 1 / 3) <= 3 * sigma)


class TestStepNominal:
    """The nominal (noise-free) law is step_true at alpha = 0."""

    def test_coincides_with_step_true_at_alpha_zero(self, monkeypatch):
        # no noise map is applied, and the step is the scalar nominal step bit for bit
        cfg = make_cfg(epsilon=0.1, initial_state=maximally_mixed(), horizon=30)
        nominal = TrainingEpisodeReplay(
            "mbs", (), imprecise_measurement(0.1).ops, cfg.initial_state, 2, 30,
            RngStream(4).generator(),
        )
        monkeypatch.setattr(dynamics.ch, "apply_channel", None)
        draws = RngStream(4).generator()
        rho = cfg.initial_state
        for beta in np.sin(np.arange(30)):
            rho, outcome = step_true(rho, float(beta), cfg, draws.random())
            nominal.step(float(beta))
            assert outcome == nominal.outcome
            assert rho.tobytes() == nominal.rho.tobytes()

    def test_transition_probability_into_target(self):
        cfg = make_cfg()
        gen = RngStream(5).generator()
        n = 50_000
        hits = 0
        for _ in range(n):
            _, outcome = step_true(basis_state(1), 1.0, cfg, gen.random())
            hits += outcome == 2
        p = np.abs(control_unitary_closed_form(1.0)[2, 1]) ** 2
        assert hits / n == pytest.approx(p, abs=3 * np.sqrt(p * (1 - p) / n))
        assert p == pytest.approx(0.48784, abs=1e-5)

    def test_target_outcome_probability_under_imprecision(self):
        cfg = make_cfg(epsilon=0.25)
        gen = RngStream(6).generator()
        n = 50_000
        hits = 0
        for _ in range(n):
            _, outcome = step_true(basis_state(2), 0.0, cfg, gen.random())
            hits += outcome == 2
        expected = 1 - 2 * 0.25
        assert hits / n == pytest.approx(expected, abs=3 * np.sqrt(expected * 0.5 / n))


class TestFilterUpdate:
    def test_target_fixed_point(self):
        cfg = make_cfg(epsilon=0.1)
        out = filter_update(basis_state(2), 0.0, 2, cfg)
        np.testing.assert_allclose(out, basis_state(2), atol=1e-12)

    def test_projective_collapse_onto_target(self):
        cfg = make_cfg(epsilon=0.0)
        out = filter_update(basis_state(0), 1.0, 2, cfg)
        np.testing.assert_allclose(out, basis_state(2), atol=1e-12)

    def test_divergence_raises(self):
        cfg = make_cfg(epsilon=0.0)
        with pytest.raises(FilterDivergenceError, match="outcome"):
            filter_update(basis_state(2), 0.0, 0, cfg)

    def test_filter_tracks_truth_without_noise(self):
        # alpha = 0: feeding true outcomes into the filter reproduces the true state
        cfg = make_cfg(epsilon=0.1, alpha=0.0, horizon=50)
        gen = RngStream(7).generator()
        rho = cfg.initial_state
        rho_hat = cfg.initial_state
        betas = np.sin(np.arange(50))  # arbitrary in-range control sequence
        for beta in betas:
            rho, outcome = step_true(rho, float(beta), cfg, gen.random())
            rho_hat = filter_update(rho_hat, float(beta), outcome, cfg)
            assert np.max(np.abs(rho - rho_hat)) <= 1e-12


def run_batch(policy, cfg, seed, n=1):
    """The episodes of RngStream(seed, i), i < n, as one batch."""
    (batch,) = run_episodes(policy, cfg, [RngStream(seed, i) for i in range(n)])
    return batch


class TestRunEpisode:
    def test_basic_controller_reaches_target_noiselessly(self):
        expected_steps, absorbed = basic_controller_chain(20)
        cfg = make_cfg()
        n = 1000
        terminal = run_batch(basic_policy(), cfg, 100, n).fidelity[:, -1]
        hits = sum(f == pytest.approx(1.0, abs=1e-9) for f in terminal)
        p20 = absorbed[-1]
        assert hits / n >= 0.99
        assert hits / n == pytest.approx(p20, abs=3 * np.sqrt(p20 * (1 - p20) / n))

    def test_zero_policy_goes_nowhere(self):
        cfg = make_cfg()
        zero = BasicTable(beta_by_outcome=(0.0, 0.0, 0.0))
        assert np.all(run_batch(zero, cfg, 101, 20).fidelity[:, -1] == 0.0)

    def test_full_depolarization_pins_mean_fidelity_at_one_third(self):
        cfg = make_cfg(alpha=1.0, epsilon=0.1)
        fids = run_batch(basic_policy(), cfg, 102, 1000).fidelity[:, -1]
        assert np.mean(fids) == pytest.approx(1 / 3, abs=0.02)

    def test_reproducibility_is_bit_identical(self):
        cfg = make_cfg(alpha=0.4, epsilon=0.2, noise_kind="random_permutation")
        (a,) = run_episodes(basic_policy(), cfg, [RngStream(55, 7)])
        (b,) = run_episodes(basic_policy(), cfg, [RngStream(55, 7)])
        assert np.array_equal(a.outcomes, b.outcomes)
        assert np.array_equal(a.true_states, b.true_states)
        assert np.array_equal(a.betas, b.betas)

    def test_records_are_contiguous_and_fidelity_consistent(self):
        cfg = make_cfg(alpha=0.3, epsilon=0.15, horizon=15)
        batch = run_batch(basic_policy(), cfg, 56)
        assert batch.fidelity.shape == (1, 16)
        assert batch.stop_step[0] == -1 and not batch.aborted[0]
        np.testing.assert_allclose(
            batch.fidelity[0, 1:], batch.true_states[0, :, 2, 2].real, rtol=0, atol=1e-12
        )

    def test_only_an_mlp_policy_observes_a_filtered_state(self):
        from qfclab.rl.nets import MlpActorCritic, RecurrentActorCritic

        cfg = make_cfg(epsilon=0.1, horizon=4)
        gen = RngStream(57).generator()
        mlp = MlpActorCritic(obs_dim=9, gen=gen)
        lstm = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(8,),
                                    lstm_hidden=4, gen=gen)
        assert run_batch(mlp, cfg, 58, 3).aux_states.shape == (3, 4, 3, 3)
        for policy in (basic_policy(), BasicTable((1.0, 1.0, 1.0)), lstm):
            assert run_batch(policy, cfg, 58, 3).aux_states is None


class TestFilteredEpisodes:
    def test_filtered_observation_tracks_truth_at_alpha_zero(self):
        # full-episode filter-truth coincidence for a state-observing policy
        from qfclab.rl.nets import MlpActorCritic

        net = MlpActorCritic(obs_dim=9, gen=RngStream(404).generator())
        cfg = make_cfg(alpha=0.0, epsilon=0.1, horizon=20)
        batch = run_batch(net, cfg, 405, 10)
        assert not batch.aborted.any()
        assert np.max(np.abs(batch.aux_states - batch.true_states)) <= 1e-12


class TestEstimateAverageState:
    def test_zero_control_keeps_basis_state(self):
        cfg = make_cfg(epsilon=0.2, horizon=3)
        avg = estimate_average_state(BasicTable((0.0, 0.0, 0.0)), cfg, 200, RngStream(60))
        np.testing.assert_allclose(avg, basis_state(0), atol=1e-12)

    def test_single_depolarizing_step_matches_affine_form(self):
        cfg = make_cfg(alpha=0.5, epsilon=0.1, horizon=1)
        n = 20_000
        avg = estimate_average_state(BasicTable((0.0, 0.0, 0.0)), cfg, n, RngStream(61))
        expected = 0.5 * maximally_mixed() + 0.5 * basis_state(0)
        assert np.max(np.abs(avg - expected)) <= 4 / np.sqrt(n)

    def test_two_step_open_loop_matches_deterministic_iteration(self):
        cfg = make_cfg(alpha=0.0, epsilon=0.1, horizon=2)
        n = 20_000
        avg = estimate_average_state(BasicTable((1.0, 1.0, 1.0)), cfg, n, RngStream(62))
        oracle = averaged_map_iteration(
            basis_state(0),
            [1.0, 1.0],
            [np.eye(3, dtype=complex)],
            imprecise_measurement(0.1).ops,
        )
        assert np.max(np.abs(avg - oracle)) <= 4 / np.sqrt(n)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError, match="episode count"):
            estimate_average_state(BasicTable((0.0, 0.0, 0.0)), make_cfg(), 0, RngStream(63))
