"""Unit tests for the true and filtering dynamics (the nominal law is alpha = 0) and episodes."""

import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import qfclab
from qfclab import dynamics
from qfclab.channels import ParameterError, imprecise_measurement
from qfclab.controllers import BasicTable, basic_policy
from qfclab.dynamics import (
    EnvConfig,
    FilterDivergenceError,
    encode_outcome_observation,
    filter_update,
    run_episodes,
    step_true,
)
from qfclab.qcore import basis_state
from qfclab.rngstream import RngStream

from oracles import (
    TrainingEpisodeReplay,
    averaged_map_iteration,
    basic_controller_chain,
    control_unitary_closed_form,
    estimate_average_state,
    maximally_mixed,
    measurement_ops,
    reference_episode,
    sample_outcome_by_cumsum,
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
        assert len({a, b, replace(a, alpha=0.0)}) == 1

    def test_differing_scalar_field_compares_unequal(self):
        assert EnvConfig() != replace(EnvConfig(), alpha=0.2)
        assert EnvConfig() != EnvConfig(horizon=5)

    def test_unknown_noise_kind_rejected_even_at_alpha_zero(self):
        # alpha = 0 skips the noise map, so the config itself must check the kind
        with pytest.raises(ParameterError, match="unknown noise kind"):
            EnvConfig(noise_kind="dephasing", alpha=0.0)
        for alpha in (-0.1, 1.5, float("nan")):
            with pytest.raises(ParameterError, match="alpha"):
                EnvConfig(alpha=alpha)
        for epsilon in (0.5, -0.1):
            with pytest.raises(ParameterError, match="epsilon"):
                EnvConfig(epsilon=epsilon)

    def test_holds_four_scalars_and_every_episode_starts_in_ground_state(self):
        assert [f.name for f in fields(EnvConfig)] == ["noise_kind", "alpha", "epsilon", "horizon"]
        assert np.array_equal(dynamics.INITIAL_STATE, basis_state(0))
        with pytest.raises(ValueError):
            dynamics.INITIAL_STATE[0, 0] = 0.5


class TestStepTrue:
    def test_target_is_fixed_point_without_noise_or_control(self):
        cfg = make_cfg()
        gen = RngStream(1).generator()
        for _ in range(10):
            rho, outcome = step_true(basis_state(2), 0.0, cfg, gen.random(), cfg.alpha)
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
            _, outcome = step_true(basis_state(0), 1.0, cfg, gen.random(), cfg.alpha)
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
            _, outcome = step_true(basis_state(2), 0.0, cfg, gen.random(), cfg.alpha)
            counts[outcome] += 1
        sigma = np.sqrt((1 / 3) * (2 / 3) / n)
        assert np.all(np.abs(counts / n - 1 / 3) <= 3 * sigma)


class TestStepNominal:
    """The nominal (noise-free) law is step_true at alpha = 0."""

    def test_coincides_with_step_true_at_alpha_zero(self, monkeypatch):
        # no noise map is applied, every outcome is the scalar nominal step's, and
        # every state agrees with its complex Kraus products to 1e-12 relative
        cfg = make_cfg(epsilon=0.1, horizon=30)
        rho = maximally_mixed()
        nominal = TrainingEpisodeReplay(
            "mbs", (), measurement_ops(imprecise_measurement(0.1)), rho, 2, 30,
            RngStream(4).generator(),
        )
        monkeypatch.setattr(dynamics.ch, "apply_channel", None)
        draws = RngStream(4).generator()
        for beta in np.sin(np.arange(30)):
            rho, outcome = step_true(rho, float(beta), cfg, draws.random(), cfg.alpha)
            nominal.step(float(beta))
            assert outcome == nominal.outcome
            scale = np.abs(nominal.rho).max()
            np.testing.assert_allclose(rho, nominal.rho, rtol=0, atol=1e-12 * scale)

    def test_transition_probability_into_target(self):
        cfg = make_cfg()
        gen = RngStream(5).generator()
        n = 50_000
        hits = 0
        for _ in range(n):
            _, outcome = step_true(basis_state(1), 1.0, cfg, gen.random(), cfg.alpha)
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
            _, outcome = step_true(basis_state(2), 0.0, cfg, gen.random(), cfg.alpha)
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
        rho = rho_hat = dynamics.INITIAL_STATE
        betas = np.sin(np.arange(50))  # arbitrary in-range control sequence
        for beta in betas:
            rho, outcome = step_true(rho, float(beta), cfg, gen.random(), cfg.alpha)
            rho_hat = filter_update(rho_hat, float(beta), outcome, cfg)
            assert np.max(np.abs(rho - rho_hat)) <= 1e-12


weights = st.lists(st.one_of(st.just(0.0), st.floats(0.0, 1.0)), min_size=3, max_size=3).filter(any)


@st.composite
def outcome_draws(draw):
    """Outcome probabilities (zeros included) and a uniform, often exactly on a cumulative sum."""
    probs = np.array(draw(weights))
    probs /= probs.sum()
    cumulative = probs[:-1].cumsum()
    u = draw(st.one_of(st.sampled_from([cumulative[0], cumulative[1], 0.0]),
                       st.floats(0.0, 1.0, exclude_max=True)))
    return probs, u


@given(draws=st.lists(outcome_draws(), min_size=1, max_size=8))
def test_three_outcome_sampler_equals_the_cumulative_sum_form(draws):
    probs, u = (np.array(column) for column in zip(*draws))
    for p, v in zip(probs, u):  # one state, and a python float draw
        got, want = dynamics._sample_outcome(p, float(v)), sample_outcome_by_cumsum(p, float(v))
        assert type(got) is type(want) and got == want
    got, want = dynamics._sample_outcome(probs, u), sample_outcome_by_cumsum(probs, u)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)


def terminal_fidelity(policy, cfg, seed, n=1):
    """The terminal true fidelity of the episodes RngStream(seed, i), i < n."""
    fidelity, _ = run_episodes(policy, cfg, seed, range(n), cfg.alpha)
    return fidelity[:, -1]


class TestRunEpisode:
    def test_basic_controller_reaches_target_noiselessly(self):
        expected_steps, absorbed = basic_controller_chain(20)
        cfg = make_cfg()
        n = 1000
        terminal = terminal_fidelity(basic_policy(), cfg, 100, n)
        hits = sum(f == pytest.approx(1.0, abs=1e-9) for f in terminal)
        p20 = absorbed[-1]
        assert hits / n >= 0.99
        assert hits / n == pytest.approx(p20, abs=3 * np.sqrt(p20 * (1 - p20) / n))

    def test_zero_policy_goes_nowhere(self):
        cfg = make_cfg()
        zero = BasicTable(beta_by_outcome=(0.0, 0.0, 0.0))
        assert np.all(terminal_fidelity(zero, cfg, 101, 20) == 0.0)

    def test_full_depolarization_pins_mean_fidelity_at_one_third(self):
        cfg = make_cfg(alpha=1.0, epsilon=0.1)
        fids = terminal_fidelity(basic_policy(), cfg, 102, 1000)
        assert np.mean(fids) == pytest.approx(1 / 3, abs=0.02)

    def test_reproducibility_is_bit_identical(self):
        cfg = make_cfg(alpha=0.4, epsilon=0.2, noise_kind="random_permutation")
        a_fidelity, a_aborted = run_episodes(basic_policy(), cfg, 55, [7], cfg.alpha)
        b_fidelity, b_aborted = run_episodes(basic_policy(), cfg, 55, [7], cfg.alpha)
        assert a_fidelity.tobytes() == b_fidelity.tobytes()
        assert np.array_equal(a_aborted, b_aborted)

    def test_only_an_mlp_policy_observes_a_filtered_state(self):
        # and only under noise: at alpha = 0 the filter would repeat the true step
        draws = RngStream(57).generator().random((3, 4))
        for alpha in (0.0, 0.3):
            cfg = make_cfg(alpha=alpha, epsilon=0.1, horizon=4)
            for kind in ("table", "lstm", "mlp"):
                filters = dynamics.ClosedLoop(kind, cfg, draws, alpha).filters
                assert filters == (kind == "mlp" and alpha > 0)


class TestFilteredEpisodes:
    def test_filtered_observation_tracks_truth_at_alpha_zero(self):
        # full-episode filter-truth coincidence for a state-observing policy; the
        # reference loop runs the filter at alpha = 0 too
        from qfclab.rl.nets import MlpActorCritic

        net = MlpActorCritic(obs_dim=9, gen=RngStream(404).generator())
        cfg = make_cfg(alpha=0.0, epsilon=0.1, horizon=20)
        for i in range(10):
            episode = reference_episode(net, cfg, RngStream(405, i))
            assert not episode.aborted
            deviation = np.abs(np.array(episode.seen_states) - np.array(episode.true_states))
            assert np.max(deviation) <= 1e-12

    def test_alpha_zero_mlp_loop_skips_the_filter_and_matches_a_filtering_one(
        self, monkeypatch
    ):
        # at alpha = 0 the filter step repeats the true step on the same state
        # and outcome, so the loop shows the true state without running it
        cfg = make_cfg(alpha=0.0, epsilon=0.1, horizon=12)
        draws = RngStream(406).generator().random((5, cfg.horizon))
        betas = np.sin(np.arange(5 * cfg.horizon)).reshape(cfg.horizon, 5)
        skipping = dynamics.ClosedLoop("mlp", cfg, draws, cfg.alpha)
        filtering = dynamics.ClosedLoop("mlp", cfg, draws, cfg.alpha)
        filtering.filters = True
        calls = []
        filter_update = dynamics.filter_update

        def counting_filter_update(*args):
            calls.append(args)
            return filter_update(*args)

        monkeypatch.setattr(dynamics, "filter_update", counting_filter_update)
        for beta in betas:
            skipping.step(beta)
            filtering.step(beta)
            assert len(calls) == filtering.t  # every call is the filtering loop's
            assert skipping.observation().tobytes() == filtering.observation().tobytes()
            assert skipping.seen.tobytes() == filtering.seen.tobytes()
            assert skipping.rho.tobytes() == filtering.rho.tobytes()


@pytest.mark.parametrize("outcome, beta", [
    (2, 0.25),
    (0, -0.0),
    (1.0, 1),
    (np.int64(1), np.float64(-0.75)),
    (np.int32(0), np.float32(0.1)),
    (np.array([0, 2, 1]), np.array([0.5, -1.0, 0.0])),
    (np.array([1.0]), np.array([np.float32(0.3)])),
    (np.zeros(0, dtype=int), np.zeros(0)),
], ids=["ints-floats", "negative-zero", "float-int", "numpy-scalars", "narrow-scalars",
        "arrays", "narrow-array", "empty-arrays"])
def test_outcome_observation_bytes_equal_the_stacked_pair(outcome, beta):
    want = np.stack([np.asarray(outcome, dtype=float), np.asarray(beta, dtype=float)], axis=-1)
    got = encode_outcome_observation(outcome, beta)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()


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
            measurement_ops(imprecise_measurement(0.1)),
        )
        assert np.max(np.abs(avg - oracle)) <= 4 / np.sqrt(n)

    def test_invalid_count_rejected(self):
        with pytest.raises(ValueError, match="episode count"):
            estimate_average_state(BasicTable((0.0, 0.0, 0.0)), make_cfg(), 0, RngStream(63))


def test_dynamics_loads_no_rl_or_harness_module():
    # the core layer must not reach up into the packages built on it
    src = str(Path(qfclab.__file__).resolve().parent.parent)
    probe = (
        f"import sys; sys.path.insert(0, {src!r}); import qfclab.dynamics; "
        "print(*(m for m in sys.modules if m.split('.')[:2] in "
        "(['qfclab', 'rl'], ['qfclab', 'harness'])))"
    )
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True)
    assert out.stdout.split() == []
