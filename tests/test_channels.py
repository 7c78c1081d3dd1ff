"""Unit tests for noise channels, measurement families, and unitary control."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qfclab.channels import (
    CONTROL_GENERATOR,
    NOISE_KINDS,
    ConditioningError,
    ParameterError,
    apply_channel,
    condition_on_outcome,
    control_unitary,
    imprecise_measurement,
    outcome_probabilities,
    terminal_measurement,
)
from qfclab.qcore import basis_state

from oracles import (
    amplitude_damping,
    choi_matrix,
    depolarizing,
    expm_taylor,
    is_cptp,
    kraus_completeness_defect,
    kraus_sum,
    make_channel,
    maximally_mixed,
    measurement_average,
    measurement_ops,
    random_densities,
    random_density,
    random_diagonal_density,
    random_permutation,
    validate_measurement,
)

TABLE_ALPHAS = [round(0.1 * k, 1) for k in range(11)]
TABLE_EPSILONS = [0.1, 0.15, 0.175, 0.2, 0.25, 0.3]


class TestDepolarizing:
    def test_alpha_one_fully_mixes(self):
        gen = np.random.default_rng(0)
        rho = random_density(gen)
        np.testing.assert_allclose(
            apply_channel("depolarizing", rho, 1.0), maximally_mixed(), atol=1e-10
        )

    def test_alpha_zero_is_identity(self):
        gen = np.random.default_rng(1)
        rho = random_density(gen)
        np.testing.assert_allclose(apply_channel("depolarizing", rho, 0.0), rho, atol=1e-10)

    def test_hand_evaluated_action(self):
        out = apply_channel("depolarizing", basis_state(0), 0.3)
        np.testing.assert_allclose(out, np.diag([0.8, 0.1, 0.1]), atol=1e-10)

    def test_kraus_set_reproduces_affine_form(self):
        gen = np.random.default_rng(2)
        for alpha in (0.15, 0.5, 0.85):
            ch = depolarizing(alpha)
            for _ in range(5):
                rho = random_density(gen)
                expected = alpha * maximally_mixed() + (1 - alpha) * rho
                np.testing.assert_allclose(kraus_sum(ch.kraus_ops, rho), expected, atol=1e-10)
                np.testing.assert_allclose(
                    apply_channel("depolarizing", rho, alpha), expected, atol=1e-10
                )

    def test_out_of_range_alpha_raises(self):
        with pytest.raises(ParameterError, match="alpha"):
            depolarizing(1.2)


class TestAmplitudeDamping:
    def test_alpha_zero_is_identity(self):
        gen = np.random.default_rng(3)
        rho = random_density(gen)
        np.testing.assert_allclose(apply_channel("amplitude_damping", rho, 0.0), rho, atol=1e-12)

    def test_full_damping_splits_top_level(self):
        out = apply_channel("amplitude_damping", basis_state(2), 1.0)
        np.testing.assert_allclose(out, np.diag([0.5, 0.5, 0.0]), atol=1e-12)

    def test_ground_state_is_fixed_point(self):
        for alpha in (0.2, 0.7, 1.0):
            out = apply_channel("amplitude_damping", basis_state(0), alpha)
            np.testing.assert_allclose(out, basis_state(0), atol=1e-12)

    def test_kraus_matrices_as_printed(self):
        ch = amplitude_damping(0.8)  # gamma2 = gamma3 = 0.4
        n0, n01, n12, n03 = ch.kraus_ops
        np.testing.assert_allclose(n0, np.diag([1.0, 1.0, np.sqrt(0.2)]), atol=1e-15)
        assert np.count_nonzero(n01) == 0  # gamma1 = 0
        assert n12[1, 2] == pytest.approx(np.sqrt(0.4))
        assert n03[0, 2] == pytest.approx(np.sqrt(0.4))


class TestRandomPermutation:
    def test_alpha_zero_is_identity(self):
        gen = np.random.default_rng(4)
        rho = random_density(gen)
        np.testing.assert_allclose(apply_channel("random_permutation", rho, 0.0), rho, atol=1e-12)

    def test_alpha_one_mixes_ground_state_uniformly(self):
        out = apply_channel("random_permutation", basis_state(0), 1.0)
        np.testing.assert_allclose(out, maximally_mixed(), atol=1e-12)

    def test_half_strength_action_on_level_one(self):
        out = apply_channel("random_permutation", basis_state(1), 0.5)
        np.testing.assert_allclose(out, np.diag([1 / 6, 4 / 6, 1 / 6]), atol=1e-12)

    def test_diagonal_action_coincides_with_depolarizing(self):
        gen = np.random.default_rng(5)
        for alpha in (0.1, 0.45, 0.9):
            for _ in range(5):
                rho = random_diagonal_density(gen)
                np.testing.assert_allclose(
                    apply_channel("random_permutation", rho, alpha),
                    apply_channel("depolarizing", rho, alpha), atol=1e-10,
                )


# entries of a stack of states: signed zeros, and floats small enough that no
# product overflows
_entries = st.one_of(st.sampled_from([-0.0, 0.0]), st.floats(-1.0, 1.0))
_rows = st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
                  st.lists(_entries, min_size=9, max_size=9))


class TestPerStateAlpha:
    @pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
    @given(rows=st.lists(_rows, min_size=1, max_size=6))
    def test_each_state_takes_its_own_alpha_as_alone(self, kind, rows):
        alpha = np.array([a for a, _ in rows])
        rho = np.array([entries for _, entries in rows]).reshape(-1, 3, 3)
        stacked = apply_channel(kind, rho, alpha)
        for i, a in enumerate(alpha):
            alone = apply_channel(kind, rho[i], float(a))
            assert stacked[i].tobytes() == alone.tobytes()


class TestCptpCertification:
    @pytest.mark.parametrize("kind", ["depolarizing", "amplitude_damping", "random_permutation"])
    def test_all_channels_on_table_grid(self, kind):
        for alpha in TABLE_ALPHAS:
            ch = make_channel(kind, alpha)
            assert kraus_completeness_defect(ch.kraus_ops) <= 1e-10
            assert is_cptp(ch.kraus_ops)

    def test_measurements_on_table_grid(self):
        for eps in TABLE_EPSILONS:
            m = imprecise_measurement(eps)
            validate_measurement(m)
            assert is_cptp(measurement_ops(m))
        validate_measurement(terminal_measurement())
        assert is_cptp(measurement_ops(terminal_measurement()))

    def test_identity_channel_choi_is_scaled_entangled_projector(self):
        choi = choi_matrix([np.eye(3, dtype=complex)])
        w = np.linalg.eigvalsh(choi)
        assert w[-1] == pytest.approx(3.0, abs=1e-12)  # rank 1, trace 3
        np.testing.assert_allclose(w[:-1], 0.0, atol=1e-12)

    def test_fully_depolarizing_choi_is_i9_over_3(self):
        choi = choi_matrix(depolarizing(1.0).kraus_ops)
        np.testing.assert_allclose(choi, np.eye(9) / 3.0, atol=1e-10)

    def test_incomplete_kraus_set_rejected(self):
        assert not is_cptp([0.5 * np.eye(3, dtype=complex)])


class TestImpreciseMeasurement:
    def test_epsilon_zero_is_projective(self):
        m = imprecise_measurement(0.0)
        for op, proj in zip(measurement_ops(m), measurement_ops(terminal_measurement())):
            np.testing.assert_allclose(op, proj, atol=1e-15)

    def test_probabilities_on_basis_state(self):
        m = imprecise_measurement(0.1)
        np.testing.assert_allclose(
            outcome_probabilities(m, basis_state(0)), [0.8, 0.1, 0.1], atol=1e-12
        )
        np.testing.assert_allclose(
            outcome_probabilities(m, basis_state(1)), [0.1, 0.8, 0.1], atol=1e-12
        )

    def test_probabilities_on_mixed_state(self):
        m = imprecise_measurement(0.3)
        np.testing.assert_allclose(
            outcome_probabilities(m, maximally_mixed()), [1 / 3] * 3, atol=1e-12
        )

    def test_basis_states_invariant_under_any_outcome(self):
        m = imprecise_measurement(0.1)
        for k in range(3):
            for l in range(3):
                post = condition_on_outcome(m, basis_state(k), l)
                np.testing.assert_allclose(post, basis_state(k), atol=1e-12)

    def test_conditioning_mixed_state(self):
        post = condition_on_outcome(imprecise_measurement(0.1), maximally_mixed(), 0)
        np.testing.assert_allclose(post, np.diag([0.8, 0.1, 0.1]), atol=1e-12)

    def test_epsilon_cap_and_override(self):
        with pytest.raises(ParameterError, match="epsilon"):
            imprecise_measurement(0.35)
        validate_measurement(imprecise_measurement(0.3))

    def test_zero_probability_conditioning_raises(self):
        with pytest.raises(ConditioningError, match="probability"):
            condition_on_outcome(terminal_measurement(), basis_state(0), 2)


class TestTerminalMeasurement:
    def test_target_state_is_certain(self):
        probs = outcome_probabilities(terminal_measurement(), basis_state(2))
        np.testing.assert_allclose(probs, [0.0, 0.0, 1.0], atol=1e-12)

    def test_diagonal_read_off(self):
        rho = np.diag([0.5, 0.5, 0.0])
        np.testing.assert_allclose(
            outcome_probabilities(terminal_measurement(), rho), [0.5, 0.5, 0.0], atol=1e-12
        )

    def test_projective_collapse(self):
        rho = np.diag([0.5, 0.5, 0.0])
        post = condition_on_outcome(terminal_measurement(), rho, 0)
        np.testing.assert_allclose(post, basis_state(0), atol=1e-12)


class TestControlUnitary:
    def test_beta_zero_is_identity(self):
        # exactly, +0.0 entries included: the loop skips the control at beta 0 on this
        for beta in (0.0, -0.0, np.zeros(4), np.array([0.0, -0.0])):
            u = control_unitary(beta)
            assert u.shape == np.shape(beta) + (3, 3)
            assert u.tobytes() == np.broadcast_to(np.eye(3), u.shape).tobytes()
            assert not np.signbit(u).any()

    def test_beta_one_entries_match_taylor_oracle(self):
        u = control_unitary(1.0)
        oracle = expm_taylor(CONTROL_GENERATOR)
        np.testing.assert_allclose(u, oracle, atol=1e-12)
        assert u[2, 0].real == pytest.approx(0.42203, abs=1e-5)
        assert u[1, 0].real == pytest.approx(-0.69845, abs=1e-5)

    def test_orthogonal_and_inverse_on_grid(self):
        for beta in np.linspace(-1.0, 1.0, 101):
            u = control_unitary(beta)
            assert np.max(np.abs(u.imag)) == 0.0
            np.testing.assert_allclose(u @ u.conj().T, np.eye(3), atol=1e-10)
            np.testing.assert_allclose(
                u @ control_unitary(-beta), np.eye(3), atol=1e-10
            )
            np.testing.assert_allclose(control_unitary(-beta), u.T, atol=1e-12)

    def test_closed_form_matches_generic_exponential_path(self):
        for beta in np.linspace(-1.0, 1.0, 41):
            np.testing.assert_allclose(
                control_unitary(beta),
                expm_taylor(beta * CONTROL_GENERATOR),
                atol=1e-10,
            )

    def test_out_of_range_beta_raises(self):
        with pytest.raises(ParameterError, match="beta"):
            control_unitary(1.5)


class TestApplyChannel:
    def test_preserves_trace_and_hermiticity(self):
        gen = np.random.default_rng(6)
        for kind in NOISE_KINDS:
            for _ in range(10):
                rho = random_density(gen)
                out = apply_channel(kind, rho, 0.6)
                assert abs(np.trace(out) - 1.0) <= 1e-10
                assert np.max(np.abs(out - out.T)) <= 1e-10

    def test_conditioning_then_averaging_reconstructs_unconditioned_map(self):
        gen = np.random.default_rng(7)
        m = imprecise_measurement(0.2)
        for _ in range(10):
            rho = random_density(gen)
            probs_raw = np.array(
                [float(np.trace(op.conj().T @ op @ rho).real) for op in measurement_ops(m)]
            )
            recombined = sum(
                probs_raw[l] * condition_on_outcome(m, rho, l) for l in range(3)
            )
            np.testing.assert_allclose(
                recombined, measurement_average(measurement_ops(m), rho), atol=1e-10
            )

    def test_unknown_kind_raises(self):
        with pytest.raises(ParameterError, match="unknown noise kind"):
            apply_channel("thermal", basis_state(0), 0.5)


# one real symmetric state or a stack
densities = st.builds(random_densities, seed=st.integers(0, 2**32 - 1),
                      n=st.sampled_from([None, 1, 5]))


class TestClosedFormsMatchOperators:
    """Each closed-form application against its definition: the Kraus sum of
    the noise, the full operators of the measurement."""

    @pytest.mark.parametrize("kind", sorted(NOISE_KINDS))
    @given(alpha=st.floats(0.0, 1.0), rho=densities)
    def test_apply_channel_is_the_kraus_sum(self, kind, alpha, rho):
        ch = make_channel(kind, alpha)
        out = apply_channel(kind, rho, alpha)
        assert out.shape == rho.shape
        assert out.dtype == rho.dtype  # a real state stays real
        np.testing.assert_allclose(out, kraus_sum(ch.kraus_ops, rho), rtol=0, atol=1e-12)

    @given(epsilon=st.one_of(st.none(), st.floats(0.0, 0.3)), rho=densities,
           seed=st.integers(0, 2**32 - 1))
    def test_scalings_are_the_full_operator_formulas(self, epsilon, rho, seed):
        m = terminal_measurement() if epsilon is None else imprecise_measurement(epsilon)
        ops = np.stack(measurement_ops(m))
        effects = ops.conj().swapaxes(-1, -2) @ ops
        raw = np.trace(effects @ rho[..., None, :, :], axis1=-2, axis2=-1).real
        probs = outcome_probabilities(m, rho)
        np.testing.assert_allclose(probs, raw / raw.sum(axis=-1, keepdims=True), rtol=0, atol=1e-12)

        outcome = np.random.default_rng(seed).integers(0, 3, size=rho.shape[:-2])
        op = ops[outcome]
        post = op @ rho @ op.conj().swapaxes(-1, -2)
        expected = post / np.trace(post, axis1=-2, axis2=-1).real[..., None, None]
        conditioned = condition_on_outcome(m, rho, outcome)
        assert conditioned.dtype == rho.dtype
        np.testing.assert_allclose(conditioned, expected, rtol=0, atol=1e-12)
