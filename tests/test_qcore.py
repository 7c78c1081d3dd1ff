"""Unit tests for the dense complex-matrix kernel."""

import numpy as np
import pytest

from qfclab.qcore import (
    DimensionError,
    basis_state,
    fidelity_pure_target,
    maximally_mixed,
    validate_density,
)

from oracles import fidelity_by_spectral, random_density


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        assert validate_density(maximally_mixed()).ok

    def test_pure_basis_state_is_valid(self):
        assert validate_density(basis_state(0)).ok

    def test_constructed_negative_population_fails_psd(self):
        # note diag(1, 1, -1) still has unit trace; positivity is what breaks
        report = validate_density(np.diag([1.0, 1.0, -1.0]).astype(complex))
        assert not report.ok
        assert "positive_semidefinite" in report.violations
        assert report.violations["positive_semidefinite"] == pytest.approx(1.0)

    def test_wrong_trace_reported(self):
        report = validate_density(np.eye(3, dtype=complex))
        assert not report.ok
        assert report.violations == {"unit_trace": pytest.approx(2.0)}

    def test_non_hermitian_reported_with_deviation(self):
        m = basis_state(0)
        m[0, 1] = 0.5j
        report = validate_density(m)
        assert "hermitian" in report.violations
        assert report.violations["hermitian"] == pytest.approx(0.5)

    def test_non_square_raises(self):
        with pytest.raises(DimensionError, match="square"):
            validate_density(np.ones((2, 3), dtype=complex))

    def test_random_valid_states_pass(self):
        gen = np.random.default_rng(11)
        for _ in range(25):
            assert validate_density(random_density(gen)).ok


class TestFidelity:
    """Uhlmann-fidelity cases against a basis state, read off the diagonal."""

    def test_orthogonal_pure_states_give_zero(self):
        value = fidelity_pure_target(basis_state(0), 2)
        assert value == pytest.approx(0.0, abs=1e-12)
        assert value == pytest.approx(
            fidelity_by_spectral(basis_state(0), basis_state(2)), abs=1e-12
        )

    def test_mixed_vs_pure_target_is_one_third(self):
        # for pure sigma the fidelity reduces to <psi|rho|psi>
        value = fidelity_pure_target(maximally_mixed(), 2)
        assert value == pytest.approx(1.0 / 3.0, abs=1e-10)
        assert value == pytest.approx(
            fidelity_by_spectral(maximally_mixed(), basis_state(2)), abs=1e-10
        )


class TestFidelityPureTarget:
    def test_mixed_state_reads_one_third(self):
        assert fidelity_pure_target(maximally_mixed(), 2) == pytest.approx(1.0 / 3.0)

    def test_target_state_reads_one(self):
        assert fidelity_pure_target(basis_state(2), 2) == pytest.approx(1.0)

    def test_orthogonal_state_reads_zero(self):
        assert fidelity_pure_target(basis_state(0), 2) == pytest.approx(0.0)

    def test_agrees_with_general_fidelity_on_random_states(self):
        gen = np.random.default_rng(5)
        for _ in range(20):
            rho = random_density(gen)
            k = int(gen.integers(0, 3))
            for oracle in (
                fidelity_by_spectral(basis_state(k), rho),
                fidelity_by_spectral(rho, basis_state(k)),
            ):
                assert fidelity_pure_target(rho, k) == pytest.approx(oracle, abs=1e-9)

    def test_index_out_of_range_raises(self):
        with pytest.raises(DimensionError, match="out of range"):
            fidelity_pure_target(maximally_mixed(), 3)
