"""Unit tests for the dense-matrix state kernel."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PACKAGE
from qfclab import qcore
from qfclab.controllers import basic_policy
from qfclab.dynamics import EnvConfig, run_episodes
from qfclab.qcore import (
    DEFAULT_TOL,
    DimensionError,
    StateValidityError,
    basis_state,
    fidelity_pure_target,
    require_density,
    validate_density,
)

from oracles import (
    density_violations_by_eigenvalues,
    fidelity_by_spectral,
    maximally_mixed,
    random_density,
    validate_by_cholesky,
)


def state_with_spectrum(seed: int, eigenvalues) -> np.ndarray:
    """Q diag(eigenvalues) Q^T for a random orthogonal Q."""
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((3, 3)))
    return (q * np.asarray(eigenvalues)) @ q.T


class TestValidateDensity:
    def test_maximally_mixed_is_valid(self):
        assert validate_density(maximally_mixed()).ok

    def test_pure_basis_state_is_valid(self):
        assert validate_density(basis_state(0)).ok

    def test_constructed_negative_population_fails_psd(self):
        # note diag(1, 1, -1) still has unit trace; positivity is what breaks
        report = validate_density(np.diag([1.0, 1.0, -1.0]))
        assert not report.ok
        assert "positive_semidefinite" in report.violations
        assert report.violations["positive_semidefinite"] == pytest.approx(1.0)

    def test_wrong_trace_reported(self):
        report = validate_density(np.eye(3))
        assert not report.ok
        assert report.violations == {"unit_trace": pytest.approx(2.0)}

    def test_non_hermitian_reported_with_deviation(self):
        m = basis_state(0)
        m[0, 1] = 0.5
        report = validate_density(m)
        assert "hermitian" in report.violations
        assert report.violations["hermitian"] == pytest.approx(0.5)

    @pytest.mark.parametrize("check", [require_density, validate_density,
                                       lambda m: fidelity_pure_target(m, 0)])
    def test_non_square_raises(self, check):
        with pytest.raises(DimensionError, match="square"):
            check(np.ones((2, 3)))
        for shape in [(2, 2), (4, 4), (3,), (3, 3, 1)]:  # only real (..., 3, 3) stacks
            with pytest.raises(DimensionError, match="3x3"):
                check(np.zeros(shape))
        with pytest.raises(DimensionError, match="must be real"):
            check(basis_state(0).astype(complex))

    def test_random_valid_states_pass(self):
        gen = np.random.default_rng(11)
        for _ in range(25):
            assert validate_density(random_density(gen)).ok


class TestPositivityCheck:
    """A closed form accepts clear 3x3 states; for any other stack a Cholesky
    factor of rho + tol*I decides positivity, and the eigenvalues report the
    deviation of a stack it refuses.  The verdict and the report are those of
    the eigenvalue check, except within roundoff of tol itself."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-9])
    @given(seed=st.integers(0, 2**32 - 1), stacked=st.booleans(),
           excess=st.floats(1.05, 1e3), weight=st.floats(0.0, 1.0),
           defect=st.sampled_from([None, "unit_trace", "hermitian"]))
    def test_state_slightly_outside_tolerance_refused(self, tol, seed, stacked,
                                                      excess, weight, defect):
        low = -excess * tol
        m = state_with_spectrum(seed, [low, weight, 1.0 - weight - low])
        if defect == "unit_trace":
            m = m * (1.0 + 3 * tol)
        elif defect == "hermitian":  # an antisymmetric part leaves the spectrum checked alone
            m[0, 1] += 3 * tol
            m[1, 0] -= 3 * tol
        if stacked:
            m = np.stack([basis_state(0), m, maximally_mixed()])
        expected = density_violations_by_eigenvalues(m, tol)
        assert "positive_semidefinite" in expected
        report = validate_density(m, tol)
        assert set(report.violations) == set(expected)
        for name, deviation in expected.items():
            assert report.violations[name] == pytest.approx(deviation, rel=1e-6)
        with pytest.raises(StateValidityError, match="positive_semidefinite"):
            require_density(m, tol=tol)

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-9])
    @given(seed=st.integers(0, 2**32 - 1), margin=st.floats(0.0, 0.95),
           weight=st.floats(0.0, 1.0))
    def test_state_slightly_inside_tolerance_accepted(self, tol, seed, margin, weight):
        low = -margin * tol
        m = state_with_spectrum(seed, [low, weight, 1.0 - weight - low])
        assert density_violations_by_eigenvalues(m, tol) == {}
        assert require_density(m, tol=tol) is m

    def test_basis_states_accepted_in_their_dtype(self):
        states = np.stack([basis_state(k) for k in range(3)])
        for m in (*states, states):
            out = require_density(m)
            assert out.dtype == np.float64
            assert out.tobytes() == m.tobytes()

    def test_integer_input_becomes_float64(self):
        assert require_density(np.diag([1, 0, 0])).dtype == np.float64


@st.composite
def near_boundary_state(draw, tol: float) -> np.ndarray:
    """A 3x3 state on or near the edge of validity at tolerance ``tol``."""
    kind = draw(st.sampled_from(["pure", "rank-2", "edge", "full"]))
    weight = draw(st.floats(0.0, 1.0))
    if kind == "pure":
        spectrum = [0.0, 0.0, 1.0]
    elif kind == "rank-2":
        spectrum = [0.0, weight, 1.0 - weight]
    elif kind == "edge":  # the smallest eigenvalue at +-(1 +- 1e-6) tol, or nearer
        offset = draw(st.sampled_from([1e-6, 1e-7, 1e-8]))
        low = draw(st.sampled_from([-1.0, 1.0])) * (1 + draw(st.sampled_from([-1, 1])) * offset) * tol
        spectrum = [low, weight, 1.0 - weight - low]
    else:
        spectrum = [weight / 3, (1.0 - weight) / 2, (1.0 + weight / 3) / 2]
    basis = draw(st.sampled_from(["random", "computational"]))
    if basis == "random":
        m = state_with_spectrum(draw(st.integers(0, 2**32 - 1)), spectrum)
    else:  # the smallest eigenvalue on any level, so that any pivot may be the negative one
        m = np.diag(np.roll(spectrum, draw(st.integers(0, 2))))
    defect = draw(st.sampled_from([None, "unit_trace", "hermitian"]))
    off = draw(st.sampled_from([-1.0, 1.0])) * draw(st.sampled_from([0.5, 1 - 1e-6, 1 + 1e-6, 2.0]))
    if defect == "unit_trace":
        m = m * (1.0 + off * tol)
    elif defect == "hermitian":
        m[0, 1] += off * tol
        m[1, 0] -= off * tol
    return m * draw(st.one_of(st.just(1.0), st.floats(1e-3, 1e3)))


class TestClosedFormAcceptance:
    """The closed form only accepts, and only states the Cholesky check accepts;
    every verdict and report is the Cholesky check's."""

    @pytest.mark.parametrize("tol", [DEFAULT_TOL, 1e-9])
    @settings(max_examples=300)
    @given(data=st.data(), size=st.sampled_from([None, 1, 2, 5]))
    def test_verdict_and_report_are_the_cholesky_checks(self, tol, data, size):
        states = [data.draw(near_boundary_state(tol)) for _ in range(size or 1)]
        m = states[0] if size is None else np.stack(states)
        oracle = validate_by_cholesky(m, tol)
        assert validate_density(m, tol) == oracle
        if qcore._clearly_density(m, tol):
            assert oracle.ok
        for state in states:
            if qcore._clearly_density(state, tol):
                assert validate_by_cholesky(state, tol).ok

    @pytest.mark.parametrize("noise", ["depolarizing", "amplitude_damping", "random_permutation"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    def test_every_true_state_of_an_evaluation_is_accepted_in_closed_form(
            self, monkeypatch, noise, epsilon):
        # what makes the closed form worth its code: the loop never needs the factorization
        verdicts = []
        clearly_density = qcore._clearly_density

        def recording(m, tol):
            verdicts.append(clearly_density(m, tol))
            return verdicts[-1]

        monkeypatch.setattr(qcore, "_clearly_density", recording)
        cfg = EnvConfig(noise_kind=noise, alpha=0.3, epsilon=epsilon)
        run_episodes(basic_policy(), cfg, 5, range(300), np.tile([0.0, 0.3, 1.0], 100))
        assert len(verdicts) == cfg.horizon and all(verdicts)


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


def test_runtime_builds_no_kraus_set_or_complex_array():
    # the Kraus sets that define the channels live in tests/oracles.py, and every
    # state of the loop is real: nothing under src/ may bring either back
    banned = ("kraus", ".conj(", "np.conj", "iscomplexobj", "1j", "dtype=complex")
    hits = [f"{path.relative_to(PACKAGE)}:{number}: {token}"
            for path in sorted(PACKAGE.rglob("*.py"))
            for number, line in enumerate(path.read_text().splitlines(), 1)
            for token in banned if token in line]
    assert hits == []
