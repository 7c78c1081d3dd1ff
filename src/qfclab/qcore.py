"""Dense complex-matrix kernel for 3-level (and general small) quantum states.

Everything downstream builds on the handful of operations here: density
operator validation and fidelity against a basis-state target (every target
here is a basis state).  Matrices are plain ``numpy`` arrays of
``complex128``; a density operator is any square array passing
:func:`validate_density`.

All operations are pure functions on immutable values and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-10


class DimensionError(ValueError):
    """Input matrix has the wrong shape for the requested operation."""


class StateValidityError(ValueError):
    """A matrix violates the density-operator invariants beyond tolerance."""


def _as_complex_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if not np.all(np.isfinite(m.real)) or not np.all(np.isfinite(m.imag)):
        raise StateValidityError(f"{name} contains non-finite entries")
    return m


def basis_state(k: int, dim: int = 3) -> np.ndarray:
    """Pure basis-state projector |k><k| as a dim x dim density matrix."""
    if not 0 <= k < dim:
        raise DimensionError(f"basis index {k} out of range for dim {dim}")
    rho = np.zeros((dim, dim), dtype=complex)
    rho[k, k] = 1.0
    return rho


def maximally_mixed(dim: int = 3) -> np.ndarray:
    return np.eye(dim, dtype=complex) / dim


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of density-operator validation.

    ``violations`` maps each failed invariant name to its measured deviation.
    """

    ok: bool
    violations: dict[str, float] = field(default_factory=dict)


def validate_density(m: np.ndarray, tol: float = DEFAULT_TOL) -> ValidationReport:
    """Check Hermiticity, unit trace and positivity of a candidate state.

    Returns a report listing every violated invariant together with the
    measured deviation; raises only for non-square input.
    """
    m = _as_complex_matrix(m, "state")
    violations: dict[str, float] = {}

    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    if herm_dev > tol:
        violations["hermitian"] = herm_dev

    trace_dev = float(abs(np.trace(m) - 1.0))
    if trace_dev > tol:
        violations["unit_trace"] = trace_dev

    # Eigenvalues of the Hermitian part; for nearly-Hermitian input this is
    # the meaningful positivity test even when the Hermiticity check failed.
    herm_part = 0.5 * (m + m.conj().T)
    min_eig = float(np.linalg.eigvalsh(herm_part)[0])
    if min_eig < -tol:
        violations["positive_semidefinite"] = -min_eig

    return ValidationReport(ok=not violations, violations=violations)


def require_density(m: np.ndarray, tol: float = DEFAULT_TOL, name: str = "state") -> np.ndarray:
    """Validate and return ``m``; raise :class:`StateValidityError` on failure."""
    report = validate_density(m, tol=tol)
    if not report.ok:
        detail = ", ".join(f"{k} (dev {v:.3e})" for k, v in report.violations.items())
        raise StateValidityError(f"{name} is not a valid density operator: {detail}")
    return np.asarray(m, dtype=complex)


def fidelity_pure_target(rho: np.ndarray, basis_index: int) -> float:
    """Fidelity against the pure basis state |k><k|: the diagonal entry rho[k, k]."""
    rho = _as_complex_matrix(rho, "rho")
    if not 0 <= basis_index < rho.shape[0]:
        raise DimensionError(
            f"basis index {basis_index} out of range for dim {rho.shape[0]}"
        )
    value = float(rho[basis_index, basis_index].real)
    return min(max(value, 0.0), 1.0)
