"""Dense-matrix kernel for 3-level (and general small) quantum states.

Everything downstream builds on the handful of operations here: density
operator validation and fidelity against a basis-state target (every target
here is a basis state).  Matrices are plain ``numpy`` arrays; every operator
of the feedback loop is real, so its states are real symmetric ``float64``,
and complex Hermitian input is taken as it is.  The operations keep their
input's dtype (integer input becomes ``float64``).  A density operator is any
square array passing :func:`validate_density`.  Both operations also take a
stack of states with leading batch axes, ``(..., d, d)``, and treat each
state exactly as they treat it alone.  Validation of 3x3 states reads their
entries first: a stack whose every state clears a closed-form test by a
rounding margin is accepted without a factorization; any other stack takes
the Cholesky check, which gives every refusal and its report.

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


def every(mask: np.ndarray) -> bool:
    """Whether every entry of a boolean array is set.

    The 0-d result for a single state skips ``ndarray.all``, which costs
    about 1 us there: a tenth of a single-state layer call.
    """
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def _as_square_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``m`` as a real or complex array of square matrices, in its own dtype."""
    m = np.asarray(m)
    if m.dtype.kind not in "fc":
        m = m.astype(float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise DimensionError(f"{name} must be square, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise StateValidityError(f"{name} contains non-finite entries")
    return m


def basis_state(k: int, dim: int = 3) -> np.ndarray:
    """Pure basis-state projector |k><k| as a dim x dim density matrix."""
    if not 0 <= k < dim:
        raise DimensionError(f"basis index {k} out of range for dim {dim}")
    rho = np.zeros((dim, dim))
    rho[k, k] = 1.0
    return rho


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
    measured deviation (for a stack of states, the worst deviation over the
    stack); raises only for non-square input.
    """
    return _validate(_as_square_matrix(m, "state"), tol)


#: the rounding margin of the closed-form check, relative to a state's largest
#: diagonal entry: about 450 unit roundoffs u
_ROUNDING_MARGIN = 1e-13


def _clearly_density(m: np.ndarray, tol: float) -> bool:
    """Whether :func:`_validate` passes every 3x3 state of ``m`` for certain, read from its entries.

    Hermiticity is checked on the deviations ``_validate`` takes the maximum
    of.  Trace and positivity must clear a margin delta, 1e-13 of the state's
    largest diagonal entry M of herm_part + tol*I: the trace may differ from
    ``np.trace``'s by its summation order, a few u*M.  Positivity: every LDL^T
    pivot of herm_part + (tol - delta)*I must exceed delta.  Positive pivots
    certify that matrix positive definite up to the rounding of the 3x3
    factorization, about 24u*M (Higham, *Accuracy and Stability of Numerical
    Algorithms*, 2002, ch. 10).  So herm_part + tol*I keeps an eigenvalue
    margin near 400u*M, far above what LAPACK's Cholesky needs to succeed
    (12u*M, Demmel's bound, Higham Thm 10.7) or eigvalsh to place the
    smallest eigenvalue above -tol.  Pivots above delta rather than 0 keep the
    divisions clear of underflow.  False says nothing of the states.
    """
    is_complex = np.iscomplexobj(m)
    a, b, c = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    upper = m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]
    lower = m[..., 1, 0], m[..., 2, 0], m[..., 2, 1]
    if is_complex:
        lower = tuple(np.conj(v) for v in lower)
    square = (lambda v: v.real * v.real + v.imag * v.imag) if is_complex else (lambda v: v * v)
    with np.errstate(all="ignore"):  # a state that overflows here is not cleared
        deviations = [np.abs(up - lo) for up, lo in zip(upper, lower)]  # entries of |m - m^dag|
        if is_complex:
            deviations += [2.0 * np.abs(v.imag) for v in (a, b, c)]
        trace_dev = np.abs((a + b + c) - 1.0)
        a, b, c = a.real, b.real, c.real  # the diagonal of herm_part
        x, y, z = (0.5 * (up + lo) for up, lo in zip(upper, lower))
        delta = _ROUNDING_MARGIN * (np.maximum(np.maximum(a, b), c) + tol)
        shift = tol - delta
        d1 = a + shift
        d2 = (b + shift) - square(x) / d1
        d3 = ((c + shift) - square(y) / d1) - square(z - y * np.conj(x) / d1) / d2
        clear = (trace_dev <= tol - delta) & (d1 > delta) & (d2 > delta) & (d3 > delta)
    for deviation in deviations:
        clear &= deviation <= tol
    return every(clear)


def _validate(m: np.ndarray, tol: float) -> ValidationReport:
    if m.shape[-2:] == (3, 3) and m.size and _clearly_density(m, tol):
        return ValidationReport(ok=True)
    m_dag = m.swapaxes(-1, -2).conj() if np.iscomplexobj(m) else m.swapaxes(-1, -2)
    violations: dict[str, float] = {}

    herm_dev = float(np.max(np.abs(m - m_dag)))
    if herm_dev > tol:
        violations["hermitian"] = herm_dev

    trace_dev = float(np.max(np.abs(np.trace(m, axis1=-2, axis2=-1) - 1.0)))
    if trace_dev > tol:
        violations["unit_trace"] = trace_dev

    # Positivity of the Hermitian part; for nearly-Hermitian input this is
    # the meaningful test even when the Hermiticity check failed.  A Cholesky
    # factor of herm_part + tol*I exists iff every eigenvalue exceeds -tol, so
    # only a stack it refuses pays for the eigenvalues that give the deviation.
    herm_part = 0.5 * (m + m_dag)
    try:
        np.linalg.cholesky(herm_part + tol * np.eye(m.shape[-1]))
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(herm_part)[..., 0]))
        if min_eig < -tol:
            violations["positive_semidefinite"] = -min_eig

    return ValidationReport(ok=not violations, violations=violations)


def require_density(m: np.ndarray, tol: float = DEFAULT_TOL, name: str = "state") -> np.ndarray:
    """Validate and return ``m`` in its own dtype; raise :class:`StateValidityError` on failure."""
    m = _as_square_matrix(m, name)
    report = _validate(m, tol)
    if not report.ok:
        detail = ", ".join(f"{k} (dev {v:.3e})" for k, v in report.violations.items())
        raise StateValidityError(f"{name} is not a valid density operator: {detail}")
    return m


def fidelity_pure_target(rho: np.ndarray, basis_index: int) -> float | np.ndarray:
    """Fidelity against the pure basis state |k><k|: the diagonal entry rho[k, k],
    clipped to [0, 1]; an array of fidelities for a stack of states."""
    rho = _as_square_matrix(rho, "rho")
    if not 0 <= basis_index < rho.shape[-1]:
        raise DimensionError(
            f"basis index {basis_index} out of range for dim {rho.shape[-1]}"
        )
    value = rho[..., basis_index, basis_index].real
    if value.ndim:
        return np.clip(value, 0.0, 1.0)
    return min(max(float(value), 0.0), 1.0)
