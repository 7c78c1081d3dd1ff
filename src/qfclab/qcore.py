"""Dense-matrix kernel for qutrit (3-level) states.

Everything downstream builds on the handful of operations here: density
operator validation and fidelity against a basis-state target (every target
here is a basis state).  Matrices are plain ``numpy`` arrays; every operator
of the feedback loop is real, so its states are real symmetric ``float64``.
The operations take one real 3x3 state or a stack of them with leading batch
axes, ``(..., 3, 3)``, and treat each state exactly as they treat it alone;
they keep their input's float dtype (integer input becomes ``float64``), and
refuse a complex dtype or any other shape.  A density operator is any such
array passing :func:`validate_density`.  Validation reads a stack's entries
first: a stack whose every state clears a closed-form test by a rounding
margin is accepted without a factorization; any other stack takes the
Cholesky check, which gives every refusal and its report.

All operations are pure functions on immutable values and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL = 1e-10


class DimensionError(ValueError):
    """Input is not a real 3x3 matrix or stack ``(..., 3, 3)``, or an index is out of range."""


class StateValidityError(ValueError):
    """A matrix violates the density-operator invariants beyond tolerance."""


def every(mask: np.ndarray) -> bool:
    """Whether every entry of a boolean array is set.

    The 0-d result for a single state skips ``ndarray.all``, which costs
    about 1 us there: a tenth of a single-state layer call.
    """
    return bool(mask) if mask.ndim == 0 else bool(mask.all())


def _as_square_matrix(m: np.ndarray, name: str = "matrix") -> np.ndarray:
    """``m`` as a real array of 3x3 matrices, in its own float dtype."""
    m = np.asarray(m)
    if m.dtype.kind == "c":
        raise DimensionError(f"{name} must be real, got dtype {m.dtype}")
    if m.dtype.kind != "f":
        m = m.astype(float)
    if m.shape[-2:] != (3, 3):
        raise DimensionError(f"{name} must be a square 3x3 matrix or stack, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise StateValidityError(f"{name} contains non-finite entries")
    return m


def basis_state(k: int) -> np.ndarray:
    """Pure basis-state projector |k><k| as a 3x3 density matrix."""
    if not 0 <= k < 3:
        raise DimensionError(f"basis index {k} out of range for dim 3")
    rho = np.zeros((3, 3))
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
    stack); raises only for input that is not a real ``(..., 3, 3)`` array.
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
    a, b, c = m[..., 0, 0], m[..., 1, 1], m[..., 2, 2]
    upper = m[..., 0, 1], m[..., 0, 2], m[..., 1, 2]
    lower = m[..., 1, 0], m[..., 2, 0], m[..., 2, 1]
    with np.errstate(all="ignore"):  # a state that overflows here is not cleared
        deviations = [np.abs(up - lo) for up, lo in zip(upper, lower)]  # entries of |m - m^T|
        trace_dev = np.abs((a + b + c) - 1.0)
        x, y, z = (0.5 * (up + lo) for up, lo in zip(upper, lower))  # herm_part off the diagonal
        delta = _ROUNDING_MARGIN * (np.maximum(np.maximum(a, b), c) + tol)
        shift = tol - delta
        d1 = a + shift
        d2 = (b + shift) - x * x / d1
        w = z - y * x / d1
        d3 = ((c + shift) - y * y / d1) - w * w / d2
        clear = (trace_dev <= tol - delta) & (d1 > delta) & (d2 > delta) & (d3 > delta)
    for deviation in deviations:
        clear &= deviation <= tol
    return every(clear)


def _validate(m: np.ndarray, tol: float) -> ValidationReport:
    if m.size and _clearly_density(m, tol):
        return ValidationReport(ok=True)
    m_dag = m.swapaxes(-1, -2)
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
        np.linalg.cholesky(herm_part + tol * np.eye(3))
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
    if not 0 <= basis_index < 3:
        raise DimensionError(f"basis index {basis_index} out of range for dim 3")
    value = rho[..., basis_index, basis_index]
    if value.ndim:
        return np.clip(value, 0.0, 1.0)
    return min(max(float(value), 0.0), 1.0)
