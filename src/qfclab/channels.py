"""Noise channels, measurement families, and unitary control for the qutrit testbed.

Three noise channels (depolarizing, amplitude damping, random permutation),
an imprecision-parameterized family of generalized measurements plus its
projective limit, and the ladder-operator control unitary exp(beta(a - a^dag)).
Every constructor returns an explicit Kraus set so a single application path
serves all channels, and every set is CPTP-certifiable via its Choi matrix.
The applications take one 3x3 state or a stack ``(..., 3, 3)`` of them (with
a matching array of betas or outcomes), and treat each state of a stack
exactly as they treat it alone.

Constructors and applications are pure; values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .qcore import DEFAULT_TOL, DimensionError, every

DIM = 3

#: lowering operator a: a|1> = |0>, a|2> = |1>
LOWERING = np.array(
    [[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=complex
)

#: control generator a - a^dag (real antisymmetric, eigenvalues 0, +-i*sqrt(2))
CONTROL_GENERATOR = LOWERING - LOWERING.conj().T

#: cyclic permutation |0> -> |1> -> |2> -> |0>
CYCLE = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=complex)

_CONTROL_GENERATOR_SQ = CONTROL_GENERATOR @ CONTROL_GENERATOR
_IDENTITY3 = np.eye(3, dtype=complex)
_SQRT2 = np.sqrt(2.0)


class ParameterError(ValueError):
    """Channel or measurement parameter outside its admissible range."""


class ConditioningError(ValueError):
    """Attempt to condition on an outcome of (numerically) zero probability.

    ``rows`` holds the flat indices of the offending states of a stack.
    """

    def __init__(self, message: str, rows: np.ndarray | None = None):
        super().__init__(message)
        self.rows = rows


ZERO_PROBABILITY_THRESHOLD = 1e-12


@dataclass(frozen=True)
class QuantumChannel:
    """A CPTP map stored as its Kraus operators, with a provenance label."""

    kraus_ops: tuple[np.ndarray, ...]
    kind: str
    alpha: float

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]

    @cached_property
    def _stack(self) -> np.ndarray:
        return np.ascontiguousarray(np.stack(self.kraus_ops))

    @cached_property
    def _stack_dag(self) -> np.ndarray:
        return np.ascontiguousarray(self._stack.conj().transpose(0, 2, 1))


@dataclass(frozen=True)
class MeasurementModel:
    """Outcome-indexed Kraus set M_l with sum_l M_l^dag M_l = I."""

    ops: tuple[np.ndarray, ...]
    epsilon: float
    kind: str  # "imprecise" or "terminal_projective"

    @property
    def n_outcomes(self) -> int:
        return len(self.ops)

    @cached_property
    def _op_stack(self) -> np.ndarray:
        return np.stack(self.ops)

    @cached_property
    def _povm_stack(self) -> np.ndarray:
        # effect operators M_l^dag M_l, used for outcome probabilities
        return np.stack([op.conj().T @ op for op in self.ops])


def _check_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")
    return alpha


def depolarizing(alpha: float) -> QuantumChannel:
    """Isotropic noise: rho -> alpha*I/3 + (1 - alpha)*rho.

    Stored as an explicit Kraus set built from the nine Weyl (shift/clock)
    operators: identity with weight 1 - 8*alpha/9 and the eight non-trivial
    X^j Z^k with weight alpha/9 each.
    """
    alpha = _check_alpha(alpha)
    omega = np.exp(2j * np.pi / 3.0)
    clock = np.diag([1.0, omega, omega**2])
    shift = CYCLE
    ops = []
    for j in range(3):
        for k in range(3):
            w = np.linalg.matrix_power(shift, j) @ np.linalg.matrix_power(clock, k)
            if j == 0 and k == 0:
                ops.append(np.sqrt(1.0 - 8.0 * alpha / 9.0) * w)
            else:
                ops.append(np.sqrt(alpha / 9.0) * w)
    return QuantumChannel(kraus_ops=tuple(ops), kind="depolarizing", alpha=alpha)


def amplitude_damping(alpha: float) -> QuantumChannel:
    """Energy relaxation with rates tied to one parameter: gamma1 = 0, gamma2 = gamma3 = alpha/2.

    Kraus set {N_0, N_01, N_12, N_03}: N_0 damps the diagonal, N_01 routes
    1 -> 0 (inactive here since gamma1 = 0), N_12 routes 2 -> 1, and N_03
    routes 2 -> 0.
    """
    alpha = _check_alpha(alpha)
    gamma1 = 0.0
    gamma2 = alpha / 2.0
    gamma3 = alpha / 2.0
    n0 = np.diag(
        [1.0, np.sqrt(1.0 - gamma1), np.sqrt(1.0 - gamma2 - gamma3)]
    ).astype(complex)
    n01 = np.zeros((3, 3), dtype=complex)
    n01[0, 1] = np.sqrt(gamma1)
    n12 = np.zeros((3, 3), dtype=complex)
    n12[1, 2] = np.sqrt(gamma2)
    n03 = np.zeros((3, 3), dtype=complex)
    n03[0, 2] = np.sqrt(gamma3)
    return QuantumChannel(
        kraus_ops=(n0, n01, n12, n03), kind="amplitude_damping", alpha=alpha
    )


def random_permutation(alpha: float) -> QuantumChannel:
    """Random cycling between basis states: identity, cycle and cycle^2 mixed by alpha."""
    alpha = _check_alpha(alpha)
    ops = (
        np.sqrt(1.0 - 2.0 * alpha / 3.0) * np.eye(3, dtype=complex),
        np.sqrt(alpha / 3.0) * CYCLE,
        np.sqrt(alpha / 3.0) * (CYCLE @ CYCLE),
    )
    return QuantumChannel(kraus_ops=ops, kind="random_permutation", alpha=alpha)


CHANNEL_KINDS = {
    "depolarizing": depolarizing,
    "amplitude_damping": amplitude_damping,
    "random_permutation": random_permutation,
}


def make_channel(kind: str, alpha: float) -> QuantumChannel:
    """Construct a noise channel by its config-file name."""
    try:
        ctor = CHANNEL_KINDS[kind]
    except KeyError:
        raise ParameterError(
            f"unknown noise kind {kind!r}; choose from {sorted(CHANNEL_KINDS)}"
        ) from None
    return ctor(alpha)


EPSILON_MAX = 0.3


def imprecise_measurement(epsilon: float) -> MeasurementModel:
    """Imprecise basis measurement: outcome k flags basis state k with probability 1 - 2*epsilon.

    The three operators are diagonal with sqrt(1 - 2*epsilon) at the flagged
    level and sqrt(epsilon) elsewhere, so every basis state is invariant
    under conditioning on any outcome.  epsilon is capped at 0.3.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= EPSILON_MAX:
        raise ParameterError(f"epsilon must lie in [0, {EPSILON_MAX}], got {epsilon}")
    hi = np.sqrt(1.0 - 2.0 * epsilon)
    lo = np.sqrt(epsilon)
    ops = tuple(
        np.diag([hi if i == k else lo for i in range(3)]).astype(complex)
        for k in range(3)
    )
    return MeasurementModel(ops=ops, epsilon=epsilon, kind="imprecise")


def terminal_measurement() -> MeasurementModel:
    """Projective measurement in the computational basis (the epsilon = 0 limit)."""
    ops = tuple(np.diag([1.0 if i == k else 0.0 for i in range(3)]).astype(complex) for k in range(3))
    return MeasurementModel(ops=ops, epsilon=0.0, kind="terminal_projective")


def control_unitary(beta: float | np.ndarray) -> np.ndarray:
    """U_beta = exp(beta * (a - a^dag)): a real orthogonal rotation in the 0-2 ladder.

    Uses the closed form exp(beta*A) = I + (sin(s)/sqrt(2))*A + ((1-cos(s))/2)*A^2
    with s = sqrt(2)*beta, exact because A^3 = -2A.  An array of betas gives
    the stack of their unitaries.
    """
    beta = np.asarray(beta, dtype=float)
    in_range = np.abs(beta) <= 1.0
    if not every(in_range):
        raise ParameterError(f"beta must lie in [-1.0, 1.0], got {beta[~in_range]}")
    s = _SQRT2 * beta
    return (
        _IDENTITY3
        + (np.sin(s) / _SQRT2)[..., None, None] * CONTROL_GENERATOR
        + ((1.0 - np.cos(s)) / 2.0)[..., None, None] * _CONTROL_GENERATOR_SQ
    )


def apply_channel(ch: QuantumChannel, rho: np.ndarray) -> np.ndarray:
    """Apply the Kraus map rho -> sum_k K_k rho K_k^dag."""
    if rho.shape[-2:] != (ch.dim, ch.dim):
        raise DimensionError(f"state shape {rho.shape} != channel dim {ch.dim}")
    return (ch._stack @ rho[..., None, :, :] @ ch._stack_dag).sum(axis=-3)


def outcome_probabilities(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Born probabilities p(l) = tr(M_l^dag M_l rho), renormalized against roundoff."""
    d = m.ops[0].shape[0]
    if rho.shape[-2:] != (d, d):
        raise DimensionError(f"state shape {rho.shape} != measurement dim {d}")
    probs = np.einsum("kij,...ji->...k", m._povm_stack, rho).real
    probs = np.maximum(probs, 0.0)
    total = probs.sum(axis=-1, keepdims=True)
    if not every(np.isfinite(total) & (total > 0.0)):
        raise ConditioningError("outcome probabilities do not sum to a positive value")
    return probs / total


def condition_on_outcome(
    m: MeasurementModel, rho: np.ndarray, outcome: int | np.ndarray
) -> np.ndarray:
    """Post-measurement state M_l rho M_l^dag / p(l) for the given outcome
    (one outcome per state of a stack)."""
    outcome = np.asarray(outcome)
    if not every((outcome >= 0) & (outcome < m.n_outcomes)):
        raise DimensionError(f"outcome {outcome} out of range")
    op = m._op_stack[outcome]
    post = op @ rho @ op.conj().swapaxes(-1, -2)
    p = np.trace(post, axis1=-2, axis2=-1).real
    vanishing = p <= ZERO_PROBABILITY_THRESHOLD
    if not every(~vanishing):
        rows = np.flatnonzero(vanishing)
        raise ConditioningError(
            f"outcome {outcome.flat[rows[0]]} has probability {p.flat[rows[0]]:.3e} "
            f"<= {ZERO_PROBABILITY_THRESHOLD}",
            rows=rows,
        )
    return post / p[..., None, None]


def choi_matrix(kraus_ops) -> np.ndarray:
    """Unnormalized Choi matrix C = sum_ij |i><j| (x) E(|i><j|) of the Kraus map.

    C is positive semidefinite iff the map is completely positive, and its
    partial trace over the output factor equals I iff it is trace-preserving.
    """
    ops = np.asarray([np.asarray(k, dtype=complex) for k in kraus_ops])
    d = ops.shape[1]
    choi = np.einsum("kai,kbj->iajb", ops, ops.conj()).reshape(d * d, d * d)
    return choi


def kraus_completeness_defect(kraus_ops) -> float:
    """Max-entry deviation of sum_k K_k^dag K_k from the identity."""
    ops = [np.asarray(k, dtype=complex) for k in kraus_ops]
    total = sum(k.conj().T @ k for k in ops)
    return float(np.max(np.abs(total - np.eye(ops[0].shape[0]))))


def is_cptp(kraus_ops, completeness_tol: float = DEFAULT_TOL, choi_tol: float = 1e-9) -> bool:
    """Certify complete positivity and trace preservation of a Kraus set."""
    if kraus_completeness_defect(kraus_ops) > completeness_tol:
        return False
    choi = choi_matrix(kraus_ops)
    if float(np.linalg.eigvalsh(choi)[0]) < -choi_tol:
        return False
    d = int(np.sqrt(choi.shape[0]))
    partial = np.trace(choi.reshape(d, d, d, d), axis1=1, axis2=3)
    return float(np.max(np.abs(partial - np.eye(d)))) <= choi_tol


def validate_measurement(m: MeasurementModel, tol: float = DEFAULT_TOL) -> None:
    """Raise if the measurement violates completeness (or projectivity for terminal sets)."""
    defect = kraus_completeness_defect(m.ops)
    if defect > tol:
        raise ParameterError(f"measurement completeness defect {defect:.3e} > {tol}")
    if m.kind == "terminal_projective":
        for l, op in enumerate(m.ops):
            if float(np.max(np.abs(op @ op - op))) > tol or float(
                np.max(np.abs(op - op.conj().T))
            ) > tol:
                raise ParameterError(f"terminal operator {l} is not an orthogonal projector")


__all__ = [
    "CHANNEL_KINDS",
    "CONTROL_GENERATOR",
    "ConditioningError",
    "MeasurementModel",
    "ParameterError",
    "QuantumChannel",
    "amplitude_damping",
    "apply_channel",
    "choi_matrix",
    "condition_on_outcome",
    "control_unitary",
    "depolarizing",
    "imprecise_measurement",
    "is_cptp",
    "kraus_completeness_defect",
    "make_channel",
    "outcome_probabilities",
    "random_permutation",
    "terminal_measurement",
    "validate_measurement",
]
