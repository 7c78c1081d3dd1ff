"""Noise channels, measurement families, and unitary control for the qutrit testbed.

Three noise channels (depolarizing, amplitude damping, random permutation),
an imprecision-parameterized family of generalized measurements plus its
projective limit, and the ladder-operator control unitary exp(beta(a - a^dag)).
Every noise constructor returns an explicit Kraus set, the channel's
definition, which the tests certify CPTP through its Choi matrix.
:func:`apply_channel` applies each family through its closed form instead,
and the tests certify each closed form against its Kraus sum.  Every
measurement is diagonal, so it is held as the diagonals of its operators and
applies as a scaling.  Every operator applied is real, so a real state stays real; each application is
exact for complex Hermitian states too.  The applications take one 3x3 state
or a stack ``(..., 3, 3)`` of them (with a matching array of betas or
outcomes), and treat each state of a stack exactly as they treat it alone.

Constructors and applications are pure; values are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .qcore import DimensionError, every

#: lowering operator a: a|1> = |0>, a|2> = |1>
LOWERING = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)

#: control generator a - a^dag (real antisymmetric, eigenvalues 0, +-i*sqrt(2))
CONTROL_GENERATOR = LOWERING - LOWERING.T

#: cyclic permutation |0> -> |1> -> |2> -> |0>
CYCLE = np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0]], dtype=float)
#: (C rho C^T)[i, j] = rho[i - 1, j - 1], and (C^2 rho C^2T)[i, j] = rho[i + 1, j + 1]
_CYCLED = np.ix_([2, 0, 1], [2, 0, 1])
_CYCLED_TWICE = np.ix_([1, 2, 0], [1, 2, 0])

_CONTROL_GENERATOR_SQ = CONTROL_GENERATOR @ CONTROL_GENERATOR
_IDENTITY3 = np.eye(3)
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
    """A CPTP map: the Kraus operators that define it, and the family ``kind``
    and ``alpha`` that :func:`apply_channel` applies in closed form."""

    kraus_ops: tuple[np.ndarray, ...]
    kind: str
    alpha: float

    @property
    def dim(self) -> int:
        return self.kraus_ops[0].shape[0]


@dataclass(frozen=True)
class MeasurementModel:
    """Outcome-indexed diagonal Kraus set M_l = diag(m_l) with sum_l M_l^dag M_l = I.

    ``diagonals[l]`` is m_l, real and non-negative.
    """

    diagonals: np.ndarray  # (n_outcomes, dim)
    epsilon: float
    kind: str  # "imprecise" or "terminal_projective"

    @property
    def n_outcomes(self) -> int:
        return len(self.diagonals)

    @property
    def ops(self) -> tuple[np.ndarray, ...]:
        """The Kraus operators M_l as full matrices."""
        return tuple(np.diag(m) for m in self.diagonals)


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
    n0 = np.diag([1.0, np.sqrt(1.0 - gamma1), np.sqrt(1.0 - gamma2 - gamma3)])
    n01 = np.zeros((3, 3))
    n01[0, 1] = np.sqrt(gamma1)
    n12 = np.zeros((3, 3))
    n12[1, 2] = np.sqrt(gamma2)
    n03 = np.zeros((3, 3))
    n03[0, 2] = np.sqrt(gamma3)
    return QuantumChannel(
        kraus_ops=(n0, n01, n12, n03), kind="amplitude_damping", alpha=alpha
    )


def random_permutation(alpha: float) -> QuantumChannel:
    """Random cycling between basis states: identity, cycle and cycle^2 mixed by alpha."""
    alpha = _check_alpha(alpha)
    ops = (
        np.sqrt(1.0 - 2.0 * alpha / 3.0) * np.eye(3),
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
    diagonals = np.where(np.eye(3, dtype=bool), hi, lo)
    return MeasurementModel(diagonals=diagonals, epsilon=epsilon, kind="imprecise")


def terminal_measurement() -> MeasurementModel:
    """Projective measurement in the computational basis (the epsilon = 0 limit)."""
    return MeasurementModel(diagonals=np.eye(3), epsilon=0.0, kind="terminal_projective")


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


def _trace(rho: np.ndarray):
    # indexing beats np.trace(..., axis1=-2, axis2=-1) on a stack about sevenfold
    return rho[..., 0, 0] + rho[..., 1, 1] + rho[..., 2, 2]


def apply_channel(
    ch: QuantumChannel, rho: np.ndarray, alpha: float | np.ndarray | None = None
) -> np.ndarray:
    """Apply the Kraus map rho -> sum_k K_k rho K_k^dag through its family's closed form.

    depolarizing: (1 - a) rho + a tr(rho) I/3.  random permutation:
    (1 - 2a/3) rho + (a/3)(C rho C^T + C^2 rho C^2T), as index permutations.
    amplitude damping: rho scaled entrywise by d d^T, d = (1, 1, sqrt(1 - a)),
    plus (a/2) rho_22 on each of the entries (0, 0) and (1, 1).  ``alpha``, a
    float or one per state, replaces ``ch.alpha``: each state then takes the
    same float operations as alone under its own channel of ``ch.kind``.
    """
    if rho.shape[-2:] != (ch.dim, ch.dim):
        raise DimensionError(f"state shape {rho.shape} != channel dim {ch.dim}")
    # a scales each state's scalars, a_m its matrix
    a = ch.alpha if alpha is None else alpha
    a_m = np.asarray(a)[..., None, None]
    if ch.kind == "depolarizing":
        out = (1.0 - a_m) * rho
        mixed = (a / 3.0) * _trace(rho)
        for i in range(3):
            out[..., i, i] += mixed
        return out
    if ch.kind == "random_permutation":
        return (1.0 - 2.0 * a_m / 3.0) * rho + (a_m / 3.0) * (
            rho[..., _CYCLED[0], _CYCLED[1]] + rho[..., _CYCLED_TWICE[0], _CYCLED_TWICE[1]])
    if ch.kind == "amplitude_damping":
        d = np.ones(np.shape(a) + (3,))
        d[..., 2] = np.sqrt(1.0 - a)
        out = rho * (d[..., :, None] * d[..., None, :])
        relaxed = (a / 2.0) * rho[..., 2, 2]
        out[..., 0, 0] += relaxed
        out[..., 1, 1] += relaxed
        return out
    raise ParameterError(f"no closed form for noise kind {ch.kind!r}")


def outcome_probabilities(m: MeasurementModel, rho: np.ndarray) -> np.ndarray:
    """Born probabilities p(l) = tr(M_l^dag M_l rho) = sum_i m_l[i]^2 rho_ii,
    renormalized against roundoff."""
    d = m.diagonals.shape[-1]
    if rho.shape[-2:] != (d, d):
        raise DimensionError(f"state shape {rho.shape} != measurement dim {d}")
    probs = rho.diagonal(axis1=-2, axis2=-1).real @ (m.diagonals**2).T
    probs = np.maximum(probs, 0.0)
    total = probs.sum(axis=-1, keepdims=True)
    if not every(np.isfinite(total) & (total > 0.0)):
        raise ConditioningError("outcome probabilities do not sum to a positive value")
    return probs / total


def condition_on_outcome(
    m: MeasurementModel, rho: np.ndarray, outcome: int | np.ndarray
) -> np.ndarray:
    """Post-measurement state M_l rho M_l^dag / p(l) = (m_l m_l^T) o rho / p(l)
    for the given outcome (one outcome per state of a stack)."""
    outcome = np.asarray(outcome)
    if not every((outcome >= 0) & (outcome < m.n_outcomes)):
        raise DimensionError(f"outcome {outcome} out of range")
    diagonal = m.diagonals[outcome]
    post = diagonal[..., :, None] * rho * diagonal[..., None, :]
    p = _trace(post).real
    vanishing = p <= ZERO_PROBABILITY_THRESHOLD
    if not every(~vanishing):
        rows = np.flatnonzero(vanishing)
        raise ConditioningError(
            f"outcome {outcome.flat[rows[0]]} has probability {p.flat[rows[0]]:.3e} "
            f"<= {ZERO_PROBABILITY_THRESHOLD}",
            rows=rows,
        )
    return post / p[..., None, None]

