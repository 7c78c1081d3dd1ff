"""Noise channels, measurement families, and unitary control for the qutrit testbed.

Three noise channels (depolarizing, amplitude damping, random permutation),
named by their kind in :data:`NOISE_KINDS` and applied at a strength alpha by
:func:`apply_channel` through their closed forms; an imprecision-parameterized
family of generalized measurements plus its projective limit; and the
ladder-operator control unitary exp(beta(a - a^dag)).  Each channel is defined
by its Kraus set, which the tests hold (``tests/oracles.py``), certify CPTP
through its Choi matrix, and check each closed form against.  Every
measurement is diagonal, so it is held as the read-only ``(3, 3)`` array of
its operators' diagonals, row l the diagonal of M_l, and applies as a
scaling.  Every operator applied is real, and so is every state:
the applications take one real 3x3 state or a stack ``(..., 3, 3)`` of them
(with a matching array of alphas, betas or outcomes), and treat each state of
a stack exactly as they treat it alone.

Constructors and applications are pure; the measurement arrays are read-only
and safe to share across threads.
"""

from __future__ import annotations

import numpy as np

from .qcore import DimensionError, every

#: lowering operator a: a|1> = |0>, a|2> = |1>
LOWERING = np.array([[0, 1, 0], [0, 0, 1], [0, 0, 0]], dtype=float)

#: control generator a - a^dag (real antisymmetric, eigenvalues 0, +-i*sqrt(2))
CONTROL_GENERATOR = LOWERING - LOWERING.T

#: the noise families, by the names config files and :class:`qfclab.dynamics.EnvConfig` use
NOISE_KINDS = ("depolarizing", "amplitude_damping", "random_permutation")

#: for the cyclic permutation C: |0> -> |1> -> |2> -> |0>,
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


def _unknown_kind(kind) -> ParameterError:
    return ParameterError(f"unknown noise kind {kind!r}; choose from {list(NOISE_KINDS)}")


def check_noise(kind: str, alpha: float) -> None:
    """Raise :class:`ParameterError` unless ``kind`` is in :data:`NOISE_KINDS` and
    ``alpha`` lies in [0, 1]."""
    if kind not in NOISE_KINDS:
        raise _unknown_kind(kind)
    if not 0.0 <= alpha <= 1.0:
        raise ParameterError(f"alpha must lie in [0, 1], got {alpha}")


EPSILON_MAX = 0.3


def imprecise_measurement(epsilon: float) -> np.ndarray:
    """Imprecise basis measurement: outcome k flags basis state k with probability 1 - 2*epsilon.

    Returns the diagonals ``m[l] = m_l`` of its outcome-indexed Kraus set
    M_l = diag(m_l), real and non-negative with sum_l M_l^dag M_l = I:
    sqrt(1 - 2*epsilon) at the flagged level and sqrt(epsilon) elsewhere, so
    every basis state is invariant under conditioning on any outcome.
    epsilon is capped at 0.3.
    """
    epsilon = float(epsilon)
    if not 0.0 <= epsilon <= EPSILON_MAX:
        raise ParameterError(f"epsilon must lie in [0, {EPSILON_MAX}], got {epsilon}")
    hi = np.sqrt(1.0 - 2.0 * epsilon)
    lo = np.sqrt(epsilon)
    m = np.where(np.eye(3, dtype=bool), hi, lo)
    m.flags.writeable = False
    return m


def terminal_measurement() -> np.ndarray:
    """Projective measurement in the computational basis (the epsilon = 0 limit)."""
    m = np.eye(3)
    m.flags.writeable = False
    return m


def control_unitary(beta: float | np.ndarray) -> np.ndarray:
    """U_beta = exp(beta * (a - a^dag)): a real orthogonal rotation in the 0-2 ladder.

    Uses the closed form exp(beta*A) = I + (sin(s)/sqrt(2))*A + ((1-cos(s))/2)*A^2
    with s = sqrt(2)*beta, exact because A^3 = -2A.  An array of betas gives
    the stack of their unitaries.  A beta outside [-1, 1] raises
    :class:`ParameterError`: the closed loop's one range check of a control.
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


def apply_channel(kind: str, rho: np.ndarray, alpha: float | np.ndarray) -> np.ndarray:
    """Apply the noise channel ``kind`` at strength ``alpha`` (a float, or one per
    state) through its family's closed form.

    depolarizing: (1 - a) rho + a tr(rho) I/3.  random permutation:
    (1 - 2a/3) rho + (a/3)(C rho C^T + C^2 rho C^2T), as index permutations.
    amplitude damping: rho scaled entrywise by d d^T, d = (1, 1, sqrt(1 - a)),
    plus (a/2) rho_22 on each of the entries (0, 0) and (1, 1).  Each state of
    a stack takes the same float operations as alone at its own alpha, which
    the caller has range-checked.
    """
    if rho.shape[-2:] != (3, 3):
        raise DimensionError(f"state shape {rho.shape} is not (..., 3, 3)")
    # alpha scales each state's scalars, a_m its matrix
    a_m = np.asarray(alpha)[..., None, None]
    if kind == "depolarizing":
        out = (1.0 - a_m) * rho
        mixed = (alpha / 3.0) * _trace(rho)
        for i in range(3):
            out[..., i, i] += mixed
        return out
    if kind == "random_permutation":
        return (1.0 - 2.0 * a_m / 3.0) * rho + (a_m / 3.0) * (
            rho[..., _CYCLED[0], _CYCLED[1]] + rho[..., _CYCLED_TWICE[0], _CYCLED_TWICE[1]])
    if kind == "amplitude_damping":
        d = np.ones(np.shape(alpha) + (3,))
        d[..., 2] = np.sqrt(1.0 - alpha)
        out = rho * (d[..., :, None] * d[..., None, :])
        relaxed = (alpha / 2.0) * rho[..., 2, 2]
        out[..., 0, 0] += relaxed
        out[..., 1, 1] += relaxed
        return out
    raise _unknown_kind(kind)


def outcome_probabilities(m: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Born probabilities p(l) = tr(M_l^dag M_l rho) = sum_i m[l, i]^2 rho_ii of the
    measurement whose diagonals are ``m``, renormalized against roundoff."""
    if rho.shape[-2:] != (3, 3):
        raise DimensionError(f"state shape {rho.shape} is not (..., 3, 3)")
    probs = rho.diagonal(axis1=-2, axis2=-1) @ (m**2).T
    probs = np.maximum(probs, 0.0)
    total = probs.sum(axis=-1, keepdims=True)
    if not every(np.isfinite(total) & (total > 0.0)):
        raise ConditioningError("outcome probabilities do not sum to a positive value")
    return probs / total


def condition_on_outcome(m: np.ndarray, rho: np.ndarray, outcome: int | np.ndarray) -> np.ndarray:
    """Post-measurement state M_l rho M_l^dag / p(l) = (m_l m_l^T) o rho / p(l)
    for the given outcome (one outcome per state of a stack) of the
    measurement whose diagonals are ``m``."""
    outcome = np.asarray(outcome)
    if not every((outcome >= 0) & (outcome < 3)):
        raise DimensionError(f"outcome {outcome} out of range")
    diagonal = m[outcome]
    post = diagonal[..., :, None] * rho * diagonal[..., None, :]
    p = _trace(post)
    vanishing = p <= ZERO_PROBABILITY_THRESHOLD
    if not every(~vanishing):
        rows = np.flatnonzero(vanishing)
        raise ConditioningError(
            f"outcome {outcome.flat[rows[0]]} has probability {p.flat[rows[0]]:.3e} "
            f"<= {ZERO_PROBABILITY_THRESHOLD}",
            rows=rows,
        )
    return post / p[..., None, None]

