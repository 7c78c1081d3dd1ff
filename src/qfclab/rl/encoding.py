"""Real-vector network inputs: a Hermitian state, or the last outcome and control."""

from __future__ import annotations

import numpy as np


# Positions of those entries in the float view of a C-ordered 3x3 complex
# matrix, flattened: entry (i, j) has its real part at 6i + 2j, its imaginary
# part right after.
_ENCODED_POSITIONS = np.array([0, 8, 16, 2, 3, 4, 5, 10, 11])


def encode_state_observation(rho: np.ndarray) -> np.ndarray:
    """Flatten a 3x3 Hermitian state into 9 reals (a stack (..., 3, 3) into (..., 9)).

    Ordering: the three populations, then (Re, Im) of the upper off-diagonal
    entries (0,1), (0,2), (1,2).
    """
    flat = np.ascontiguousarray(rho, dtype=complex).view(float)
    return np.take(flat.reshape(rho.shape[:-2] + (18,)), _ENCODED_POSITIONS, axis=-1)


def encode_outcome_observation(
    last_outcome: int | np.ndarray, last_beta: float | np.ndarray
) -> np.ndarray:
    """The pair (last outcome, last control) as 2 floats (arrays (n,) into (n, 2))."""
    return np.stack(
        [np.asarray(last_outcome, dtype=float), np.asarray(last_beta, dtype=float)], axis=-1
    )


def decode_state_observation(vec: np.ndarray) -> np.ndarray:
    """Inverse of :func:`encode_state_observation`."""
    if vec.shape != (9,):
        raise ValueError(f"expected 9 entries, got shape {vec.shape}")
    rho = np.zeros((3, 3), dtype=complex)
    rho[0, 0], rho[1, 1], rho[2, 2] = vec[0], vec[1], vec[2]
    rho[0, 1] = vec[3] + 1j * vec[4]
    rho[0, 2] = vec[5] + 1j * vec[6]
    rho[1, 2] = vec[7] + 1j * vec[8]
    rho[1, 0] = rho[0, 1].conjugate()
    rho[2, 0] = rho[0, 2].conjugate()
    rho[2, 1] = rho[1, 2].conjugate()
    return rho
