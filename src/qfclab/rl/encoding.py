"""Real-vector network inputs: a Hermitian state, or the last outcome and control."""

from __future__ import annotations

import numpy as np


# The upper-triangle entries read, in encoding order (the populations, then
# (0, 1), (0, 2), (1, 2)), and the slots of their real and imaginary parts.
# Index arrays, not tuples: numpy converts a tuple on every call.
_ROWS, _COLS = np.array([0, 1, 2, 0, 0, 1]), np.array([0, 1, 2, 1, 2, 2])
_REAL_SLOTS, _IMAG_SLOTS = np.array([0, 1, 2, 3, 5, 7]), np.array([4, 6, 8])


def encode_state_observation(rho: np.ndarray) -> np.ndarray:
    """Flatten a 3x3 Hermitian state into 9 reals (a stack (..., 3, 3) into (..., 9)).

    Ordering: the three populations, then (Re, Im) of the upper off-diagonal
    entries (0,1), (0,2), (1,2).  A real state encodes its imaginary parts as
    exact +0.0, the same bytes as the state cast to complex.
    """
    rho = np.asarray(rho)
    entries = rho[..., _ROWS, _COLS]
    encoded = np.zeros(rho.shape[:-2] + (9,))
    encoded[..., _REAL_SLOTS] = entries.real
    if np.iscomplexobj(entries):
        encoded[..., _IMAG_SLOTS] = entries[..., 3:].imag
    return encoded


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
