"""Independent reference computations used to freeze expected test values.

Everything here deliberately avoids the library's own code paths: plain
Taylor series, brute-force sums, linear solves, and explicit map iteration.
"""

from __future__ import annotations

import numpy as np

CONTROL_GEN = np.array(
    [[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]], dtype=complex
)


def expm_taylor(m: np.ndarray, terms: int = 50) -> np.ndarray:
    """Truncated Taylor series for exp(m); accurate to ~1e-14 for ||m|| <= 3."""
    result = np.eye(m.shape[0], dtype=complex)
    term = np.eye(m.shape[0], dtype=complex)
    for k in range(1, terms + 1):
        term = term @ m / k
        result = result + term
    return result


def control_unitary_closed_form(beta: float) -> np.ndarray:
    """exp(beta*A) via the closed form valid because A^3 = -2A."""
    s = np.sqrt(2.0) * beta
    a = CONTROL_GEN
    return (
        np.eye(3, dtype=complex)
        + (np.sin(s) / np.sqrt(2.0)) * a
        + ((1.0 - np.cos(s)) / 2.0) * (a @ a)
    )


def fidelity_by_spectral(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Full Uhlmann fidelity evaluated through explicit eigendecompositions."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    sqrt_rho = v @ np.diag(np.sqrt(w)) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    mu = np.clip(np.linalg.eigvalsh(0.5 * (inner + inner.conj().T)), 0.0, None)
    return float(np.sum(np.sqrt(mu)) ** 2)


def measurement_average(measurement_ops, rho: np.ndarray) -> np.ndarray:
    """Outcome-averaged (non-selective) measurement map: sum_l M_l rho M_l^dag."""
    out = np.zeros_like(rho)
    for m in measurement_ops:
        out += m @ rho @ m.conj().T
    return out


def random_density(gen: np.random.Generator, dim: int = 3) -> np.ndarray:
    """Random full-rank density operator via a Ginibre matrix."""
    g = gen.standard_normal((dim, dim)) + 1j * gen.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_diagonal_density(gen: np.random.Generator, dim: int = 3) -> np.ndarray:
    p = gen.random(dim)
    p /= p.sum()
    return np.diag(p).astype(complex)


def basic_controller_chain(horizon: int) -> tuple[float, np.ndarray]:
    """Absorbing-chain oracle for the basic controller at alpha = epsilon = 0.

    With projective measurements and basis-state dynamics, the closed loop is
    a Markov chain on levels {0, 1, 2} with rows given by squared columns of
    U_{beta(level)}.  Returns (expected steps to absorption from level 0,
    probability of absorption by each step 0..horizon from level 0).
    """
    u1 = control_unitary_closed_form(1.0)
    p = np.zeros((3, 3))
    for src, beta in ((0, 1.0), (1, 1.0)):
        u = u1 if beta == 1.0 else np.eye(3)
        p[src] = np.abs(u[:, src]) ** 2
    p[2] = [0.0, 0.0, 1.0]
    q = p[:2, :2]
    expected_steps = float(np.linalg.solve(np.eye(2) - q, np.ones(2))[0])
    absorbed = np.zeros(horizon + 1)
    dist = np.array([1.0, 0.0, 0.0])
    absorbed[0] = dist[2]
    for t in range(1, horizon + 1):
        dist = dist @ p
        absorbed[t] = dist[2]
    return expected_steps, absorbed


def averaged_map_iteration(
    rho0: np.ndarray,
    betas,
    kraus_noise,
    measurement_ops,
) -> np.ndarray:
    """Deterministic outcome-averaged iteration: sum_l M_l U N(rho) U^dag M_l^dag per step."""
    rho = np.asarray(rho0, dtype=complex)
    for beta in betas:
        noisy = np.zeros_like(rho)
        for k in kraus_noise:
            noisy += k @ rho @ k.conj().T
        u = control_unitary_closed_form(beta)
        rho = measurement_average(measurement_ops, u @ noisy @ u.conj().T)
    return rho


def gae_brute_force(rewards, values, bootstrap, dones, gamma: float, lam: float) -> np.ndarray:
    """Brute-force double-sum GAE: A_t = sum_k (gamma*lam)^k delta_{t+k} within the episode."""
    n = len(rewards)
    values_ext = list(values) + [bootstrap]
    deltas = [
        rewards[t] + gamma * values_ext[t + 1] * (1.0 - dones[t]) - values_ext[t]
        for t in range(n)
    ]
    adv = np.zeros(n)
    for t in range(n):
        coeff = 1.0
        for k in range(t, n):
            adv[t] += coeff * deltas[k]
            if dones[k]:
                break
            coeff *= gamma * lam
    return adv
