"""GAE correctness against the brute-force double sum and hand-unrolled cases."""

import numpy as np
import pytest

from qfclab.rl.buffer import compute_gae

from oracles import gae_brute_force


class TestComputeGae:
    def test_lambda_zero_reduces_to_one_step_advantage(self):
        rewards = [1.0, 0.5, -0.2, 2.0]
        values = [0.3, 0.1, 0.4, 0.2]
        dones = [0.0, 0.0, 0.0, 0.0]
        adv, _ = compute_gae(rewards, values, dones, 0.7, gamma=0.9, lam=0.0)
        values_ext = values + [0.7]
        deltas = [
            rewards[t] + 0.9 * values_ext[t + 1] - values[t] for t in range(4)
        ]
        np.testing.assert_allclose(adv, deltas, atol=1e-12)

    def test_monte_carlo_limit(self):
        # gamma=1, lambda=1, zero values: advantage is the sum of remaining rewards
        rewards = [1.0, 0.0, 2.0, -1.0]
        adv, ret = compute_gae(rewards, [0.0] * 4, [0.0] * 4, 0.0, gamma=1.0, lam=1.0)
        np.testing.assert_allclose(adv, [2.0, 1.0, 1.0, -1.0], atol=1e-12)
        np.testing.assert_allclose(ret, adv, atol=1e-12)

    def test_three_step_hand_case(self):
        # r=(1,0,1), V=(0.5,0.5,0.5), bootstrap 0, gamma=0.9, lambda=0.8, no dones
        adv, ret = compute_gae([1.0, 0.0, 1.0], [0.5] * 3, [0.0] * 3, 0.0, gamma=0.9, lam=0.8)
        d2 = 1.0 + 0.9 * 0.0 - 0.5
        d1 = 0.0 + 0.9 * 0.5 - 0.5
        d0 = 1.0 + 0.9 * 0.5 - 0.5
        a2 = d2
        a1 = d1 + 0.9 * 0.8 * a2
        a0 = d0 + 0.9 * 0.8 * a1
        np.testing.assert_allclose(adv, [a0, a1, a2], atol=1e-12)
        np.testing.assert_allclose(ret, adv + 0.5, atol=1e-12)

    def test_matches_brute_force_double_sum_on_random_buffers(self):
        gen = np.random.default_rng(17)
        for _ in range(20):
            n = 10
            rewards = gen.standard_normal(n)
            values = gen.standard_normal(n)
            dones = (gen.random(n) < 0.25).astype(float)
            bootstrap = float(gen.standard_normal())
            gamma, lam = float(gen.uniform(0.8, 1.0)), float(gen.uniform(0.5, 1.0))
            adv, _ = compute_gae(rewards, values, dones, bootstrap, gamma, lam)
            oracle = gae_brute_force(rewards, values, bootstrap, dones, gamma, lam)
            np.testing.assert_allclose(adv, oracle, atol=1e-10)

    def test_done_masks_bootstrap(self):
        adv, _ = compute_gae([1.0], [0.0], [1.0], 99.0, gamma=0.9, lam=0.9)
        assert adv[0] == pytest.approx(1.0)
