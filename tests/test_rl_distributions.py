"""Squashed-Gaussian and Bernoulli distribution checks, quadrature-based."""

import numpy as np
import pytest

from qfclab.rl import distributions as dist


class TestSquashedGaussian:
    def test_density_integrates_to_one(self):
        # integrate the density of beta = tanh(z) over (-1, 1) by quadrature
        for mean, log_std in [(0.0, 0.0), (0.8, -0.5), (-1.5, 0.3), (2.0, -1.0)]:
            betas = np.linspace(-1 + 1e-9, 1 - 1e-9, 400_001)
            pre = np.arctanh(betas)
            densities = np.exp(dist.squashed_log_prob(pre, mean, log_std))
            integral = np.trapezoid(densities, betas)
            assert integral == pytest.approx(1.0, abs=1e-3)

    def test_saturation_at_large_mean(self):
        gen = np.random.default_rng(0)
        beta, _ = dist.sample_squashed(30.0, 0.0, gen)
        assert beta == pytest.approx(1.0, abs=1e-9)

    def test_zero_mean_samples_are_symmetric(self):
        gen = np.random.default_rng(1)
        n = 10_000
        betas = np.array([dist.sample_squashed(0.0, 0.0, gen)[0] for _ in range(n)])
        # tanh of a zero-mean Gaussian is symmetric about zero
        sigma = betas.std() / np.sqrt(n)
        assert abs(betas.mean()) <= 3 * sigma

    def test_log_prob_grads_match_fd(self):
        mean, log_std, pre = 0.3, -0.2, 0.9
        h = 1e-6
        dmean, dlogstd = dist.squashed_log_prob_grads(pre, mean, log_std)
        fd_mean = (
            dist.squashed_log_prob(pre, mean + h, log_std)
            - dist.squashed_log_prob(pre, mean - h, log_std)
        ) / (2 * h)
        fd_logstd = (
            dist.squashed_log_prob(pre, mean, log_std + h)
            - dist.squashed_log_prob(pre, mean, log_std - h)
        ) / (2 * h)
        assert dmean == pytest.approx(fd_mean, rel=1e-6)
        assert dlogstd == pytest.approx(fd_logstd, rel=1e-6)

    def test_correction_matches_naive_formula(self):
        z = np.linspace(-3, 3, 101)
        naive = np.log(1.0 - np.tanh(z) ** 2)
        np.testing.assert_allclose(dist.tanh_correction(z), naive, atol=1e-12)


class TestBernoulliStop:
    def test_zero_logit_gives_half_rate(self):
        gen = np.random.default_rng(2)
        n = 10_000
        stops = np.array([gen.random() < dist.sigmoid(0.0) for _ in range(n)])
        assert abs(stops.mean() - 0.5) <= 3 * 0.5 / np.sqrt(n)

    def test_log_probs_sum_to_one(self):
        for logit in (-2.0, 0.0, 1.3):
            total = np.exp(dist.bernoulli_log_prob(1.0, logit)) + np.exp(
                dist.bernoulli_log_prob(0.0, logit)
            )
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_grads_match_fd(self):
        h = 1e-6
        for logit in (-1.0, 0.4):
            for flag in (0.0, 1.0):
                fd = (
                    dist.bernoulli_log_prob(flag, logit + h)
                    - dist.bernoulli_log_prob(flag, logit - h)
                ) / (2 * h)
                assert dist.bernoulli_log_prob_grad(flag, logit) == pytest.approx(fd, rel=1e-6)

    def test_entropy_peaks_at_even_odds(self):
        assert dist.bernoulli_entropy(0.0) == pytest.approx(np.log(2.0))
        assert dist.bernoulli_entropy(3.0) < dist.bernoulli_entropy(0.5)
