"""Tanh-squashed Gaussian control distribution, with an optional Bernoulli stop.

The pre-squash sample is what gets stored in rollout buffers; re-evaluating a
log-probability under new parameters therefore only touches the Gaussian part
(the tanh change-of-variables correction depends on the fixed sample alone).
"""

from __future__ import annotations

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))
GAUSSIAN_ENTROPY_CONST = 0.5 * (1.0 + LOG_2PI)


def softplus(x):
    return np.logaddexp(0.0, x)


def sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def tanh_correction(pre_squash):
    """log|d tanh(z)/dz| = log(1 - tanh(z)^2), evaluated stably."""
    return 2.0 * (np.log(2.0) - pre_squash - softplus(-2.0 * pre_squash))


def gaussian_log_prob(pre_squash, mean, log_std):
    z = (pre_squash - mean) / np.exp(log_std)
    return -0.5 * z * z - log_std - 0.5 * LOG_2PI


def squashed_log_prob(pre_squash, mean, log_std):
    """log-density of beta = tanh(z) with z ~ N(mean, exp(log_std)^2)."""
    return gaussian_log_prob(pre_squash, mean, log_std) - tanh_correction(pre_squash)


def squashed_log_prob_grads(pre_squash, mean, log_std):
    """(d logp / d mean, d logp / d log_std); the correction term has no parameter grad."""
    std = np.exp(log_std)
    z = (pre_squash - mean) / std
    return z / std, z * z - 1.0


def sample_squashed(mean, log_std, gen: np.random.Generator):
    """Draw (beta, pre-squash sample)."""
    pre = mean + np.exp(log_std) * gen.standard_normal()
    return float(np.tanh(pre)), float(pre)


def bernoulli_log_prob(flag, logit):
    """log P(flag) for flag ~ Bernoulli(sigmoid(logit)); flag in {0.0, 1.0}."""
    return -softplus(-logit) * flag - softplus(logit) * (1.0 - flag)


def bernoulli_log_prob_grad(flag, logit):
    return flag - sigmoid(logit)


def bernoulli_entropy(logit):
    s = sigmoid(logit)
    return s * softplus(-logit) + (1.0 - s) * softplus(logit)


def gaussian_entropy(log_std):
    """Differential entropy of the pre-squash Gaussian (d entropy/d log_std = 1)."""
    return GAUSSIAN_ENTROPY_CONST + log_std
