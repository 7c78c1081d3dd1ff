"""Gradient verification for the hand-written networks against central finite differences,
and of the packed recurrent training path against the zero-padded one."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfclab.dynamics import EnvConfig
from qfclab.rl import distributions as dist
from qfclab.rl.nets import (
    Adam,
    FlatParams,
    MlpActorCritic,
    RecurrentActorCritic,
    orthogonal,
    validate_params,
    zero_grads_like,
)
from qfclab.rl.ppo import default_ppo_config, train

from oracles import (
    packed_sequence_backward,
    packed_sequence_forward,
    padded_recurrent_pass,
    two_cell_step,
)

FD_STEP = 1e-5
REL_TOL = 1e-4


def numerical_grads(params, loss_fn):
    """Central finite differences of loss_fn() w.r.t. every parameter entry."""
    grads = {}
    for name, value in params.items():
        g = np.zeros_like(value)
        it = np.nditer(value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index  # () for scalars, which still index in place
            orig = float(value[idx])
            value[idx] = orig + FD_STEP
            up = loss_fn()
            value[idx] = orig - FD_STEP
            down = loss_fn()
            value[idx] = orig
            g[idx] = (up - down) / (2 * FD_STEP)
            it.iternext()
        grads[name] = g
    return grads


def assert_grads_close(analytic, numerical, rel_tol=REL_TOL):
    for name in numerical:
        a, n = analytic[name], numerical[name]
        denom = max(float(np.max(np.abs(n))), float(np.max(np.abs(a))), 1e-8)
        worst = float(np.max(np.abs(a - n))) / denom
        assert worst <= rel_tol, f"{name}: relative gradient error {worst:.2e}"


class TestMlpGradients:
    """Toy 2-unit network, frozen batch, three losses checked against FD."""

    def setup_method(self):
        gen = np.random.default_rng(42)
        self.net = MlpActorCritic(obs_dim=3, n_action_outputs=1, hidden=(2, 2), gen=gen)
        self.obs = gen.standard_normal((6, 3))
        self.pre = gen.standard_normal(6)
        self.coeff = gen.standard_normal(6)  # stand-in for advantage weights
        self.returns = gen.standard_normal(6)

    def weighted_logp(self):
        heads, _, _ = self.net.forward(self.obs)
        lp = dist.squashed_log_prob(self.pre, heads[:, 0], self.net.log_std)
        return float(np.mean(self.coeff * lp))

    def value_loss(self):
        _, values, _ = self.net.forward(self.obs)
        return float(np.mean((values - self.returns) ** 2))

    def entropy(self):
        return float(dist.gaussian_entropy(self.net.log_std))

    def test_policy_log_prob_gradient(self):
        heads, _, cache = self.net.forward(self.obs)
        dmean, dlogstd_per = dist.squashed_log_prob_grads(
            self.pre, heads[:, 0], self.net.log_std
        )
        n = len(self.obs)
        grads = zero_grads_like(self.net.params)
        self.net.backward(cache, (self.coeff * dmean / n)[:, None], np.zeros(n), grads)
        grads["log_std"] += np.sum(self.coeff * dlogstd_per) / n
        numeric = numerical_grads(self.net.params, self.weighted_logp)
        assert_grads_close(grads, numeric)

    def test_value_loss_gradient(self):
        _, values, cache = self.net.forward(self.obs)
        n = len(self.obs)
        grads = zero_grads_like(self.net.params)
        self.net.backward(
            cache, np.zeros((n, 1)), 2.0 * (values - self.returns) / n, grads
        )
        numeric = numerical_grads(self.net.params, self.value_loss)
        # value loss touches only the value trunk; policy grads must be zero
        for name, g in grads.items():
            if name.startswith("pi.") or name == "log_std":
                assert np.all(g == 0.0)
        assert_grads_close(
            {k: v for k, v in grads.items() if k.startswith("vf.")},
            {k: v for k, v in numeric.items() if k.startswith("vf.")},
        )

    def test_entropy_gradient(self):
        numeric = numerical_grads(
            {"log_std": self.net.params["log_std"]}, self.entropy
        )
        assert numeric["log_std"] == pytest.approx(1.0, rel=1e-6)


class TestRecurrentGradients:
    """LSTM + MLP trunk BPTT checked against FD on a frozen 2-sequence batch."""

    def setup_method(self):
        gen = np.random.default_rng(7)
        self.net = RecurrentActorCritic(
            obs_dim=2, n_action_outputs=2, hidden=(3,), lstm_hidden=4, gen=gen
        )
        self.lengths = (5, 3)  # sequences of unequal length
        n = sum(self.lengths)
        self.obs = gen.standard_normal((n, 2))
        self.pre = gen.standard_normal(n)
        self.stops = (gen.random(n) < 0.5).astype(float)
        self.coeff = gen.standard_normal(n)
        self.returns = gen.standard_normal(n)
        self.init = (np.zeros((2, 2, 4)), np.zeros((2, 2, 4)))

    def joint_logp(self):
        heads, _, _ = self.net.sequence_forward(self.obs, self.lengths, self.init)
        lp = dist.squashed_log_prob(self.pre, heads[:, 0], self.net.log_std)
        lp = lp + dist.bernoulli_log_prob(self.stops, heads[:, 1])
        return float(np.mean(self.coeff * lp))

    def value_loss(self):
        _, values, _ = self.net.sequence_forward(self.obs, self.lengths, self.init)
        return float(np.mean((values - self.returns) ** 2))

    def test_joint_log_prob_gradient(self):
        heads, _, cache = self.net.sequence_forward(self.obs, self.lengths, self.init)
        mean, logit = heads[:, 0], heads[:, 1]
        n = len(self.obs)
        dmean, dlogstd_per = dist.squashed_log_prob_grads(self.pre, mean, self.net.log_std)
        dheads = np.stack(
            [self.coeff * dmean / n,
             self.coeff * dist.bernoulli_log_prob_grad(self.stops, logit) / n],
            axis=1,
        )
        grads = zero_grads_like(self.net.params)
        self.net.sequence_backward(cache, dheads, np.zeros(n), grads)
        grads["log_std"] += np.sum(self.coeff * dlogstd_per) / n
        numeric = numerical_grads(self.net.params, self.joint_logp)
        keep = [k for k in numeric if k.startswith(("pi", "log_std"))]
        assert_grads_close(
            {k: grads[k] for k in keep}, {k: numeric[k] for k in keep}
        )

    def test_value_loss_gradient(self):
        _, values, cache = self.net.sequence_forward(self.obs, self.lengths, self.init)
        n = len(self.obs)
        grads = zero_grads_like(self.net.params)
        self.net.sequence_backward(
            cache, np.zeros((n, 2)), 2.0 * (values - self.returns) / n, grads
        )
        numeric = numerical_grads(self.net.params, self.value_loss)
        keep = [k for k in numeric if k.startswith("vf")]
        assert_grads_close({k: grads[k] for k in keep}, {k: numeric[k] for k in keep})

    def test_single_step_matches_sequence_forward(self):
        state = self.net.initial_state()
        for t in range(3):
            heads_step, value_step, state = self.net.step(self.obs[t], state)
            heads_seq, values_seq, _ = self.net.sequence_forward(
                self.obs[: t + 1], (t + 1,), (np.zeros((2, 1, 4)), np.zeros((2, 1, 4)))
            )
            np.testing.assert_allclose(heads_step, heads_seq[t], atol=1e-12)
            assert value_step == pytest.approx(values_seq[t], abs=1e-12)


def assert_rel_close(got, want, rel_tol, name):
    scale = max(float(np.max(np.abs(want))), 1e-300)
    worst = float(np.max(np.abs(got - want))) / scale
    assert worst <= rel_tol, f"{name}: relative deviation {worst:.2e}"


class TestPackedMatchesPadded:
    """The packed sequence path against the zero-padded (n_seq, T) grid it replaced."""

    @settings(max_examples=40)
    @given(
        lengths=st.lists(st.integers(1, 20), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(lengths=[1], seed=0)
    @example(lengths=[4, 1, 4, 1, 1, 7, 7], seed=1)
    def test_heads_values_and_grads_match_the_padded_oracle(self, lengths, seed):
        gen = np.random.default_rng(seed)
        net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(8, 8),
                                   lstm_hidden=5, gen=gen)
        n, n_seq = sum(lengths), len(lengths)
        obs = gen.standard_normal((n, 2))
        h_pi, c_pi, h_vf, c_vf = (gen.uniform(-1.0, 1.0, (n_seq, 5)) for _ in range(4))
        init_state = (np.stack([h_pi, h_vf]), np.stack([c_pi, c_vf]))
        dheads = gen.standard_normal((n, 2))
        dvalues = gen.standard_normal(n)

        heads, values, cache = net.sequence_forward(obs, lengths, init_state)
        grads = zero_grads_like(net.params)
        net.sequence_backward(cache, dheads, dvalues, grads)
        ref_heads, ref_values, ref_grads = padded_recurrent_pass(
            net, obs, lengths, init_state, dheads, dvalues
        )
        assert_rel_close(heads, ref_heads, 1e-12, "heads")
        assert_rel_close(values, ref_values, 1e-12, "values")
        for name in net.params:
            if name != "log_std":  # the PPO loss adds its gradient, not the net
                assert_rel_close(grads[name], ref_grads[name], 1e-12, name)


class TestRecurrentMatchesTheAllocatingOracle:
    """The in-place packed passes and the stacked step against the allocating code
    they replaced (``tests/oracles.py``), byte for byte."""

    @settings(max_examples=40)
    @given(
        first=st.lists(st.integers(1, 12), min_size=1, max_size=20),
        lengths=st.lists(st.integers(1, 20), min_size=1, max_size=30),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(first=[3], lengths=[1, 1, 1, 1, 1], seed=0)  # every sequence one step long
    @example(first=[1, 1], lengths=[6, 2, 2, 1], seed=1)  # tail steps with one live row
    @example(first=[20, 20, 20], lengths=[2], seed=2)  # a smaller batch after a larger one
    def test_forward_and_backward(self, first, lengths, seed):
        gen = np.random.default_rng(seed)
        net = RecurrentActorCritic(obs_dim=2, n_action_outputs=2, hidden=(8, 8),
                                   lstm_hidden=5, gen=gen)

        def batch(lengths):  # rows, nonzero start states and upstream gradients
            n, n_seq = sum(lengths), len(lengths)
            state = tuple(gen.uniform(-1.0, 1.0, (2, n_seq, 5)) for _ in range(2))
            return gen.standard_normal((n, 2)), state, gen.standard_normal((n, 2)), \
                gen.standard_normal(n)

        # a first forward and backward, of another size, leave the net's buffers used
        obs, state, dheads, dvalues = batch(first)
        _, _, cache = net.sequence_forward(obs, first, state)
        net.sequence_backward(cache, dheads, dvalues, zero_grads_like(net.params))

        obs, state, dheads, dvalues = batch(lengths)
        state_bytes = [a.tobytes() for a in state]
        heads, values, cache = net.sequence_forward(obs, lengths, state)
        grads = zero_grads_like(net.params)
        net.sequence_backward(cache, dheads, dvalues, grads)
        ref_heads, ref_values, ref_cache = packed_sequence_forward(net, obs, lengths, state)
        ref_grads = zero_grads_like(net.params)
        packed_sequence_backward(net, ref_cache, dheads, dvalues, ref_grads)
        assert heads.tobytes() == ref_heads.tobytes()
        assert values.tobytes() == ref_values.tobytes()
        for name in net.params:
            assert grads[name].tobytes() == ref_grads[name].tobytes(), name
        assert [a.tobytes() for a in state] == state_bytes

    @pytest.mark.parametrize("shape", [dict(), dict(hidden=(8, 8), lstm_hidden=5)],
                             ids=["appendix", "wide-trunk"])
    def test_300_chained_steps(self, shape):
        net = RecurrentActorCritic(obs_dim=2, gen=np.random.default_rng(11), **shape)
        state = ref_state = net.initial_state()
        for obs in np.random.default_rng(12).standard_normal((300, 2)):
            heads, value, state = net.step(obs, state)
            ref_heads, ref_value, ref_state = two_cell_step(net, obs, ref_state)
            assert heads.tobytes() == ref_heads.tobytes()
            assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
            assert [a.tobytes() for a in state] == [a.tobytes() for a in ref_state]


class TestRolloutStack:
    """The rollout paths on a stack (n, obs_dim) equal the one-observation paths bit for bit."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_stacked_values_and_heads_equal_the_row_values(self, order):
        net = MlpActorCritic(obs_dim=9, gen=np.random.default_rng(8))
        # a wide orthogonal init comes out Fortran-ordered; a copy may not be, and
        # new parameters built from it keep the copy's order
        arrays = dict(net.params)
        arrays["vf.w0"] = np.array(net.params["vf.w0"], order=order)
        net.params = FlatParams(arrays)
        assert net.params["vf.w0"].flags[f"{order}_CONTIGUOUS"]
        obs = np.random.default_rng(9).standard_normal((13, 9))
        values = net.value(obs)
        assert values.shape == (13,)
        assert values.tobytes() == np.array([net.value(row) for row in obs]).tobytes()
        assert isinstance(net.value(obs[0]), float)
        heads = net.policy_head(obs)
        assert heads.tobytes() == np.array([net.policy_head(row) for row in obs]).tobytes()


class TestOrthogonalInit:
    def test_columns_orthonormal(self):
        gen = np.random.default_rng(3)
        w = orthogonal((8, 4), 1.0, gen)
        np.testing.assert_allclose(w.T @ w, np.eye(4), atol=1e-12)

    def test_gain_scales_norm(self):
        gen = np.random.default_rng(3)
        w = orthogonal((6, 6), 0.01, gen)
        np.testing.assert_allclose(w @ w.T, 1e-4 * np.eye(6), atol=1e-14)


class TestAdam:
    def test_descends_a_quadratic(self):
        params = FlatParams({"x": np.array([5.0, -3.0])})
        adam = Adam(learning_rate=0.1)
        for _ in range(500):
            adam.step(params, FlatParams({"x": 2.0 * params["x"]}))
        np.testing.assert_allclose(params["x"], 0.0, atol=1e-3)

    def test_gradient_norm_clipping(self):
        params = FlatParams({"x": np.zeros(4)})
        adam = Adam(learning_rate=1.0)
        reported = adam.step(params, FlatParams({"x": np.full(4, 10.0)}))
        assert reported == pytest.approx(20.0)

    def test_log_std_clamped(self):
        params = FlatParams({"log_std": np.array(1.99)})
        adam = Adam(learning_rate=10.0)
        for _ in range(5):
            adam.step(params, FlatParams({"log_std": np.array(-1.0)}))
        assert float(params["log_std"]) <= 2.0
        validate_params(params)


#: the first-layer weights; orthogonal makes them Fortran-ordered when wide
FIRST_LAYERS = ("pi.w0", "vf.w0", "pi_lstm.wx", "vf_lstm.wx")


def assert_flat_layout(net):
    """Every parameter is a view into ``net.params.flat``, the views tile it
    exactly once in the order of its layout (a pair side by side, with its
    stack a view of both), and wide first-layer weights are Fortran-ordered."""
    params = net.params
    flat = params.flat
    entries = [entry if isinstance(entry, tuple) else (entry,) for entry in params.layout]
    assert sorted(name for names in entries for name in names) == sorted(params)
    offset = 0
    for names in entries:
        for j, name in enumerate(names):
            value = params[name]
            assert np.shares_memory(value, flat), name
            assert value.flags.c_contiguous or value.flags.f_contiguous, name
            start = value.__array_interface__["data"][0] - flat.__array_interface__["data"][0]
            assert start == offset * flat.itemsize, name
            offset += value.size
            if len(names) > 1:
                assert params.stacks[names[0]][j].__array_interface__ == value.__array_interface__
    assert offset == flat.size
    if net.kind == "lstm":  # every policy array but the head steps with its value twin
        assert sorted(params.stacks) == sorted(
            name for name in params if name.startswith("pi") and name not in ("pi.wh", "pi.bh"))
    wide = [name for name in FIRST_LAYERS
            if name in net.params and net.params[name].shape[0] < net.params[name].shape[1]]
    assert len(wide) == 2
    for name in wide:
        assert net.params[name].flags.f_contiguous, name
        assert not net.params[name].flags.c_contiguous, name


class TestFlatLayout:
    @pytest.mark.parametrize("net", [MlpActorCritic(obs_dim=9), RecurrentActorCritic(obs_dim=2)],
                             ids=["mlp", "lstm"])
    def test_after_construction(self, net):
        assert_flat_layout(net)

    @pytest.mark.parametrize("scenario", ["dbs", "qomdp"])
    def test_after_two_ppo_updates(self, scenario):
        env_cfg = EnvConfig(noise_kind="depolarizing", alpha=0.3, epsilon=0.1)
        net, curve = train(scenario, env_cfg, default_ppo_config(scenario, total_timesteps=1024),
                           seed=4)
        assert len(curve) == 2
        assert_flat_layout(net)

    @pytest.mark.parametrize("net", [MlpActorCritic(obs_dim=9), RecurrentActorCritic(obs_dim=2)],
                             ids=["mlp", "lstm"])
    def test_rebinding_a_parameter_is_refused(self, net):
        before = net.params["vf.w0"]
        with pytest.raises(TypeError, match="assign into it"):
            net.params["vf.w0"] = np.zeros_like(before)
        with pytest.raises(TypeError):
            net.params["extra"] = np.zeros(3)
        with pytest.raises(TypeError):
            net.params.update({"vf.w0": np.zeros_like(before)})
        net.params["vf.w0"] *= 2.0  # in place: the same view is stored back
        assert net.params["vf.w0"] is before
        assert_flat_layout(net)

    @pytest.mark.parametrize("copy_of", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                             ids=["deepcopy", "pickle"])
    @pytest.mark.parametrize("net", [MlpActorCritic(obs_dim=9), RecurrentActorCritic(obs_dim=2)],
                             ids=["mlp", "lstm"])
    def test_a_copy_has_its_own_flat_vector(self, net, copy_of):
        twin = copy_of(net)
        assert twin.params.layout == net.params.layout
        assert_flat_layout(twin)
        assert not np.shares_memory(twin.params.flat, net.params.flat)
        for name, value in net.params.items():
            assert twin.params[name].strides == value.strides, name
            assert twin.params[name].tobytes() == value.tobytes(), name
        twin.params.flat[...] = 0.0
        assert all(not value.any() for value in twin.params.values())
        assert net.params["pi.w0"].any()

    def test_validate_names_the_non_finite_parameter(self):
        net = MlpActorCritic(obs_dim=3, hidden=(2,))
        net.params["vf.b0"][1] = np.nan
        with pytest.raises(FloatingPointError, match="parameter vf.b0 contains"):
            validate_params(net.params)
