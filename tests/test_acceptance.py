"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 8 and 9 share one model-based agent trained at the documented
hyperparameters (2e5 steps, seed 777); criterion 9 is the soft robustness
ordering, asserted here because the pinned seeds make it deterministic.
"""

import numpy as np
import pytest

from qfclab.channels import (
    CONTROL_GENERATOR,
    control_unitary,
    imprecise_measurement,
    make_channel,
    terminal_measurement,
)
from qfclab.controllers import basic_policy
from qfclab.dynamics import INITIAL_STATE, EnvConfig, filter_update, run_episodes
from qfclab.harness.config import SweepConfig, TABLE_ALPHAS, TABLE_EPSILONS
from qfclab.harness.evaluate import evaluate, sweep
from qfclab.harness.report import parse_results_csv, render_curves_csv, render_results_csv
from qfclab.qcore import basis_state
from qfclab.rl import distributions as dist
from qfclab.rl.buffer import RolloutBuffer, compute_gae
from qfclab.rl.config import PpoConfig
from qfclab.rl.nets import MlpActorCritic, zero_grads_like
from qfclab.rl.ppo import sample_action, train
from qfclab.rngstream import RngStream

from oracles import (
    basic_controller_chain,
    choi_matrix,
    derive_basic_gains,
    drive_closed_loop,
    estimate_average_state,
    expm_taylor,
    averaged_map_iteration,
    gae_brute_force,
    kraus_completeness_defect,
    transfer_probability,
)

CRITERION_RESULTS: list[tuple[int, str, str, str]] = []


def check(number: int, name: str, ok: bool, detail: str = ""):
    CRITERION_RESULTS.append((number, name, "PASS" if ok else "FAIL", detail))
    assert ok, f"criterion {number} ({name}): {detail}"


@pytest.fixture(scope="module")
def mbs_agent():
    """The shared model-based agent: documented hyperparameters, fixed seed."""
    env_cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=20)
    ppo_cfg = PpoConfig(total_timesteps=200_000)  # lr 1e-4, 512-step updates
    net, _ = train("mbs", env_cfg, ppo_cfg, seed=777)
    return net


def test_criterion_01_cptp_certification():
    worst_completeness = 0.0
    worst_choi = 0.0
    for kind in ("depolarizing", "amplitude_damping", "random_permutation"):
        for alpha in TABLE_ALPHAS:
            ch = make_channel(kind, alpha)
            worst_completeness = max(worst_completeness, kraus_completeness_defect(ch.kraus_ops))
            worst_choi = min(worst_choi, float(np.linalg.eigvalsh(choi_matrix(ch.kraus_ops))[0]))
    for eps in TABLE_EPSILONS:
        m = imprecise_measurement(eps)
        worst_completeness = max(worst_completeness, kraus_completeness_defect(m.ops))
        worst_choi = min(worst_choi, float(np.linalg.eigvalsh(choi_matrix(m.ops))[0]))
    m = terminal_measurement()
    worst_completeness = max(worst_completeness, kraus_completeness_defect(m.ops))
    worst_choi = min(worst_choi, float(np.linalg.eigvalsh(choi_matrix(m.ops))[0]))
    check(
        1, "CPTP certification",
        worst_completeness <= 1e-10 and worst_choi >= -1e-9,
        f"completeness defect {worst_completeness:.2e}, min Choi eig {worst_choi:.2e}",
    )


def test_criterion_02_control_unitary_closed_form():
    worst_match = 0.0
    worst_orth = 0.0
    for beta in np.linspace(-1.0, 1.0, 101):
        u = control_unitary(beta)
        closed = expm_taylor(beta * CONTROL_GENERATOR)
        worst_match = max(worst_match, float(np.max(np.abs(u - closed))))
        worst_orth = max(
            worst_orth, float(np.max(np.abs(u @ u.conj().T - np.eye(3))))
        )
    check(
        2, "control-unitary closed form",
        worst_match <= 1e-10 and worst_orth <= 1e-10,
        f"closed-form dev {worst_match:.2e}, orthogonality dev {worst_orth:.2e}",
    )


def test_criterion_03_basic_controller_gains():
    gains = derive_basic_gains(201)
    u_oracle = expm_taylor(CONTROL_GENERATOR)
    obj0 = transfer_probability(1.0, 0)
    obj1 = transfer_probability(1.0, 1)
    dev0 = abs(obj0 - float(np.abs(u_oracle[2, 0]) ** 2))
    dev1 = abs(obj1 - float(np.abs(u_oracle[2, 1]) ** 2))
    check(
        3, "basic-controller gains",
        gains == (1.0, 1.0)
        and dev0 <= 1e-9 and dev1 <= 1e-9
        and abs(obj0 - 0.17811) <= 1e-5 and abs(obj1 - 0.48784) <= 1e-5,
        f"gains {gains}, objectives ({obj0:.5f}, {obj1:.5f})",
    )


def test_criterion_04_noiseless_closed_loop_oracle():
    expected_steps, absorbed = basic_controller_chain(20)
    p20 = absorbed[-1]
    increments = np.diff(absorbed)
    conditional_mean = float(np.sum(np.arange(1, 21) * increments) / p20)
    cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.0, horizon=20)
    cell = evaluate(basic_policy(), cfg, 1000, seed=20240, scenario="basic", f_star=0.9)
    n = cell.episodes
    freq = (n - cell.unreached_count) / n
    freq_ok = abs(freq - p20) <= 3 * np.sqrt(p20 * (1 - p20) / n)
    se_steps = cell.std_steps_to_threshold / np.sqrt(n - cell.unreached_count)
    steps_ok = abs(cell.mean_steps_to_threshold - conditional_mean) <= 3 * se_steps
    check(
        4, "noiseless closed-loop oracle",
        freq_ok and steps_ok and abs(expected_steps - 3.55) < 0.01,
        f"absorbed {freq:.4f} vs {p20:.4f}; steps {cell.mean_steps_to_threshold:.3f} "
        f"vs {conditional_mean:.3f} (unconditional oracle {expected_steps:.3f})",
    )


def test_criterion_05_filter_truth_coincidence():
    # the loop shows an mlp policy the true state at alpha = 0, so the filter
    # runs here by hand on each step's controls and outcomes
    cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=20)
    worst = 0.0
    for net_seed in range(10):
        net = MlpActorCritic(obs_dim=9, gen=RngStream(9000 + net_seed).generator())
        streams = [RngStream(9100 + net_seed, episode) for episode in range(10)]
        rho_hat = np.repeat(INITIAL_STATE[None], 10, axis=0)
        for loop in drive_closed_loop(net, cfg, streams):
            rho_hat = filter_update(rho_hat, loop.beta, loop.outcome, cfg)
            worst = max(worst, float(np.max(np.abs(rho_hat - loop.rho))))
    check(5, "filter-truth coincidence", worst <= 1e-12, f"max deviation {worst:.2e}")


def test_criterion_06_averaged_dynamics_consistency():
    from qfclab.controllers import BasicTable

    cfg = EnvConfig(noise_kind="depolarizing", alpha=0.5, epsilon=0.1, horizon=2)
    n = 100_000
    # a constant table is the outcome-independent control beta = 1 at both steps
    mc_mean = estimate_average_state(BasicTable((1.0, 1.0, 1.0)), cfg, n, RngStream(606))
    oracle = averaged_map_iteration(
        basis_state(0), [1.0, 1.0],
        make_channel("depolarizing", 0.5).kraus_ops,
        imprecise_measurement(0.1).ops,
    )
    worst = float(np.max(np.abs(mc_mean - oracle)))
    check(6, "averaged-dynamics consistency", worst <= 0.01, f"max entry dev {worst:.4f}")


def test_criterion_07_ppo_machinery():
    # 7a: gradients vs central finite differences on a frozen toy batch
    gen = np.random.default_rng(70)
    net = MlpActorCritic(obs_dim=3, n_action_outputs=1, hidden=(2, 2), gen=gen)
    obs = gen.standard_normal((8, 3))
    pre = gen.standard_normal(8)
    coeff = gen.standard_normal(8)
    heads, _, cache = net.forward(obs)
    dmean, dlogstd = dist.squashed_log_prob_grads(pre, heads[:, 0], net.log_std)
    grads = zero_grads_like(net.params)
    net.backward(cache, (coeff * dmean / 8)[:, None], np.zeros(8), grads)
    grads["log_std"] += np.sum(coeff * dlogstd) / 8
    worst_rel = 0.0
    for name, value in net.params.items():
        it = np.nditer(value, flags=["multi_index"])
        while not it.finished:
            idx = it.multi_index
            orig = float(value[idx])
            for sign in (+1, -1):
                value[idx] = orig + sign * 1e-5
                h, _, _ = net.forward(obs)
                lp = dist.squashed_log_prob(pre, h[:, 0], net.log_std)
                if sign > 0:
                    up = float(np.mean(coeff * lp))
                else:
                    down = float(np.mean(coeff * lp))
            value[idx] = orig
            fd = (up - down) / 2e-5
            denom = max(abs(fd), abs(float(grads[name][idx])), 1e-8)
            worst_rel = max(worst_rel, abs(float(grads[name][idx]) - fd) / denom)
            it.iternext()
    grad_ok = worst_rel <= 1e-4

    # 7b: GAE vs the brute-force double sum
    gen = np.random.default_rng(71)
    gae_ok = True
    for _ in range(10):
        rewards = gen.standard_normal(10)
        values = gen.standard_normal(10)
        dones = (gen.random(10) < 0.3).astype(float)
        bootstrap = float(gen.standard_normal())
        buf = RolloutBuffer(capacity=10, obs_dim=1)
        for r, v, d in zip(rewards, values, dones):
            buf.add(np.zeros(1), 0.0, 0.0, 0.0, r, v, d)
        buf.bootstrap = bootstrap
        adv, _ = compute_gae(buf, 0.99, 0.95)
        oracle = gae_brute_force(rewards, values, bootstrap, dones, 0.99, 0.95)
        gae_ok = gae_ok and bool(np.max(np.abs(adv - oracle)) <= 1e-10)

    # 7c: squashed density normalization by quadrature
    betas = np.linspace(-1 + 1e-9, 1 - 1e-9, 200_001)
    pre_grid = np.arctanh(betas)
    density = np.exp(dist.squashed_log_prob(pre_grid, 0.4, -0.3))
    quad_ok = abs(float(np.trapezoid(density, betas)) - 1.0) <= 1e-3

    # 7d: importance ratios equal one right after a parameter copy
    from test_rl_ppo import BanditEnv, collect_one

    net2 = MlpActorCritic(obs_dim=1, hidden=(16, 16), gen=RngStream(72).generator())
    buffer = collect_one(net2, 73)
    h2, _, _ = net2.forward(buffer.observations)
    lp_new = dist.squashed_log_prob(buffer.pre_squash, h2[:, 0], net2.log_std)
    ratio_ok = bool(np.max(np.abs(np.exp(lp_new - buffer.log_probs) - 1.0)) <= 1e-12)

    # 7e: 2-armed bandit converges on three fixed seeds
    bandit_ok = True
    details = []
    for seed in (11, 12, 13):
        cfg = PpoConfig(n_steps=256, learning_rate=0.01, total_timesteps=4864)
        net3 = MlpActorCritic(obs_dim=1, hidden=(16, 16),
                              gen=RngStream(seed).substream("init").generator())
        net3, _ = train("bandit", EnvConfig(), cfg, seed,
                        env_factory=lambda s: BanditEnv(s), net=net3)
        gen = np.random.default_rng(99)
        heads = net3.step(np.ones(1), None)[0]
        rate = np.mean([
            sample_action(heads, net3.log_std, gen, False)[0].beta > 0
            for _ in range(2000)
        ])
        details.append(f"{rate:.3f}")
        bandit_ok = bandit_ok and rate >= 0.95
    check(
        7, "PPO machinery",
        grad_ok and gae_ok and quad_ok and ratio_ok and bandit_ok,
        f"grad rel {worst_rel:.1e}; bandit rates {', '.join(details)}",
    )


def terminal_fidelities(policy, cfg, seed, n=200):
    """Terminal true fidelity of the episodes RngStream(seed, i), i < n."""
    (batch,) = run_episodes(policy, cfg, [RngStream(seed, i) for i in range(n)])
    assert not batch.aborted.any()
    return batch.fidelity[:, -1]


def test_criterion_08_mbs_end_to_end(mbs_agent):
    cfg = EnvConfig(noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=20)
    fids = terminal_fidelities(mbs_agent, cfg, 777)
    mean_fid = float(np.mean(fids))
    check(8, "model-based agent end-to-end", mean_fid >= 0.85, f"mean fidelity {mean_fid:.4f}")


def test_criterion_09_robustness_ordering_soft(mbs_agent):
    cfg = EnvConfig(noise_kind="random_permutation", alpha=0.3, epsilon=0.1, horizon=20)
    f_mbs = float(np.mean(terminal_fidelities(mbs_agent, cfg, 42)))
    f_basic = float(np.mean(terminal_fidelities(basic_policy(), cfg, 42)))
    check(
        9, "robustness ordering (soft)",
        f_mbs >= f_basic - 0.05,
        f"MBs {f_mbs:.4f} vs basic {f_basic:.4f} (allowance 0.05)",
    )


def test_criterion_10_harness_determinism(tmp_path):
    cfg = SweepConfig(
        scenarios=("basic",),
        noises=("depolarizing",),
        alphas=(0.0, 0.5),
        epsilons=(0.1,),
        episodes=100,
        horizon=10,
        master_seed=1001,
        checkpoint_dir=str(tmp_path / "ck"),
        output_dir=str(tmp_path / "out"),
    )
    results = sweep(cfg)
    first = render_results_csv(results)
    second = render_results_csv(sweep(cfg))
    rerun_ok = first == second

    # recompute one deleted cell through the resume path; a resumed row needs its curve
    cells = parse_results_csv(first, render_curves_csv(results))
    resume = {c.key(): c for c in cells[:-1]}
    resumed = render_results_csv(sweep(cfg, resume_results=resume))
    check(
        10, "harness determinism",
        rerun_ok and resumed == first,
        "two-cell sweep byte-identical; deleted cell recomputed exactly",
    )
