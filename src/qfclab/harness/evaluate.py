"""Grid evaluation: per-cell episode batches, thresholds, and the sweep driver.

Every cell's randomness is keyed by (master seed, scenario, noise, alpha,
epsilon) through a documented splitmix64 mix, so cells are order-independent:
any single deleted cell recomputes bit-identically, and worker parallelism
(capped by the QFC_THREADS environment variable) cannot change results.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..controllers import Policy, basic_policy
from ..dynamics import EnvConfig, FilterDivergenceError, run_episode
from ..rngstream import RngStream, hash_label, mix64
from ..rl.checkpoint import load_policy, save_policy
from ..rl.ppo import default_ppo_config, train
from .config import SweepConfig


class MissingCheckpointError(FileNotFoundError):
    """An RL scenario cell has no trained agent and training on demand is off."""


@dataclass(frozen=True)
class CellResult:
    """Aggregated validation statistics for one (scenario, noise, alpha, epsilon) cell."""

    scenario: str
    noise: str
    alpha: float
    epsilon: float
    seed: int
    episodes: int
    aborted: int
    mean_fidelity: float
    std_fidelity: float
    mean_steps_to_threshold: float  # nan when no episode reached the threshold
    std_steps_to_threshold: float
    unreached_count: int
    fidelity_curve: tuple[float, ...] = ()

    def key(self) -> tuple:
        return (self.scenario, self.noise, self.alpha, self.epsilon)


def cell_seed(master_seed: int, scenario: str, noise: str, alpha: float, epsilon: float) -> int:
    """Documented mix: splitmix64 over the master seed and the cell label hash."""
    label = f"{scenario}|{noise}|{alpha:.17g}|{epsilon:.17g}"
    return mix64(master_seed, hash_label(label))


def observation_mode_for(policy: Policy) -> str:
    """Validation observations per scenario: filtered state for feed-forward
    networks, raw outcomes for table, open-loop and recurrent policies."""
    return "filtered_state" if policy.kind == "mlp" else "outcome_history"


def _first_crossing(curve: np.ndarray, f_star: float) -> int | None:
    hits = np.nonzero(curve >= f_star)[0]
    return int(hits[0]) if hits.size else None


def evaluate(
    policy: Policy,
    env_cfg: EnvConfig,
    n: int,
    seed: int,
    scenario: str = "basic",
    f_star: float = 0.9,
) -> CellResult:
    """Run n seeded validation episodes of the true noisy dynamics and aggregate.

    Steps-to-threshold statistics count the first step whose running true
    fidelity reaches ``f_star``; episodes that never reach it are excluded
    from the mean and surfaced in ``unreached_count``.  Filter-divergence
    aborts are counted, never silently folded into the statistics.
    """
    mode = observation_mode_for(policy)
    terminal: list[float] = []
    crossings: list[int] = []
    unreached = 0
    aborted = 0
    curve_sum = np.zeros(env_cfg.horizon + 1)
    for i in range(n):
        try:
            trace = run_episode(policy, env_cfg, RngStream(seed, i), mode)
        except FilterDivergenceError:
            aborted += 1
            continue
        terminal.append(trace.terminal_fidelity)
        curve = trace.fidelity_curve()
        if len(curve) < env_cfg.horizon + 1:  # early stop: hold the last value
            curve = np.concatenate(
                [curve, np.full(env_cfg.horizon + 1 - len(curve), curve[-1])]
            )
        curve_sum += curve
        cross = _first_crossing(curve, f_star)
        if cross is None:
            unreached += 1
        else:
            crossings.append(cross)
    completed = len(terminal)
    mean_fid = float(np.mean(terminal)) if completed else np.nan
    std_fid = float(np.std(terminal)) if completed else np.nan
    mean_steps = float(np.mean(crossings)) if crossings else np.nan
    std_steps = float(np.std(crossings)) if crossings else np.nan
    curve = tuple((curve_sum / completed).tolist()) if completed else ()
    return CellResult(
        scenario=scenario,
        noise=env_cfg.noise_kind,
        alpha=env_cfg.alpha,
        epsilon=env_cfg.epsilon,
        seed=seed,
        episodes=completed,
        aborted=aborted,
        mean_fidelity=mean_fid,
        std_fidelity=std_fid,
        mean_steps_to_threshold=mean_steps,
        std_steps_to_threshold=std_steps,
        unreached_count=unreached,
        fidelity_curve=curve,
    )


# -- checkpoint pairing per the training/validation matrix --


def checkpoint_name(scenario: str, noise: str, alpha: float, epsilon: float) -> str:
    """Model-based and measurement-only agents train noise-free (one per epsilon);
    data-based agents train per (noise, alpha, epsilon)."""
    if scenario in ("mbs", "qomdp"):
        return f"{scenario}_eps{epsilon:g}.ckpt"
    return f"dbs_{noise}_alpha{alpha:g}_eps{epsilon:g}.ckpt"


def _train_agent(scenario, noise, alpha, epsilon, cfg: SweepConfig, path: Path) -> None:
    train_seed = mix64(cfg.master_seed, hash_label(f"train|{path.name}"))
    env_cfg = EnvConfig(
        noise_kind=noise, alpha=alpha, epsilon=epsilon, horizon=cfg.horizon
    )
    ppo_cfg = default_ppo_config(scenario, total_timesteps=cfg.train_timesteps)
    net, _ = train(scenario, env_cfg, ppo_cfg, train_seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_policy(
        path, net, scenario,
        {"noise": noise, "alpha": alpha, "epsilon": epsilon,
         "seed": train_seed, "timesteps": cfg.train_timesteps},
    )


def resolve_policy(scenario, noise, alpha, epsilon, cfg: SweepConfig) -> Policy | str:
    """Return the basic policy, or the checkpoint path for an RL scenario
    (training it first when allowed)."""
    if scenario == "basic":
        return basic_policy()
    path = Path(cfg.checkpoint_dir) / checkpoint_name(scenario, noise, alpha, epsilon)
    if not path.exists():
        if not cfg.train_on_demand:
            raise MissingCheckpointError(
                f"cell ({scenario}, {noise}, alpha={alpha:g}, epsilon={epsilon:g}) "
                f"needs checkpoint {path}; enable train_on_demand or train it first"
            )
        _train_agent(scenario, noise, alpha, epsilon, cfg, path)
    return str(path)


def _evaluate_cell(args) -> CellResult:
    scenario, noise, alpha, epsilon, policy_source, episodes, horizon, f_star, seed = args
    policy = load_policy(policy_source)[0] if isinstance(policy_source, str) else policy_source
    env_cfg = EnvConfig(noise_kind=noise, alpha=alpha, epsilon=epsilon, horizon=horizon)
    return evaluate(policy, env_cfg, episodes, seed, scenario=scenario, f_star=f_star)


def worker_count() -> int:
    """Parallelism cap from QFC_THREADS (default 1 = run inline)."""
    raw = os.environ.get("QFC_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def sweep(cfg: SweepConfig, resume_results: dict[tuple, CellResult] | None = None):
    """Evaluate every (scenario, noise, alpha, epsilon) cell of the grid.

    ``resume_results`` maps cell keys to already-completed results, which are
    returned as-is (cells are seed-keyed by identity, so recomputing any one
    reproduces it exactly).  RL checkpoints are resolved (or trained) up
    front, then cells evaluate independently, in parallel when QFC_THREADS
    allows.
    """
    resume_results = resume_results or {}
    jobs = []
    results: dict[tuple, CellResult] = {}
    for scenario in cfg.scenarios:
        for noise in cfg.noises:
            for alpha in cfg.alphas:
                for epsilon in cfg.epsilons:
                    key = (scenario, noise, alpha, epsilon)
                    if key in resume_results:
                        results[key] = resume_results[key]
                        continue
                    source = resolve_policy(scenario, noise, alpha, epsilon, cfg)
                    seed = cell_seed(cfg.master_seed, scenario, noise, alpha, epsilon)
                    jobs.append(
                        (scenario, noise, alpha, epsilon, source,
                         cfg.episodes, cfg.horizon, cfg.f_star, seed)
                    )
    workers = worker_count()
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for cell in pool.map(_evaluate_cell, jobs):
                results[cell.key()] = cell
    else:
        for job in jobs:
            cell = _evaluate_cell(job)
            results[cell.key()] = cell
    return [results[k] for k in sorted(results)]


def threshold_alpha(results: list[CellResult], f_star: float) -> dict[tuple, float | None]:
    """Largest grid alpha per (scenario, noise, epsilon) whose mean terminal
    fidelity still reaches f_star; None when even the smallest alpha fails."""
    summary: dict[tuple, float | None] = {}
    for cell in results:
        key = (cell.scenario, cell.noise, cell.epsilon)
        summary.setdefault(key, None)
        if np.isfinite(cell.mean_fidelity) and cell.mean_fidelity >= f_star:
            best = summary[key]
            if best is None or cell.alpha > best:
                summary[key] = cell.alpha
    return summary


def steps_to_threshold(results: list[CellResult], f_star: float) -> dict[tuple, tuple]:
    """Tabulate per-cell steps-to-threshold statistics recorded at evaluation time.

    Per-episode crossing steps are aggregated inside :func:`evaluate`, at the
    f_star the sweep was run with; this surfaces (mean, std, unreached count)
    per cell.  A different f_star needs a re-evaluation, not a reread of mean
    curves, which would answer a different question.
    """
    table = {}
    for cell in results:
        if not cell.fidelity_curve:
            raise ValueError(
                f"cell {cell.key()} has no recorded fidelity curve; re-run evaluate"
            )
        table[cell.key()] = (
            cell.mean_steps_to_threshold,
            cell.std_steps_to_threshold,
            cell.unreached_count,
        )
    return table
