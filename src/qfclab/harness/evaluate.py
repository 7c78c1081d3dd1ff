"""Grid evaluation: cell statistics, thresholds, and the sweep driver.

Every cell's randomness is keyed by (master seed, scenario, noise, alpha,
epsilon) through a documented splitmix64 mix, so cells are order-independent:
any single deleted cell recomputes bit-identically.  Scenarios are those of
the :mod:`qfclab.rl.envs` table, and :func:`training_problem` alone decides
which agent serves a cell (a dbs cell at alpha = 0 the mbs agent of its
epsilon).  Every agent trained on demand is seeded from the master seed and
its checkpoint name.  :func:`evaluate` takes (alpha, seed) cells and returns
one result per cell, each aggregated from its own episodes of one shared
stack.  The sweep runs one job per agent, which trains it if its checkpoint
is missing, then evaluates it on each (scenario, noise, epsilon) it serves as
one :func:`evaluate` call over its alphas.  The jobs run in one pool of
worker processes capped by the QFC_THREADS environment variable; neither the
worker count nor the schedule can change a checkpoint or a result.
"""

from __future__ import annotations

import itertools
import logging
import os
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..controllers import Policy, basic_policy
from ..dynamics import EnvConfig, run_episodes
from ..rngstream import hash_label, mix64
from ..rl.checkpoint import load_policy, save_policy
from ..rl.envs import LOOP_KINDS, NOISE_FREE_KINDS, TRAINED_KINDS, training_config
from ..rl.ppo import default_ppo_config, train
from .config import ConfigError, SweepConfig, check_directory, render_csv

log = logging.getLogger(__name__)


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


def evaluate(
    policy: Policy,
    env_cfg: EnvConfig,
    n: int,
    cells: list[tuple[float, int]],
    scenario: str = "basic",
    f_star: float = 0.9,
) -> list[CellResult]:
    """Run n seeded validation episodes of the true noisy dynamics per cell; aggregate each.

    Each (alpha, seed) of ``cells`` is a cell whose episode i draws from
    ``RngStream(seed, i)`` at that alpha; ``env_cfg`` gives the rest, and its
    alpha is not read.  All cells' episodes step together in stacks of at
    most ``BATCH_EPISODES``, yet each cell's result is that of the cell
    evaluated alone, byte for byte.  Steps-to-threshold statistics count the
    first step whose running true fidelity reaches ``f_star``; episodes that
    never reach it are excluded from the mean and surfaced in
    ``unreached_count``.  Filter-divergence aborts are counted, never
    silently folded into the statistics.
    """
    if n < 1:
        raise ValueError(f"episode count must be >= 1, got {n}")
    alphas = np.repeat([alpha for alpha, _ in cells], n)
    # a seed outside [0, 2^64) draws as RngStream takes it, mod 2^64
    seeds = np.repeat(np.array([seed % 2**64 for _, seed in cells], dtype=np.uint64), n)
    ids = np.tile(np.arange(n, dtype=np.uint64), len(cells))
    fidelity, aborted = run_episodes(policy, env_cfg, seeds, ids, alphas)
    fidelity, aborted = fidelity.reshape(len(cells), n, -1), aborted.reshape(len(cells), n)
    return [
        _cell_result((scenario, env_cfg.noise_kind, alpha, env_cfg.epsilon), seed, f_star,
                     cell_fidelity, cell_aborted)
        for (alpha, seed), cell_fidelity, cell_aborted in zip(cells, fidelity, aborted)
    ]


def _cell_result(key: tuple, seed: int, f_star: float, fidelity, aborted) -> CellResult:
    """The cell ``key``'s statistics from the fidelity curves and abort flags of its episodes."""
    curves = fidelity[~aborted]
    terminal = curves[:, -1]
    reached = curves >= f_star
    hit = reached.any(axis=1)
    crossings = reached.argmax(axis=1)[hit]
    completed = len(curves)
    mean_fid = float(np.mean(terminal)) if completed else np.nan
    std_fid = float(np.std(terminal)) if completed else np.nan
    mean_steps = float(np.mean(crossings)) if crossings.size else np.nan
    std_steps = float(np.std(crossings)) if crossings.size else np.nan
    # summing the C-ordered rows over axis 0 adds them in episode order, so the
    # float sum ignores the batch size
    curve = tuple((curves.sum(axis=0) / completed).tolist()) if completed else ()
    return CellResult(
        *key,
        seed=seed,
        episodes=completed,
        aborted=int(aborted.sum()),
        mean_fidelity=mean_fid,
        std_fidelity=std_fid,
        mean_steps_to_threshold=mean_steps,
        std_steps_to_threshold=std_steps,
        unreached_count=int((~hit).sum()),
        fidelity_curve=curve,
    )


# -- checkpoint pairing per the training/validation matrix --


def training_problem(scenario: str, noise: str, alpha: float, epsilon: float) -> tuple:
    """The problem that decides a cell's agent, led by the scenario it trains as:
    one per epsilon for the noise-free kinds, and for dbs at alpha = 0, whose real
    data are the nominal model; one per (noise, alpha, epsilon) for dbs otherwise.
    A fixed controller's cells share one per (noise, epsilon)."""
    if scenario == "dbs" and alpha == 0.0:
        return ("mbs", epsilon)
    if scenario in NOISE_FREE_KINDS:
        return (scenario, epsilon)
    if scenario in TRAINED_KINDS:
        return (scenario, noise, alpha, epsilon)
    return (scenario, noise, epsilon)


def checkpoint_name(scenario: str, noise: str, alpha: float, epsilon: float) -> str:
    """The file of the agent that serves the cell: one per :func:`training_problem`."""
    kind = training_problem(scenario, noise, alpha, epsilon)[0]
    if kind in NOISE_FREE_KINDS:
        return f"{kind}_eps{epsilon:g}.ckpt"
    return f"{kind}_{noise}_alpha{alpha:g}_eps{epsilon:g}.ckpt"


def check_trainable(scenario: str, env_cfg: EnvConfig) -> None:
    """Refuse, with :class:`ConfigError`, an agent that filters the noise it trains
    under (an MLP agent at alpha > 0) at epsilon 0, where training cannot abort."""
    if (LOOP_KINDS.get(scenario) == "mlp" and training_config(scenario, env_cfg).alpha > 0.0
            and env_cfg.epsilon == 0.0):
        cell = cell_label((scenario, env_cfg.noise_kind, env_cfg.alpha, env_cfg.epsilon))
        raise ConfigError(f"cell {cell}: a {scenario} agent cannot train at epsilon 0, where "
                          f"its filter can rule out a real outcome")


#: the columns of a checkpoint's training curve, ``<checkpoint>.curve.csv``
TRAIN_CURVE_COLUMNS = (
    "update_index", "timesteps", "mean_episode_reward", "policy_loss", "value_loss", "entropy",
    "grad_norm", "approx_kl", "clip_fraction",
)


def curve_path(path) -> Path:
    """Where the training curve of the checkpoint at ``path`` goes."""
    return Path(f"{Path(path)}.curve.csv")


def train_checkpoint(
    scenario: str, env_cfg: EnvConfig, timesteps: int, seed: int, path
) -> list[dict]:
    """Train one agent at the appendix defaults; write its training curve to
    :func:`curve_path`, then save it to ``path``.

    The checkpoint records the noise, alpha, epsilon, seed and timesteps it was
    trained with (alpha 0 for the noise-free kinds, and noise ``none`` at alpha 0,
    where no noise acts); returns the training curve rows.  A cell
    :func:`check_trainable` refuses, a directory ``path`` or curve path, or
    one under a file, raises :class:`ConfigError` before training.  The curve
    is written before the checkpoint's atomic rename, so a checkpoint on disk
    always has its curve.
    """
    check_trainable(scenario, env_cfg)
    env_cfg = training_config(scenario, env_cfg)
    ppo_cfg = default_ppo_config(scenario, total_timesteps=timesteps)
    path, curve_out = Path(path), curve_path(path)
    for what, target in (("checkpoint path", path), ("curve path", curve_out)):
        if target.is_dir():
            raise ConfigError(f"{what} {target} is a directory")
    check_directory(path.parent, "checkpoint directory")  # made only once training succeeds
    net, curve = train(scenario, env_cfg, ppo_cfg, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    curve_out.write_text(render_csv(TRAIN_CURVE_COLUMNS,
                                    ([row[name] for name in TRAIN_CURVE_COLUMNS] for row in curve)))
    save_policy(
        path, net, scenario,
        {"noise": env_cfg.noise_kind if env_cfg.alpha else "none", "alpha": env_cfg.alpha,
         "epsilon": env_cfg.epsilon, "seed": seed, "timesteps": timesteps},
    )
    return curve


def cell_label(cell: tuple) -> str:
    scenario, noise, alpha, epsilon = cell
    return f"({scenario}, {noise}, alpha={alpha!r}, epsilon={epsilon!r})"


def _agent_job(args) -> tuple:
    """Pool job: train the agent at ``path`` when ``training`` is given, then
    evaluate it (the basic policy when ``path`` is None) on each (scenario,
    noise, epsilon) group at the (alpha, seed) of its cells.  Returns the
    training's (timesteps, wall s) or None, and each group's results and wall s."""
    path, training, groups, episodes, horizon, f_star = args
    trained = None
    if training is not None:
        start = time.perf_counter()
        curve = train_checkpoint(*training, path)
        trained = curve[-1]["timesteps"], time.perf_counter() - start
    policy = basic_policy() if path is None else load_policy(path)[0]  # the bytes on disk
    evaluated = []
    for scenario, noise, epsilon, cells in groups:
        start = time.perf_counter()
        env_cfg = EnvConfig(noise_kind=noise, epsilon=epsilon, horizon=horizon)
        results = evaluate(policy, env_cfg, episodes, cells, scenario, f_star)
        evaluated.append((results, time.perf_counter() - start))
    return trained, evaluated


def worker_count() -> int:
    """Parallelism cap from QFC_THREADS (unset: 1, run inline).

    Raises :class:`ConfigError` for anything but an integer >= 1.
    """
    raw = os.environ.get("QFC_THREADS", "1")
    try:
        workers = int(raw)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"QFC_THREADS must be an integer >= 1, got {raw!r}")
    return workers


def sweep(cfg: SweepConfig):
    """Evaluate every (scenario, noise, alpha, epsilon) cell of the grid.

    The grid is planned first: before anything runs, a missing checkpoint
    with training on demand off raises :class:`MissingCheckpointError`, and
    :class:`ConfigError` refuses two cells of different agents whose
    checkpoint names coincide, a checkpoint that records another seed or
    budget than training on demand would use, a missing dbs agent at alpha > 0
    and epsilon 0 (:func:`check_trainable`), and a checkpoint directory that
    is a file.  Then each :func:`training_problem` is one job, which trains
    its agent if the checkpoint is missing, as the problem's scenario, and
    evaluates the saved checkpoint on every (scenario, noise, epsilon) it
    serves (an mbs agent's include the dbs cells at alpha 0); basic, which
    trains nothing, is one job per noise and epsilon.  The jobs run in one
    pool of up to QFC_THREADS worker processes, inline when there is one.  A checkpoint on disk is
    reused, so a killed sweep run again trains only the agents it had not
    saved and returns the results of an uninterrupted run.
    """
    workers = worker_count()  # a bad QFC_THREADS fails before any training
    plans: dict = {}  # training_problem -> (first cell, its groups)
    for key in itertools.product(cfg.scenarios, cfg.noises, cfg.alphas, cfg.epsilons):
        scenario, noise, alpha, epsilon = key
        first, groups = plans.setdefault(training_problem(*key), (key, {}))
        seed = cell_seed(cfg.master_seed, scenario, noise, alpha, epsilon)
        groups.setdefault((scenario, noise, epsilon), []).append((alpha, seed))
    jobs, names = [], {}  # names: checkpoint name -> the first cell of its agent
    for (kind, *_), (first, groups) in plans.items():
        path = training = None
        if kind in TRAINED_KINDS:
            name = checkpoint_name(*first)
            if names.setdefault(name, first) != first:
                raise ConfigError(f"cells {cell_label(names[name])} and {cell_label(first)} need "
                                  f"different agents but share the checkpoint name {name}")
            path = Path(cfg.checkpoint_dir) / name
            train_seed = mix64(cfg.master_seed, hash_label(f"train|{name}"))
            if not path.exists():
                if not cfg.train_on_demand:
                    raise MissingCheckpointError(
                        f"cell ({first[0]}, {first[1]}, alpha={first[2]:g}, epsilon={first[3]:g}) "
                        f"needs checkpoint {path}; enable train_on_demand or train it first")
                env_cfg = EnvConfig(noise_kind=first[1], alpha=first[2], epsilon=first[3],
                                    horizon=cfg.horizon)
                check_trainable(kind, env_cfg)
                training = (kind, env_cfg, cfg.train_timesteps, train_seed)
            elif cfg.train_on_demand:
                meta = load_policy(path)[1]
                for field, value in (("seed", train_seed), ("timesteps", cfg.train_timesteps)):
                    if meta.get(field) != str(value):
                        raise ConfigError(f"checkpoint {path} records meta {field} "
                                          f"{meta.get(field)!r}, but this sweep trains it with "
                                          f"{field} {value}; move it away to retrain it")
        jobs.append((path, training, [(*group, cells) for group, cells in groups.items()],
                     cfg.episodes, cfg.horizon, cfg.f_star))
    if any(training for _, training, *_ in jobs):
        check_directory(cfg.checkpoint_dir, "checkpoint directory")
    results: list[CellResult] = []
    size = min(workers, len(jobs))
    with ProcessPoolExecutor(max_workers=size) if size > 1 else nullcontext() as pool:
        done = pool.map(_agent_job, jobs) if pool else map(_agent_job, jobs)
        for (path, _, groups, *_), (trained, evaluated) in zip(jobs, done):
            if trained:
                timesteps, wall = trained
                log.info("trained %s: %d timesteps in %.2f s (%.0f timesteps/s)",
                         path.name, timesteps, wall, timesteps / wall)
            for (scenario, noise, epsilon, cells), (cell_results, wall) in zip(groups, evaluated):
                episodes = len(cells) * cfg.episodes
                agent = f" with {path.name}" if path else ""
                log.info("evaluated %s on %s at epsilon %g: %d alphas, %d episodes in %.2f s "
                         "(%.0f episodes/s)%s", scenario, noise, epsilon, len(cells), episodes,
                         wall, episodes / wall, agent)
                results.extend(cell_results)
    return sorted(results, key=CellResult.key)


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
