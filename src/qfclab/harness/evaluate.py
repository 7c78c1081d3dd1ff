"""Grid evaluation: cell statistics, thresholds, and the sweep driver.

Every cell's randomness is keyed by (master seed, scenario, noise, alpha,
epsilon) through a documented splitmix64 mix, so cells are order-independent:
any single deleted cell recomputes bit-identically.  :func:`training_problem`
alone decides which agent serves a cell (a dbs cell at alpha = 0 the mbs agent
of its epsilon).  Every agent trained on demand is seeded from the master
seed and its checkpoint name.
:func:`evaluate` takes (alpha, seed) cells and returns one result per cell,
each aggregated from its own episodes of one shared stack.  The sweep trains
the missing agents, then evaluates each agent on each (scenario, noise,
epsilon) it serves as one :func:`evaluate` job over its alphas.  Both phases
run in one pool of worker processes capped by the QFC_THREADS environment
variable; neither the worker count nor the schedule can change a checkpoint
or a result.
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
from ..rl.envs import NOISE_FREE_KINDS, training_config
from ..rl.ppo import default_ppo_config, train
from .config import ConfigError, SweepConfig, check_directory

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

    def curve_points(self, horizon: int) -> int:
        """The points of this cell's curve at ``horizon``: one per step and the
        start, or none when every episode aborted."""
        return horizon + 1 if self.episodes else 0


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
    """The problem an RL cell's agent trains on, led by the scenario it trains as:
    one per epsilon for mbs and qomdp, and for dbs at alpha = 0, whose real data
    are the nominal model; one per (noise, alpha, epsilon) for dbs otherwise."""
    if scenario == "dbs" and alpha == 0.0:
        return ("mbs", epsilon)
    if scenario in NOISE_FREE_KINDS:
        return (scenario, epsilon)
    return ("dbs", noise, alpha, epsilon)


def checkpoint_name(scenario: str, noise: str, alpha: float, epsilon: float) -> str:
    """The file of the agent that serves the cell: one per :func:`training_problem`."""
    kind = training_problem(scenario, noise, alpha, epsilon)[0]
    if kind == "dbs":
        return f"dbs_{noise}_alpha{alpha:g}_eps{epsilon:g}.ckpt"
    return f"{kind}_eps{epsilon:g}.ckpt"


def train_checkpoint(
    scenario: str, env_cfg: EnvConfig, timesteps: int, seed: int, path
) -> list[dict]:
    """Train one agent at the appendix defaults and save it to ``path``.

    The checkpoint records the noise, alpha, epsilon, seed and timesteps it was
    trained with (alpha 0 for the noise-free kinds); returns the training curve rows.
    A directory ``path``, or one under a file, raises :class:`ConfigError` before training.
    """
    env_cfg = training_config(scenario, env_cfg)
    ppo_cfg = default_ppo_config(scenario, total_timesteps=timesteps)
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"checkpoint path {path} is a directory")
    check_directory(path.parent, "checkpoint directory")  # made only once training succeeds
    net, curve = train(scenario, env_cfg, ppo_cfg, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    save_policy(
        path, net, scenario,
        {"noise": env_cfg.noise_kind, "alpha": env_cfg.alpha, "epsilon": env_cfg.epsilon,
         "seed": seed, "timesteps": timesteps},
    )
    return curve


def resolve_policy(scenario, noise, alpha, epsilon, cfg: SweepConfig) -> Policy | str:
    """Return the basic policy, or the checkpoint path for an RL scenario.

    Raises :class:`MissingCheckpointError` when the checkpoint is absent and
    training on demand is off; :func:`sweep` trains absent ones otherwise.
    """
    if scenario == "basic":
        return basic_policy()
    path = Path(cfg.checkpoint_dir) / checkpoint_name(scenario, noise, alpha, epsilon)
    if not cfg.train_on_demand and not path.exists():
        raise MissingCheckpointError(
            f"cell ({scenario}, {noise}, alpha={alpha:g}, epsilon={epsilon:g}) "
            f"needs checkpoint {path}; enable train_on_demand or train it first"
        )
    return str(path)


def cell_label(cell: tuple) -> str:
    scenario, noise, alpha, epsilon = cell
    return f"({scenario}, {noise}, alpha={alpha!r}, epsilon={epsilon!r})"


def _check_resumed(row: CellResult, cell: tuple, seed: int, cfg: SweepConfig) -> CellResult:
    """``row`` if it can be this sweep's result for ``cell``; else :class:`ConfigError`.

    The seed, the episode count and the curve length are checked: only a row
    whose episodes all aborted has no curve.  results.csv does not record f_star.
    """
    for name, got, want in (("seed", row.seed, seed),
                            ("episodes + aborted", row.episodes + row.aborted, cfg.episodes),
                            ("curve points", len(row.fidelity_curve),
                             row.curve_points(cfg.horizon))):
        if got != want:
            raise ConfigError(f"resumed cell {cell_label(cell)} has {name} {got}, but this sweep's "
                              f"is {want}; move the results away to recompute them")
    return row


def _train_agent(args) -> tuple[str, int, float]:
    """Pool job: train one missing agent; returns (checkpoint name, timesteps, wall s)."""
    scenario, noise, alpha, epsilon, horizon, timesteps, seed, path = args
    start = time.perf_counter()
    env_cfg = EnvConfig(noise_kind=noise, alpha=alpha, epsilon=epsilon, horizon=horizon)
    curve = train_checkpoint(scenario, env_cfg, timesteps, seed, path)
    return Path(path).name, curve[-1]["timesteps"], time.perf_counter() - start


def _evaluate_job(args) -> tuple[list[CellResult], float]:
    """Pool job: one agent on one (noise, epsilon) at each (alpha, seed) of its
    cells; returns the cells' results and the wall seconds."""
    scenario, noise, epsilon, cells, policy_source, episodes, horizon, f_star = args
    start = time.perf_counter()
    policy = load_policy(policy_source)[0] if isinstance(policy_source, str) else policy_source
    env_cfg = EnvConfig(noise_kind=noise, epsilon=epsilon, horizon=horizon)
    results = evaluate(policy, env_cfg, episodes, cells, scenario, f_star)
    return results, time.perf_counter() - start


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


def _run_jobs(pool: ProcessPoolExecutor | None, job, args: list):
    """Run one phase in the pool, or inline when there is no pool or one job;
    yields the results in job order as they complete."""
    if pool is None or len(args) < 2:
        return map(job, args)
    return pool.map(job, args)


def sweep(cfg: SweepConfig, resume_results: dict[tuple, CellResult] | None = None):
    """Evaluate every (scenario, noise, alpha, epsilon) cell of the grid.

    ``resume_results`` maps cell keys to already-completed results, which are
    returned as-is (cells are seed-keyed by identity, so recomputing any one
    reproduces it exactly) if their seed, episode count and curve length are
    this sweep's.

    The grid is planned first: before anything runs, a missing checkpoint
    with training on demand off raises :class:`MissingCheckpointError`, and
    :class:`ConfigError` refuses a stale resumed row, two cells of different
    agents whose checkpoint names coincide, a checkpoint that records another
    seed or budget than training on demand would use, and a checkpoint
    directory that is a file.  Then the missing agents train, each checkpoint
    once as its :func:`training_problem`'s scenario (an mbs agent also serves
    the dbs cells at alpha 0), and the cells evaluate, one job per scenario,
    agent, noise and epsilon, in one pool of up to QFC_THREADS worker
    processes; a phase with a single job runs inline.
    """
    workers = worker_count()  # a bad QFC_THREADS fails before any training
    resume_results = resume_results or {}
    results: dict[tuple, CellResult] = {}
    agents: dict[str, tuple] = {}  # checkpoint to train on demand -> job of its first cell
    owners: dict[str, tuple] = {}  # checkpoint name -> (its problem, the first cell it serves)
    jobs: dict[tuple, list] = {}  # (scenario, noise, epsilon, policy) -> its cells' (alpha, seed)
    for key in itertools.product(cfg.scenarios, cfg.noises, cfg.alphas, cfg.epsilons):
        scenario, noise, alpha, epsilon = key
        seed = cell_seed(cfg.master_seed, scenario, noise, alpha, epsilon)
        if scenario != "basic":
            problem = training_problem(*key)
            name = checkpoint_name(*key)
            owner, first = owners.setdefault(name, (problem, key))
            if owner != problem:
                raise ConfigError(f"cells {cell_label(first)} and {cell_label(key)} need different "
                                  f"agents but share the checkpoint name {name}")
        if key in resume_results:
            results[key] = _check_resumed(resume_results[key], key, seed, cfg)
            continue
        source = resolve_policy(scenario, noise, alpha, epsilon, cfg)
        if cfg.train_on_demand and isinstance(source, str) and source not in agents:
            train_seed = mix64(cfg.master_seed, hash_label(f"train|{Path(source).name}"))
            agents[source] = (problem[0], noise, alpha, epsilon, cfg.horizon,
                              cfg.train_timesteps, train_seed, source)
        jobs.setdefault((scenario, noise, epsilon, source), []).append((alpha, seed))
    for path in [path for path in agents if Path(path).exists()]:
        train_seed = agents.pop(path)[6]
        meta = load_policy(path)[1]
        for name, value in (("seed", train_seed), ("timesteps", cfg.train_timesteps)):
            if meta.get(name) != str(value):
                raise ConfigError(
                    f"checkpoint {path} records meta {name} {meta.get(name)!r}, but this "
                    f"sweep trains it with {name} {value}; move it away to retrain it"
                )
    if agents:
        check_directory(cfg.checkpoint_dir, "checkpoint directory")
    evaluations = [(scenario, noise, epsilon, cells, source, cfg.episodes, cfg.horizon, cfg.f_star)
                   for (scenario, noise, epsilon, source), cells in jobs.items()]
    size = min(workers, max(len(agents), len(evaluations)))
    with ProcessPoolExecutor(max_workers=size) if size > 1 else nullcontext() as pool:
        for name, timesteps, wall in _run_jobs(pool, _train_agent, list(agents.values())):
            log.info("trained %s: %d timesteps in %.2f s (%.0f timesteps/s)",
                     name, timesteps, wall, timesteps / wall)
        done = _run_jobs(pool, _evaluate_job, evaluations)
        for (scenario, noise, epsilon, _, source, *_), (cells, wall) in zip(evaluations, done):
            episodes = len(cells) * cfg.episodes
            agent = f" with {Path(source).name}" if isinstance(source, str) else ""
            log.info("evaluated %s on %s at epsilon %g: %d alphas, %d episodes in %.2f s "
                     "(%.0f episodes/s)%s", scenario, noise, epsilon, len(cells), episodes, wall,
                     episodes / wall, agent)
            results.update((cell.key(), cell) for cell in cells)
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
