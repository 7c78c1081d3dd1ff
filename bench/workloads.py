"""The three workloads, their inputs and the check of their outputs.

Every workload is closed-loop: one unit of work is one call into qfclab, and
the next unit starts when the previous one has returned.  The seed picks the
first of ``INPUT_SETS`` input sets (``seed % INPUT_SETS``) and later units of
a run take the sets that follow.  A set fixes the sweep master seed or the
training seed, and nothing else varies with it.  Reference outputs for every
set are recorded in ``reference/<workload>.json``.

Set-up, timed as ``setup_s``, is importing qfclab and building the inputs:
the sweep config and a fresh output directory (sweep-basic), the environment
and PPO configs (train-qomdp), the sweep config and a fresh checkpoint
directory (sweep-dbs).

Per unit the benchmark counts:

- ``episodes``: evaluation episodes completed.  train-qomdp evaluates
  nothing, so there it counts PPO timesteps divided by the horizon, the
  number of full-length episodes the same steps would make.
- ``timesteps``: closed-loop environment steps, evaluation and PPO together.
  Basic and MLP policies never stop early, so an evaluation episode is
  ``horizon`` steps.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import math
import os
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

INPUT_SETS = 16
NOISES = ("depolarizing", "amplitude_damping", "random_permutation")
HORIZON = 20
N_STEPS = 512  # PPO rollout length of the appendix defaults

# Floats may move by this much (|got - ref| <= ABS_TOL + REL_TOL * |ref|):
# far more than a changed float summation order does (raising the learning
# rate by one ulp moves train-qomdp's curve by at most 1.5e-14 relative over
# 10 updates), far less than a changed sampling order or formula does to a
# 200-episode mean (about 1e-2).  Integers, strings and NaN positions must
# match exactly.
REL_TOL = 1e-6
ABS_TOL = 1e-9

SIZES = {
    "full": {
        "sweep-basic": {"alphas": (0.0, 0.2, 0.4, 0.6), "epsilons": (0.1, 0.2), "episodes": 200},
        "train-qomdp": {"updates": 10},
        "sweep-dbs": {"alphas": (0.2, 0.4), "episodes": 200, "train_timesteps": 8192},
    },
    "smoke": {
        "sweep-basic": {"alphas": (0.0, 0.4), "epsilons": (0.1,), "episodes": 10},
        "train-qomdp": {"updates": 1},
        "sweep-dbs": {"alphas": (0.2, 0.4), "episodes": 10, "train_timesteps": 1024},
    },
}

CELL_FIELDS = (
    "episodes", "aborted", "mean_fidelity", "std_fidelity",
    "mean_steps_to_threshold", "std_steps_to_threshold", "unreached_count",
)


class SetupError(RuntimeError):
    """The program or the reference outputs cannot be found."""


def import_program(root: Path):
    """Import qfclab from ``<root>/src``, never from anywhere else."""
    src = root / "src"
    if not (src / "qfclab" / "__init__.py").is_file():
        raise SetupError(f"no qfclab sources under {src}")
    sys.path.insert(0, str(src))
    qfclab = importlib.import_module("qfclab")
    if Path(qfclab.__file__).resolve().parent != (src / "qfclab").resolve():
        raise SetupError(f"imported qfclab from {qfclab.__file__}, not from {src}")
    for name in ("qfclab.harness.evaluate", "qfclab.harness.report", "qfclab.rl.ppo"):
        importlib.import_module(name)
    return qfclab


def module(name: str):
    """A qfclab module, looked up at call time so traced wrappers are seen.

    ``qfclab.harness.evaluate`` as an attribute is the function that shadows
    the submodule, hence ``sys.modules``.
    """
    return sys.modules[f"qfclab.{name}"]


@dataclass
class Unit:
    wall_s: float
    episodes: float
    timesteps: float
    ops: list[dict] | None  # None when the call raised
    digest: str = ""
    error: str = ""


@dataclass
class Check:
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)


def _float_eq(got, ref) -> bool:
    if isinstance(ref, float) and math.isnan(ref):
        return isinstance(got, float) and math.isnan(got)
    return abs(got - ref) <= ABS_TOL + REL_TOL * abs(ref)


def _op_mismatches(got: dict, ref: dict) -> list[str]:
    bad = []
    for key, want in ref.items():
        have = got.get(key, "<missing>")
        if isinstance(want, float) and isinstance(have, (int, float)):
            ok = _float_eq(float(have), want)
        else:
            ok = have == want
        if not ok:
            bad.append(f"{key}: got {have!r}, reference {want!r}")
    return bad


def check_unit(unit: Unit, reference: dict, key_field: str) -> Check:
    """Count ops (cells or PPO updates) and the ones that differ from the reference."""
    ref_ops = reference["ops"]
    check = Check(attempted=len(ref_ops))
    if unit.ops is None:
        check.failed = len(ref_ops)
        check.notes.append(f"raised: {unit.error}")
        return check
    got = {json.dumps(op.get(key_field)): op for op in unit.ops}
    for ref in ref_ops:
        key = json.dumps(ref[key_field])
        op = got.pop(key, None)
        bad = ["missing"] if op is None else _op_mismatches(op, ref)
        if bad:
            check.failed += 1
            check.notes.append(f"{key_field} {key}: {'; '.join(bad[:3])}")
    for key in got:
        check.attempted += 1
        check.failed += 1
        check.notes.append(f"{key_field} {key}: not in the reference")
    return check


def _cell_op(cell) -> dict:
    op = {"cell": [cell.scenario, cell.noise, cell.alpha, cell.epsilon]}
    for name in CELL_FIELDS:
        value = getattr(cell, name)
        op[name] = float(value) if isinstance(value, float) else int(value)
    return op


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    name = ""
    key_field = ""
    qfc_threads = "1"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.size = SIZES[size][self.name]
        self.workdir = workdir
        os.environ["QFC_THREADS"] = self.qfc_threads
        self.input_set = seed % INPUT_SETS
        self.prepare()

    def prepare(self) -> None:
        """Build the inputs of ``self.input_set``."""
        raise NotImplementedError

    def call(self) -> Unit:
        """Run one unit and time the call into qfclab."""
        raise NotImplementedError

    def run_unit(self, input_set: int) -> Unit:
        if input_set != self.input_set:
            self.input_set = input_set
            self.prepare()
        t0 = time.perf_counter()
        try:
            return self.call()
        except Exception as exc:  # a failed unit is counted, never hidden
            return Unit(time.perf_counter() - t0, 0.0, 0.0, None, error=repr(exc))

    def _fresh_dir(self, label: str) -> Path:
        path = self.workdir / label
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path


class SweepBasic(Workload):
    """Desk-scale basic-controller sweep plus report, run inline."""

    name = "sweep-basic"
    key_field = "cell"

    def prepare(self):
        config = module("harness.config")
        self.cfg = config.SweepConfig(
            scenarios=("basic",), noises=NOISES, alphas=self.size["alphas"],
            epsilons=self.size["epsilons"], episodes=self.size["episodes"],
            horizon=HORIZON, master_seed=1000 + self.input_set,
        )
        self.out_dir = self._fresh_dir("report")

    def call(self):
        evaluate, report = module("harness.evaluate"), module("harness.report")
        t0 = time.perf_counter()
        results = evaluate.sweep(self.cfg)
        summary = evaluate.threshold_alpha(results, self.cfg.f_star)
        report.emit_report(results, summary, self.out_dir)
        wall = time.perf_counter() - t0
        episodes = sum(c.episodes for c in results)
        digest = _digest((self.out_dir / "results.csv").read_bytes())
        self.out_dir = self._fresh_dir("report")
        return Unit(wall, episodes, episodes * HORIZON, [_cell_op(c) for c in results], digest)


class TrainQomdp(Workload):
    """Noise-free measurement-only PPO training at the appendix defaults.

    Its speed depends on the seed (episode lengths set the LSTM sequence
    padding): 8 seeds ranged 540-740 timesteps/s over their first 5 updates,
    so a run trains a different seed on each unit rather than one seed longer.
    """

    name = "train-qomdp"
    key_field = "update_index"

    def prepare(self):
        dynamics, ppo = module("dynamics"), module("rl.ppo")
        self.env_cfg = dynamics.EnvConfig(
            noise_kind="depolarizing", alpha=0.0, epsilon=0.1, horizon=HORIZON
        )
        self.timesteps = self.size["updates"] * N_STEPS
        self.ppo_cfg = ppo.default_ppo_config("qomdp", total_timesteps=self.timesteps)
        self.seed = 1000 + self.input_set

    def call(self):
        ppo = module("rl.ppo")
        t0 = time.perf_counter()
        curve = ppo.train("qomdp", self.env_cfg, self.ppo_cfg, self.seed)[-1]
        wall = time.perf_counter() - t0
        ops = [
            {k: (float(v) if isinstance(v, float) else int(v)) for k, v in row.items()}
            for row in curve
        ]
        digest = _digest(json.dumps(ops).encode())
        return Unit(wall, self.timesteps / HORIZON, self.timesteps, ops, digest)


class SweepDbs(Workload):
    """Data-based sweep that trains its agents on demand, evaluated in a pool."""

    name = "sweep-dbs"
    key_field = "cell"
    qfc_threads = "2"

    def prepare(self):
        config = module("harness.config")
        self.cfg = config.SweepConfig(
            scenarios=("dbs",), noises=("depolarizing",), alphas=self.size["alphas"],
            epsilons=(0.1,), episodes=self.size["episodes"], horizon=HORIZON,
            master_seed=1000 + self.input_set,
            checkpoint_dir=str(self._fresh_dir("checkpoints")),
            train_on_demand=True, train_timesteps=self.size["train_timesteps"],
        )

    def call(self):
        evaluate = module("harness.evaluate")
        self._fresh_dir("checkpoints")
        t0 = time.perf_counter()
        results = evaluate.sweep(self.cfg)
        wall = time.perf_counter() - t0
        episodes = sum(c.episodes for c in results)
        agents = len(self.cfg.alphas) * len(self.cfg.epsilons)
        timesteps = episodes * HORIZON + agents * self.cfg.train_timesteps
        render = getattr(module("harness.report"), "render_results_csv", None)
        digest = _digest(render(results).encode()) if render else ""
        return Unit(wall, episodes, timesteps, [_cell_op(c) for c in results], digest)


WORKLOADS = {w.name: w for w in (SweepBasic, TrainQomdp, SweepDbs)}
