"""Command-line interface: train, eval, sweep, report.

Exit codes: 0 success, 1 configuration error (a malformed command line
included), 2 missing checkpoint, 3 runtime failure.  QFC_THREADS caps sweep
worker parallelism.  Progress records of the qfclab loggers at INFO and above
(per sweep job, a line if it trained its agent, then one per (scenario,
noise, epsilon) it evaluated, naming the checkpoint) go to stderr.  A killed
sweep is finished by running it again: it reuses the checkpoints already
written, trains only the missing ones and rewrites every output.  Report
re-renders a sweep's results at the f_star and horizon of its manifest.txt,
which it copies.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from ..channels import ConditioningError, ParameterError
from ..controllers import basic_policy
from ..dynamics import EnvConfig
from ..qcore import DimensionError, StateValidityError
from ..rl.checkpoint import load_policy
from ..rl.envs import TRAINED_KINDS
from .config import (ConfigError, check_directory, check_f_star, desk_scale, parse_config,
                     parse_config_file)
from .evaluate import (
    MissingCheckpointError,
    curve_path,
    evaluate,
    sweep,
    threshold_alpha,
    train_checkpoint,
)
from .report import check_curves, emit_report, read_results_dir, render_results_csv, sweep_manifest

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MISSING_CHECKPOINT = 2
EXIT_RUNTIME = 3

# ValueError subclasses, yet failures of a running job once its configuration is built
RUNTIME_ERRORS = (StateValidityError, ConditioningError, DimensionError, ParameterError)


class _Parser(argparse.ArgumentParser):
    """A malformed command line is a configuration error (exit 1), not argparse's exit 2,
    which names a missing checkpoint here; the subcommand parsers are of this class too."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qfclab",
        description="Measurement-based feedback state preparation: training, "
        "evaluation, robustness sweeps, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent and write a checkpoint")
    p_train.add_argument("--scenario", required=True, choices=TRAINED_KINDS)
    p_train.add_argument("--noise", default="depolarizing")
    p_train.add_argument("--alpha", type=float, default=0.0)
    p_train.add_argument("--epsilon", type=float, default=0.1)
    p_train.add_argument("--seed", type=int, default=0)
    p_train.add_argument("--timesteps", type=int, default=200_000)
    p_train.add_argument("--horizon", type=int, default=20)
    p_train.add_argument("--out", required=True, help="checkpoint path to write")

    p_eval = sub.add_parser("eval", help="evaluate a policy on one noise cell")
    p_eval.add_argument("--policy", required=True,
                        help="'basic' or a checkpoint path")
    p_eval.add_argument("--noise", default="depolarizing")
    p_eval.add_argument("--alpha", type=float, default=0.0)
    p_eval.add_argument("--epsilon", type=float, default=0.1)
    p_eval.add_argument("--episodes", type=int, default=1000)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--horizon", type=int, default=20)
    p_eval.add_argument("--f-star", type=float, default=0.9)

    p_sweep = sub.add_parser("sweep", help="run the full evaluation grid")
    p_sweep.add_argument("--config", required=True, help="sweep config file")
    p_sweep.add_argument("--desk-scale", action="store_true",
                         help="shrink grids/episodes to the desk preset")

    p_report = sub.add_parser("report", help="render CSVs and charts from sweep results")
    p_report.add_argument("--results", required=True, help="directory with results.csv")
    p_report.add_argument("--out", required=True, help="output directory")
    return parser


def _env_config(args) -> EnvConfig:
    """The command's cell; a parameter outside its range is a configuration error."""
    try:
        return EnvConfig(noise_kind=args.noise, alpha=args.alpha, epsilon=args.epsilon,
                         horizon=args.horizon)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_train(args) -> int:
    train_checkpoint(args.scenario, _env_config(args), args.timesteps, args.seed, args.out)
    print(f"wrote {Path(args.out)} and {curve_path(args.out)}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.policy == "basic":
        policy, scenario = basic_policy(), args.policy
    else:
        if not Path(args.policy).exists():
            raise MissingCheckpointError(f"checkpoint {args.policy} not found")
        policy, meta = load_policy(args.policy)
        scenario = meta["scenario"]
    cells = evaluate(policy, _env_config(args), args.episodes, [(args.alpha, args.seed)],
                     scenario=scenario, f_star=check_f_star(args.f_star))
    print(render_results_csv(cells), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config)
    if args.desk_scale:
        cfg = desk_scale(cfg)
    out_dir = check_directory(cfg.output_dir, "output directory")
    manifest = sweep_manifest(cfg)  # the source as the sweep starts
    return _write_report(sweep(cfg), cfg, manifest, out_dir)


def _write_report(results, cfg, manifest: str, out_dir: Path) -> int:
    """Write the report of ``results`` at ``cfg.f_star``, then the manifest, to ``out_dir``."""
    written = emit_report(results, threshold_alpha(results, cfg.f_star), out_dir)
    (out_dir / "manifest.txt").write_text(manifest)
    written.append(str(out_dir / "manifest.txt"))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    out_dir = check_directory(args.out, "output directory")
    results = read_results_dir(args.results)
    if results is None:
        raise ConfigError(f"no results.csv under {args.results}")
    manifest_path = Path(args.results) / "manifest.txt"
    if not manifest_path.is_file():  # it holds the sweep's f_star and horizon
        raise ConfigError(f"no manifest.txt under {args.results}")
    manifest = manifest_path.read_text()
    try:
        cfg = parse_config(manifest.partition("\n[provenance]\n")[0])
    except ConfigError as exc:
        raise ConfigError(f"manifest {manifest_path}: {exc}") from None
    check_curves(results, cfg.horizon)
    return _write_report(results, cfg, manifest, out_dir)


def main(argv=None) -> int:
    handlers = {
        "train": _cmd_train,
        "eval": _cmd_eval,
        "sweep": _cmd_sweep,
        "report": _cmd_report,
    }
    logger = logging.getLogger("qfclab")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter(logging.BASIC_FORMAT))
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        args = _build_parser().parse_args(argv)
        return handlers[args.command](args)
    except MissingCheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_CHECKPOINT
    except RUNTIME_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


if __name__ == "__main__":
    sys.exit(main())
