"""Command-line interface: train, eval, sweep, report.

Exit codes: 0 success, 1 configuration error, 2 missing checkpoint,
3 runtime failure.  QFC_THREADS caps sweep worker parallelism.  Progress
records of the qfclab loggers at INFO and above (one line per agent a sweep
trains) go to stderr.
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
from ..rl.envs import SCENARIO_KINDS
from .config import ConfigError, check_f_star, desk_scale, parse_config_file
from .evaluate import (
    MissingCheckpointError,
    evaluate,
    sweep,
    threshold_alpha,
    train_checkpoint,
)
from .report import (
    check_manifest, emit_report, read_results_dir, render_csv, render_results_csv, sweep_manifest,
)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MISSING_CHECKPOINT = 2
EXIT_RUNTIME = 3

# ValueError subclasses, yet failures of a running job once its configuration is built
RUNTIME_ERRORS = (StateValidityError, ConditioningError, DimensionError, ParameterError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfclab",
        description="Measurement-based feedback state preparation: training, "
        "evaluation, robustness sweeps, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent and write a checkpoint")
    p_train.add_argument("--scenario", required=True, choices=SCENARIO_KINDS)
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
    p_sweep.add_argument("--resume", action="store_true",
                         help="skip cells already present in the output directory")

    p_report = sub.add_parser("report", help="render CSVs and charts from sweep results")
    p_report.add_argument("--results", required=True, help="directory with results.csv")
    p_report.add_argument("--out", required=True, help="output directory")
    p_report.add_argument("--f-star", type=float, default=0.9)
    return parser


TRAIN_CURVE_COLUMNS = (
    "update_index", "timesteps", "mean_episode_reward", "policy_loss", "value_loss", "entropy",
    "grad_norm", "approx_kl", "clip_fraction",
)


def _env_config(args) -> EnvConfig:
    """The command's cell; a parameter outside its range is a configuration error."""
    try:
        return EnvConfig(noise_kind=args.noise, alpha=args.alpha, epsilon=args.epsilon,
                         horizon=args.horizon)
    except ParameterError as exc:
        raise ConfigError(str(exc)) from exc


def _cmd_train(args) -> int:
    out = Path(args.out)
    curve = train_checkpoint(args.scenario, _env_config(args), args.timesteps, args.seed, out)
    curve_path = out.with_suffix(out.suffix + ".curve.csv")
    rows = ([row[name] for name in TRAIN_CURVE_COLUMNS] for row in curve)
    curve_path.write_text(render_csv(TRAIN_CURVE_COLUMNS, rows))
    print(f"wrote {out} and {curve_path}")
    return EXIT_OK


def _cmd_eval(args) -> int:
    if args.policy == "basic":
        policy = basic_policy()
        scenario = "basic"
    else:
        if not Path(args.policy).exists():
            raise MissingCheckpointError(f"checkpoint {args.policy} not found")
        policy, meta = load_policy(args.policy)
        scenario = meta["scenario"]
    cell = evaluate(policy, _env_config(args), args.episodes, args.seed,
                    scenario=scenario, f_star=check_f_star(args.f_star))
    print(render_results_csv([cell]), end="")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config)
    if args.desk_scale:
        cfg = desk_scale(cfg)
    out_dir = Path(cfg.output_dir)
    manifest = sweep_manifest(cfg)
    resume = (read_results_dir(out_dir) or []) if args.resume else []
    if resume:
        check_manifest(out_dir, manifest)
    results = sweep(cfg, resume_results={c.key(): c for c in resume})
    summary = threshold_alpha(results, cfg.f_star)
    written = emit_report(results, summary, out_dir)
    (out_dir / "manifest.txt").write_text(manifest)
    written.append(str(out_dir / "manifest.txt"))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    results = read_results_dir(args.results)
    if results is None:
        raise ConfigError(f"no results.csv under {args.results}")
    summary = threshold_alpha(results, check_f_star(args.f_star))
    written = emit_report(results, summary, args.out)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
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
