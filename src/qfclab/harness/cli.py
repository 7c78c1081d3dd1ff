"""Command-line interface: train, eval, sweep, report.

Exit codes: 0 success, 1 configuration error, 2 missing checkpoint,
3 runtime failure.  QFC_THREADS caps sweep worker parallelism.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..channels import ConditioningError
from ..controllers import basic_policy
from ..dynamics import EnvConfig
from ..qcore import DimensionError, StateValidityError
from ..rl.checkpoint import load_policy, save_policy
from ..rl.ppo import default_ppo_config, train
from .config import ConfigError, desk_scale, parse_config_file
from .evaluate import CellResult, MissingCheckpointError, evaluate, sweep, threshold_alpha
from .report import emit_report, parse_results_csv, render_results_csv

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_MISSING_CHECKPOINT = 2
EXIT_RUNTIME = 3

NUMERICAL_ERRORS = (StateValidityError, ConditioningError, DimensionError)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfclab",
        description="Measurement-based feedback state preparation: training, "
        "evaluation, robustness sweeps, and reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train one agent and write a checkpoint")
    p_train.add_argument("--scenario", required=True, choices=["mbs", "dbs", "qomdp"])
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


def _cmd_train(args) -> int:
    env_cfg = EnvConfig(
        noise_kind=args.noise, alpha=args.alpha, epsilon=args.epsilon, horizon=args.horizon
    )
    ppo_cfg = default_ppo_config(args.scenario, total_timesteps=args.timesteps)
    net, curve = train(args.scenario, env_cfg, ppo_cfg, args.seed)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    save_policy(
        out, net, args.scenario,
        {"noise": args.noise, "alpha": args.alpha, "epsilon": args.epsilon,
         "seed": args.seed, "timesteps": args.timesteps},
    )
    curve_path = out.with_suffix(out.suffix + ".curve.csv")
    lines = ["update_index,timesteps,mean_episode_reward,policy_loss,value_loss,entropy"]
    for row in curve:
        lines.append(
            f"{row['update_index']},{row['timesteps']},{row['mean_episode_reward']:.17g},"
            f"{row['policy_loss']:.17g},{row['value_loss']:.17g},{row['entropy']:.17g}"
        )
    curve_path.write_text("\n".join(lines) + "\n")
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
        scenario = meta.get("scenario", "rl")
    env_cfg = EnvConfig(
        noise_kind=args.noise, alpha=args.alpha, epsilon=args.epsilon, horizon=args.horizon
    )
    cell = evaluate(policy, env_cfg, args.episodes, args.seed,
                    scenario=scenario, f_star=args.f_star)
    print(render_results_csv([cell]), end="")
    return EXIT_OK


def _load_resume(out_dir: Path) -> dict[tuple, CellResult]:
    results_path = out_dir / "results.csv"
    curves_path = out_dir / "curves.csv"
    if not results_path.exists():
        return {}
    curves_text = curves_path.read_text() if curves_path.exists() else None
    cells = parse_results_csv(results_path.read_text(), curves_text)
    return {c.key(): c for c in cells}


def _cmd_sweep(args) -> int:
    cfg = parse_config_file(args.config)
    if args.desk_scale:
        cfg = desk_scale(cfg)
    out_dir = Path(cfg.output_dir)
    resume = _load_resume(out_dir) if args.resume else {}
    results = sweep(cfg, resume_results=resume)
    summary = threshold_alpha(results, cfg.f_star)
    written = emit_report(results, summary, out_dir)
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


def _cmd_report(args) -> int:
    results_dir = Path(args.results)
    results_path = results_dir / "results.csv"
    if not results_path.exists():
        raise ConfigError(f"no results.csv under {results_dir}")
    curves_path = results_dir / "curves.csv"
    curves_text = curves_path.read_text() if curves_path.exists() else None
    results = parse_results_csv(results_path.read_text(), curves_text)
    summary = threshold_alpha(results, args.f_star)
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
    try:
        return handlers[args.command](args)
    except MissingCheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MISSING_CHECKPOINT
    except NUMERICAL_ERRORS as exc:  # ValueError subclasses, yet failures of a running job
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # runtime failures keep a distinct exit code
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
