"""The traced layers of qfclab: which functions get spans, and the metrics made from them.

Each entry names a public function or method of one module, the workloads
expected to call it (a span with zero calls there is flagged), and whether its
total time is reported beside its self time.  The per-layer metrics are, for
every span, ``<module>.<qualname>.calls`` and ``.self_s`` (``.total_s`` too
where marked), ``channels.apply_channel`` split by channel kind, and a few
counters: checkpoint and report bytes, the completed share of evaluation
episodes, PPO update time per rollout, and the tracer's own bookkeeping.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from tracer import Aggregate, Target

PACKAGE = "qfclab"
BASIC, QOMDP, DBS = "sweep-basic", "train-qomdp", "sweep-dbs"
ALL = (BASIC, QOMDP, DBS)
SWEEPS = (BASIC, DBS)
TRAINING = (QOMDP, DBS)
CHANNEL_KINDS = ("depolarizing", "amplitude_damping", "random_permutation")


def _channel_kind(args, kwargs):
    return (args[0] if args else kwargs["ch"]).kind


def _path_arg(args, kwargs):
    return args[0] if args else kwargs["path"]


def _bytes_written(tracer, args, kwargs, result):
    tracer.count("rl.checkpoint.bytes_written", os.path.getsize(_path_arg(args, kwargs)))


def _bytes_read(tracer, args, kwargs, result):
    tracer.count("rl.checkpoint.bytes_read", os.path.getsize(_path_arg(args, kwargs)))


def _report_bytes(tracer, args, kwargs, result):
    tracer.count("harness.report.bytes_written", sum(os.path.getsize(p) for p in result))


def _episodes(tracer, args, kwargs, result):
    tracer.count("harness.evaluate.episodes_attempted", args[2] if len(args) > 2 else kwargs["n"])
    tracer.count("harness.evaluate.episodes_completed", result.episodes)


@dataclass(frozen=True)
class Span:
    target: Target
    on: tuple[str, ...]
    total: bool = False

    @property
    def name(self) -> str:
        return self.target.name(PACKAGE)


def _span(module, qualname, on, total=False, split=None, after=None) -> Span:
    return Span(Target(f"{PACKAGE}.{module}", qualname, split, after), on, total)


SPANS = (
    _span("qcore", "require_density", SWEEPS),
    _span("qcore", "fidelity_pure_target", ALL),
    _span("channels", "apply_channel", ALL, split=_channel_kind),
    _span("channels", "control_unitary", ALL),
    _span("channels", "outcome_probabilities", ALL),
    _span("channels", "condition_on_outcome", ALL),
    _span("dynamics", "run_episode", SWEEPS),
    _span("dynamics", "step_true", ALL),
    _span("dynamics", "filter_update", (DBS,)),
    _span("controllers", "policy_act", SWEEPS),
    _span("rngstream", "RngStream.generator", ALL),
    _span("rl.envs", "ScenarioEnv.reset", TRAINING),
    _span("rl.envs", "ScenarioEnv.step", TRAINING),
    _span("rl.nets", "MlpActorCritic.policy_head", (DBS,)),
    _span("rl.nets", "MlpActorCritic.value", (DBS,)),
    _span("rl.nets", "MlpActorCritic.forward", (DBS,)),
    _span("rl.nets", "MlpActorCritic.backward", (DBS,)),
    _span("rl.nets", "RecurrentActorCritic.step", (QOMDP,)),
    _span("rl.nets", "RecurrentActorCritic.sequence_forward", (QOMDP,)),
    _span("rl.nets", "RecurrentActorCritic.sequence_backward", (QOMDP,)),
    _span("rl.nets", "Adam.step", TRAINING),
    _span("rl.buffer", "compute_gae", TRAINING),
    _span("rl.ppo", "train", TRAINING, total=True),
    _span("rl.ppo", "collect_rollout", TRAINING, total=True),
    _span("rl.ppo", "ppo_update", TRAINING, total=True),
    _span("rl.checkpoint", "save_policy", (DBS,), after=_bytes_written),
    _span("rl.checkpoint", "load_policy", (DBS,), after=_bytes_read),
    _span("harness.evaluate", "sweep", SWEEPS, total=True),
    _span("harness.evaluate", "resolve_policy", SWEEPS, total=True),
    _span("harness.evaluate", "evaluate", SWEEPS, after=_episodes),
    _span("harness.report", "emit_report", (BASIC,), after=_report_bytes),
)

TARGETS = tuple(s.target for s in SPANS)

# name -> unit for the metrics that are not plain span statistics
COUNTERS = {
    "rl.ppo.update_s_per_512_steps": "s",
    "rl.checkpoint.bytes_written": "B",
    "rl.checkpoint.bytes_read": "B",
    "harness.evaluate.completed_ratio": "ratio",
    "harness.report.bytes_written": "B",
    "trace.overhead_s": "s",
    "trace.absent_spans": "count",
    "trace.unexercised_spans": "count",
    "trace.worker_processes": "count",
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in print order."""
    units: dict[str, str] = {}
    for span in SPANS:
        units[f"{span.name}.calls"] = "count"
        units[f"{span.name}.self_s"] = "s"
        if span.total:
            units[f"{span.name}.total_s"] = "s"
        if span.target.split is _channel_kind:
            for kind in CHANNEL_KINDS:
                units[f"{span.name}.{kind}.self_s"] = "s"
    units.update(COUNTERS)
    return units


def unexercised(agg: Aggregate, workload: str, absent) -> list[str]:
    """Spans that exist but had no calls on a workload expected to call them."""
    return [
        s.name for s in SPANS
        if workload in s.on and s.name not in absent and agg.family(s.name).calls == 0
    ]


def per_layer_values(agg: Aggregate, workload: str, absent, overhead_s: float) -> dict[str, float]:
    """Reduce one traced unit to the values of :func:`metric_units`, same order."""
    values: dict[str, float] = {}
    for span in SPANS:
        stats = agg.family(span.name)
        values[f"{span.name}.calls"] = stats.calls
        values[f"{span.name}.self_s"] = stats.self_s
        if span.total:
            values[f"{span.name}.total_s"] = stats.total_s
        if span.target.split is _channel_kind:
            for kind in CHANNEL_KINDS:
                values[f"{span.name}.{kind}.self_s"] = agg.stats(f"{span.name}.{kind}").self_s
    update = agg.stats("rl.ppo.ppo_update")
    attempted = agg.counters.get("harness.evaluate.episodes_attempted", 0.0)
    values.update({
        "rl.ppo.update_s_per_512_steps": update.total_s / update.calls if update.calls else 0.0,
        "rl.checkpoint.bytes_written": agg.counters.get("rl.checkpoint.bytes_written", 0.0),
        "rl.checkpoint.bytes_read": agg.counters.get("rl.checkpoint.bytes_read", 0.0),
        "harness.evaluate.completed_ratio": (
            agg.counters.get("harness.evaluate.episodes_completed", 0.0) / attempted
            if attempted else 0.0
        ),
        "harness.report.bytes_written": agg.counters.get("harness.report.bytes_written", 0.0),
        "trace.overhead_s": overhead_s,
        "trace.absent_spans": len(absent),
        "trace.unexercised_spans": len(unexercised(agg, workload, absent)),
        "trace.worker_processes": len(agg.worker_pids),
    })
    return values
