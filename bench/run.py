#!/usr/bin/env python3
"""qfclab benchmark: three closed-loop workloads, end-to-end metrics, traced layers.

Run from the repository root::

    python3 bench/run.py --workload sweep-basic --seed 1 --seconds 38 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 38 --trace 1

Workloads (see ``workloads.py``): ``sweep-basic`` (desk-scale basic sweep plus
report), ``train-qomdp`` (10 PPO updates of the recurrent agent) and
``sweep-dbs`` (data-based sweep with training on demand and a 2-worker pool).
qfclab is imported from ``src/`` next to this directory; the benchmark stops
with exit code 2 if it is not there or if no reference output exists.

With ``--trace 0`` the benchmark runs the workload's unit on consecutive input
sets, starting at the seed's, while the next unit is expected to end within
``--seconds`` (at least once), checks every unit against the reference
outputs, and prints:

- ``setup_s``: importing qfclab plus building the inputs, median over this
  process and five fresh set-up processes;
- ``episodes_per_s``, ``timesteps_per_s``: total work over total unit wall time;
- ``sweep_s``: mean wall time of one unit (sweep plus report, ``train()``, or
  the train-on-demand sweep);
- ``peak_rss_mb``: the larger of this process's and its children's peak RSS.

Failed ops (a sweep cell or a PPO update that raised or differs from the
reference) are the ``failed`` count of the result line; ``error_rate`` is
printed above it.  With ``--trace 1`` the benchmark runs one unit untraced
and one traced, prints the tracing overhead, and reports the per-layer metrics
of ``layers.py``.  ``--workload all`` runs the three workloads in turn, each in
its own process, and with ``--trace 1`` adds the projected full-grid hours.

Not measured on purpose: ``step_nominal`` and mbs training (the same PPO and
MLP path as dbs with cheaper dynamics), qomdp evaluation (the LSTM single step
is timed in train-qomdp's rollouts) and CLI parsing.

``--record`` writes the reference outputs of every input set instead of
checking them; ``--size smoke`` shrinks every workload for the self-test.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
from tracer import Tracer, aggregate
from workloads import INPUT_SETS, N_STEPS, SetupError, WORKLOADS, check_unit, import_program

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Full grid of the paper: 198 dbs agents (3 noises x 11 alphas x 6 epsilons),
# 12 mbs/qomdp agents (one per epsilon each), all at 200k steps, and 4
# scenarios x 198 cells x 1000 evaluation episodes.
GRID_AGENTS = 198 + 12
GRID_TRAIN_STEPS = 200_000
GRID_EPISODES = 4 * 198 * 1000


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=38.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "smoke"), default="full")
    p.add_argument("--reference-dir", default=str(HERE / "reference"))
    p.add_argument("--record", action="store_true",
                   help="write the reference outputs of every input set")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


# -- provenance --


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    out = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True
    )
    return out.stdout.strip() or "unknown"


def _blas() -> tuple[str, str]:
    """BLAS library name/version and its thread count (as set or as queried)."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    vendor = f"{info.get('name')} {info.get('version')}"
    pinned = {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ}
    threads = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libs.glob("*openblas*")):
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = str(fn())
                break
    return vendor, f"{threads} ({'env ' + str(pinned) if pinned else 'library default'})"


def provenance(args, input_set: int) -> dict:
    import numpy as np

    vendor, threads = _blas()
    return {
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": vendor,
        "blas_threads": threads,
        "QFC_THREADS": os.environ.get("QFC_THREADS"),
        "workload": args.workload,
        "seed": args.seed,
        "input_set": f"{input_set} of {INPUT_SETS}",
        "size": args.size,
    }


# -- set-up --


def timed_setup(args, workdir: Path):
    t0 = time.perf_counter()
    import_program(ROOT)
    workload = WORKLOADS[args.workload](args.seed, args.size, workdir)
    return time.perf_counter() - t0, workload


def probe_setup(args) -> float:
    """Set-up time in a fresh interpreter, as this process measured its own."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed), "--size", args.size],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.split()[-1])


def load_references(args) -> dict:
    """Reference outputs of every input set, keyed by the set number as text."""
    path = Path(args.reference_dir) / f"{args.workload}.json"
    try:
        sets = json.loads(path.read_text())["sets"][args.size]
    except (OSError, KeyError, ValueError) as exc:
        raise SetupError(f"no {args.size} references in {path}: {exc!r}")
    missing = [i for i in range(INPUT_SETS) if str(i) not in sets]
    if missing:
        raise SetupError(f"{path} has no {args.size} reference for input sets {missing}")
    return sets


def record_references(args, workload) -> int:
    """Write the outputs of every input set at this size as the reference."""
    sets = {}
    for input_set in range(INPUT_SETS):
        unit = workload.run_unit(input_set)
        if unit.ops is None:
            print(f"cannot record input set {input_set}: {unit.error}", file=sys.stderr)
            return 1
        sets[str(input_set)] = {"ops": unit.ops, "outputs_sha256": unit.digest}
        print(f"recorded {args.size} input set {input_set} of {args.workload}: "
              f"{len(unit.ops)} ops in {unit.wall_s:.2f} s", flush=True)
    path = Path(args.reference_dir) / f"{args.workload}.json"
    data = json.loads(path.read_text()) if path.exists() else {"workload": args.workload}
    data["recorded_from"] = {"git_sha": _git_sha(), "src_sha256": _src_digest()}
    data.setdefault("sets", {})[args.size] = sets
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    return 0


# -- measuring --


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


class Tally:
    """Ops attempted and failed over every unit of one run."""

    def __init__(self, workload, references: dict):
        self.workload = workload
        self.references = references
        self.attempted = 0
        self.failed = 0

    def run(self, label: str, input_set: int):
        unit = self.workload.run_unit(input_set)
        reference = self.references[str(input_set)]
        check = check_unit(unit, reference, self.workload.key_field)
        self.attempted += check.attempted
        self.failed += check.failed
        same = "yes" if unit.digest == reference["outputs_sha256"] else "no"
        print(f"{label} (input set {input_set}): wall {unit.wall_s:.4f} s, episodes {unit.episodes:g}, "
              f"timesteps {unit.timesteps:g}, ops {check.attempted}, failed {check.failed}, "
              f"outputs byte-identical to reference (information only): {same}")
        for note in check.notes[:10]:
            print(f"  mismatch: {note}")
        return unit

    def result(self, metrics: dict) -> dict:
        print(f"error_rate {self.failed / self.attempted:.6g} "
              f"({self.failed} failed of {self.attempted} ops)")
        return {"correct": self.failed == 0, "attempted": self.attempted,
                "failed": self.failed, "metrics": metrics}


def end_to_end(units, setup_s: float) -> dict:
    """Totals over the units that completed.  A shared 2-core host swings in
    speed from second to second; a mean smooths that better than a median of
    a few units."""
    done = [u for u in units if u.ops is not None] or units
    wall = sum(u.wall_s for u in done)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "episodes_per_s": {"value": sum(u.episodes for u in done) / wall, "unit": "1/s"},
        "timesteps_per_s": {"value": sum(u.timesteps for u in done) / wall, "unit": "1/s"},
        "sweep_s": {"value": wall / len(done), "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
    }


def measure(args, tally: Tally, setup_s: float) -> dict:
    """Run units on consecutive input sets, starting at the seed's, until time is up."""
    units = []
    first = tally.workload.input_set
    start = time.perf_counter()
    while True:
        input_set = (first + len(units)) % INPUT_SETS
        units.append(tally.run(f"unit {len(units) + 1}", input_set))
        typical = statistics.median(u.wall_s for u in units)
        if time.perf_counter() - start + typical > args.seconds:
            break
    return tally.result(end_to_end(units, setup_s))


def measure_traced(args, tally: Tally, setup_s: float, workdir: Path) -> dict:
    input_set = tally.workload.input_set
    untraced = tally.run("untraced unit", input_set)
    print("end_to_end_untraced " + json.dumps(
        {k: v["value"] for k, v in end_to_end([untraced], setup_s).items()}))
    span_dir = workdir / "spans"
    tracer = Tracer(layers.PACKAGE, span_dir, run_id=args.seed)
    tracer.install(layers.TARGETS)
    try:
        traced = tally.run("traced unit", input_set)
    finally:
        tracer.uninstall()
    tracer.flush()
    overhead = traced.wall_s - untraced.wall_s
    print(f"tracing overhead: traced {traced.wall_s:.4f} s - untraced {untraced.wall_s:.4f} s"
          f" = {overhead:.4f} s ({overhead / untraced.wall_s:+.1%})")

    agg = aggregate(span_dir)
    absent = tracer.absent
    for name, reason in absent.items():
        print(f"absent span {name}: {reason}")
    for name in layers.unexercised(agg, args.workload, absent):
        print(f"FLAG span {name} has zero calls on {args.workload}, which should exercise it")
    print(f"span files {agg.files}; forked worker processes traced: {len(agg.worker_pids)}")
    if args.workload == layers.DBS and not agg.worker_pids:
        import multiprocessing

        print("worker spans not collected: the pool start method is "
              f"{multiprocessing.get_start_method()!r}, whose workers import qfclab afresh "
              "without the wrappers; their spans count as absent")
    values = layers.per_layer_values(agg, args.workload, absent, overhead)
    units = layers.metric_units()
    for name, value in values.items():
        print(f"  {name:58s} {value:14.6g} {units[name]}")
    return tally.result({k: {"value": v, "unit": units[k]} for k, v in values.items()})


def run_one(args) -> int:
    workdir = ROOT / ".bench_work" / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        try:
            setup_s, workload = timed_setup(args, workdir)
            if args.setup_probe:
                print(f"{setup_s!r}")
                return 0
            input_set = workload.input_set
            if args.record:
                return record_references(args, workload)
            references = load_references(args)
        except SetupError as exc:
            print(f"benchmark cannot start: {exc}", file=sys.stderr)
            return 2
        probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
        setup_median = statistics.median([setup_s, *probes])
        print("provenance " + json.dumps(provenance(args, input_set)))
        print(f"setup_s samples: {', '.join(f'{s:.4f}' for s in [setup_s, *probes])}")
        tally = Tally(workload, references)
        if args.trace:
            result = measure_traced(args, tally, setup_median, workdir)
        else:
            result = measure(args, tally, setup_median)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


# -- all workloads in one command --


def run_all(args) -> int:
    results = {}
    untraced = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size,
               "--reference-dir", args.reference_dir]
        print(f"== {name}", flush=True)
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        results[name] = json.loads(lines[-1])
        for line in lines:
            if line.startswith("end_to_end_untraced "):
                untraced[name] = json.loads(line.split(" ", 1)[1])
    if args.trace:
        print_projection(untraced.get(layers.BASIC, {}), results.get(layers.DBS, {}))
    merged = {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": merged,
    }))
    return 0


def print_projection(basic: dict, dbs: dict) -> None:
    """Derived, ungated: serial full-grid hours from the measured rates."""
    metrics = dbs.get("metrics", {})
    train_s = metrics.get("rl.ppo.train.total_s", {}).get("value", 0.0)
    rollouts = metrics.get("rl.ppo.collect_rollout.calls", {}).get("value", 0)
    eps = basic.get("episodes_per_s", 0.0)
    if not (train_s and rollouts and eps):
        print("projected full grid: unavailable (needs sweep-basic episodes_per_s and "
              "sweep-dbs traced rl.ppo.train)")
        return
    s_per_step = train_s / (rollouts * N_STEPS)
    hours = (GRID_AGENTS * GRID_TRAIN_STEPS * s_per_step + GRID_EPISODES / eps) / 3600.0
    print(f"projected full grid (derived, ungated): {hours:.2f} h = "
          f"({GRID_AGENTS} agents x {GRID_TRAIN_STEPS} steps x {s_per_step:.6g} s/step "
          f"[sweep-dbs traced rl.ppo.train.total_s / PPO steps] + {GRID_EPISODES} episodes "
          f"/ {eps:.4g} episodes/s [sweep-basic episodes_per_s]) / 3600; mbs/qomdp agents "
          "priced at the dbs rate and every scenario's evaluation at the basic rate")


def main(argv=None) -> int:
    args = parse_args(argv)
    # One BLAS thread per process, set before numpy loads and inherited by
    # set-up probes and pool workers.  On 2 shared cores the library default
    # (a thread per core, spinning while it waits) made 20 qomdp PPO updates
    # of one seed take 13.5-15.9 s, against 15.4-15.6 s with one thread.
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
