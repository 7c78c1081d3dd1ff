"""Self-test of the benchmark at smoke size.

Run from the repository root with ``python3 -m pytest bench/tests``.  It
records smoke-size reference outputs into a temporary directory, then checks
that every metric of ``BENCHMARK.json`` is printed with its unit, that a
perturbed reference makes ops fail while float noise inside the tolerance
does not, that a missing traced name is reported instead of crashing, and
that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SEED = "3"

sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from tracer import Target, Tracer, aggregate  # noqa: E402


def run_bench(*args, cwd=ROOT, bench=BENCH):
    return subprocess.run(
        [sys.executable, str(bench / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload, reference_dir, trace=0):
    proc = run_bench("--workload", workload, "--seed", SEED, "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke",
                     "--reference-dir", str(reference_dir))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def reference_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("reference")
    for workload in workloads.WORKLOADS:
        proc = run_bench("--workload", workload, "--seed", SEED, "--size", "smoke",
                         "--record", "--reference-dir", str(path))
        assert proc.returncode == 0, proc.stderr
    return path


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(reference_dir, trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"] for m in spec[section]}
    for workload in (w["name"] for w in spec["workloads"]):
        result = smoke(workload, reference_dir, trace)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _perturbed(reference_dir, tmp_path, workload, field, factor):
    data = json.loads((reference_dir / f"{workload}.json").read_text())
    data["sets"]["smoke"][SEED]["ops"][0][field] *= factor
    (tmp_path / f"{workload}.json").write_text(json.dumps(data))
    return smoke(workload, tmp_path)


@pytest.mark.parametrize("workload,field", [
    ("sweep-basic", "mean_fidelity"),
    ("train-qomdp", "value_loss"),
])
def test_perturbed_reference_drives_error_rate_above_zero(reference_dir, tmp_path, workload, field):
    result = _perturbed(reference_dir, tmp_path, workload, field, 1.0 + 1e-4)
    assert result["failed"] >= 1 and not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_float_noise_within_tolerance_passes(reference_dir, tmp_path):
    result = _perturbed(reference_dir, tmp_path, "sweep-basic", "mean_fidelity",
                        1.0 + workloads.REL_TOL / 10)
    assert result["correct"] and result["failed"] == 0


def test_missing_name_is_reported_absent(tmp_path):
    workloads.import_program(ROOT)
    tracer = Tracer("qfclab", tmp_path, run_id=0)
    tracer.install([
        Target("qfclab.qcore", "no_such_function"),
        Target("qfclab.no_such_module", "f"),
        Target("qfclab.qcore", "fidelity_pure_target"),
    ])
    try:
        import qfclab

        qfclab.fidelity_pure_target(qfclab.basis_state(2), 2)
    finally:
        tracer.uninstall()
    tracer.flush()
    assert set(tracer.absent) == {"qcore.no_such_function", "no_such_module.f"}
    assert aggregate(tmp_path).stats("qcore.fidelity_pure_target").calls == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "sweep-basic", "--seed", SEED, "--seconds", "1",
                     "--trace", "0", cwd=tmp_path, bench=tmp_path / "bench")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
