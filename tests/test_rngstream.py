"""The batched stream draws against numpy's own generators."""

import subprocess
import sys

import numpy as np
import pytest

from qfclab.rngstream import RngStream, uniforms

from conftest import PACKAGE

# 1- and 2-word values, 0 and 2^64 - 1 among them
EDGES = [0, 1, 7, 2**32 - 1, 2**32, 2**40 + 3, 2**63, 2**64 - 1]


def _rows(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of EDGES, then seeds and ids whose word counts alternate."""
    gen = np.random.default_rng(2024)
    one_word = gen.integers(0, 2**32, count, dtype=np.uint64)
    two_words = gen.integers(2**32, 2**64 - 1, count, dtype=np.uint64, endpoint=True)
    pick = np.arange(count) % 4
    seeds = np.where(pick < 2, one_word, two_words)
    ids = np.where(pick % 2 == 0, one_word[::-1], two_words[::-1])
    edge_seeds, edge_ids = np.array(EDGES, dtype=np.uint64)[np.indices((8, 8)).reshape(2, -1)]
    return np.concatenate([edge_seeds, seeds]), np.concatenate([edge_ids, ids])


def test_uniforms_equal_numpy_generators_byte_for_byte():
    seeds, ids = _rows(100_000)
    expected = np.array([RngStream(int(seed), int(i)).generator().random(37)
                         for seed, i in zip(seeds, ids)])
    for horizon in (1, 20, 37):
        got = uniforms(seeds, ids, horizon)
        assert got.tobytes() == expected[:, :horizon].tobytes()


def test_substream_ids_draw_as_their_generators():
    root = RngStream(1000)
    ids = [root.substream("episode", i).stream_id for i in range(300)]
    expected = np.array([RngStream(1000, i).generator().random(7) for i in ids])
    assert uniforms([1000] * 300, ids, 7).tobytes() == expected.tobytes()


@pytest.mark.parametrize("module", ["qfclab.rngstream", "qfclab.harness.cli"])
def test_no_jump_table_is_built_at_import(module):
    probe = (f"import {module}, qfclab.rngstream as r; "
             "print(r._lcg_jumps.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "0"
