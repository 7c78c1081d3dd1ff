"""Splittable random streams keyed by (seed, stream_id).

Identical (seed, stream_id, draw sequence) yields identical outputs across
runs and thread schedules, so episodes and grid cells stay reproducible no
matter how work is scheduled.  Substream ids are derived with splitmix64, the
same documented mix used for harness cell seeds.  A stream's generator is
numpy's ``PCG64(SeedSequence([seed, stream_id]))``; :func:`uniforms` draws the
first uniforms of many streams at once, the same bytes without a generator
per stream.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One round of the splitmix64 mixing function (public-domain constants)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def mix64(*parts: int) -> int:
    """Fold integers into one 64-bit value by iterated splitmix64 rounds."""
    acc = 0
    for p in parts:
        acc = splitmix64(acc ^ (int(p) & _MASK64))
    return acc


def hash_label(label: str) -> int:
    """FNV-1a 64-bit hash of a text label, for string-keyed substreams."""
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK64
    return h


@dataclass(frozen=True)
class RngStream:
    """A named position in seed space; materialize a generator with :meth:`generator`."""

    seed: int
    stream_id: int = 0

    def substream(self, *keys: int | str) -> "RngStream":
        """Child stream keyed by integers and/or labels; deterministic and order-sensitive."""
        parts = [hash_label(k) if isinstance(k, str) else int(k) for k in keys]
        return RngStream(seed=self.seed, stream_id=mix64(self.stream_id, *parts))

    def generator(self) -> np.random.Generator:
        """Fresh PCG64 generator at this stream's fixed starting point."""
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([self.seed & _MASK64, self.stream_id]))
        )


# numpy's SeedSequence (NEP 19): the hash and mix constants of its entropy pool
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
#: the multiplier of PCG64's 128-bit LCG (O'Neill 2014)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _hash32(value: np.ndarray, const: int, mult: int) -> tuple[np.ndarray, int]:
    """SeedSequence's hash of uint32 words held in uint64: (hashed words, next constant)."""
    const_next = (const * mult) & _MASK32
    value = ((value ^ const) * const_next) & _MASK32
    return value ^ (value >> 16), const_next


def _mulhi(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The high 64 bits of the 128-bit products x * y, from 32-bit limbs."""
    x0, x1, y0, y1 = x & _MASK32, x >> 32, y & _MASK32, y >> 32
    cross0, cross1 = x0 * y1, x1 * y0
    middle = ((x0 * y0) >> 32) + (cross0 & _MASK32) + (cross1 & _MASK32)
    return x1 * y1 + (cross0 >> 32) + (cross1 >> 32) + (middle >> 32)


@functools.cache
def _lcg_jumps(horizon: int) -> tuple[np.ndarray, ...]:
    """High and low words of A_t = M^(t+1) and B_t = M^t + ... + M + 1 (mod 2^128), t = 1..horizon.

    Seeding sets the LCG state to x = s + inc and steps it once, and draw t
    steps t times more, so its state is A_t x + B_t inc.
    """
    words, a, b = [], _PCG_MULT, 1
    for _ in range(horizon):
        a, b = (a * _PCG_MULT) & ((1 << 128) - 1), (b * _PCG_MULT + 1) & ((1 << 128) - 1)
        words.append((a >> 64, a & _MASK64, b >> 64, b & _MASK64))
    return tuple(np.array(column, dtype=np.uint64) for column in zip(*words))


def uniforms(seeds, stream_ids, horizon: int) -> np.ndarray:
    """The first ``horizon`` uniforms of each stream (seeds[i], stream_ids[i]), one row each.

    Row i equals ``RngStream(seeds[i], stream_ids[i]).generator().random(horizon)``
    byte for byte, for seeds and ids in [0, 2^64) (1-D arrays of one length).
    It reproduces numpy's algorithms in uint64 arithmetic: the SeedSequence
    entropy pool of the words of [seed, id] (an absent word hashes as 0), its
    ``generate_state(4, uint64)``, PCG64's seeding with state (w0:w1) and
    increment (w2:w3) << 1 | 1, every step's state in the closed form of
    :func:`_lcg_jumps`, then the XSL-RR output and ``(v >> 11) * 2^-53``.
    """
    seeds, ids = np.asarray(seeds, dtype=np.uint64), np.asarray(stream_ids, dtype=np.uint64)
    # the uint32 entropy words: a seed below 2^32 is one word, so the id's follow it
    two_words = seeds >> 32 != 0
    id_lo, id_hi = ids & _MASK32, ids >> 32
    entropy = (seeds & _MASK32, np.where(two_words, seeds >> 32, id_lo),
               np.where(two_words, id_lo, id_hi), np.where(two_words, id_hi, 0))
    const, pool = _INIT_A, []
    for word in entropy:
        hashed, const = _hash32(word, const, _MULT_A)
        pool.append(hashed)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                hashed, const = _hash32(pool[src], const, _MULT_A)
                mixed = (_MIX_L * pool[dst] - _MIX_R * hashed) & _MASK32
                pool[dst] = mixed ^ (mixed >> 16)
    const, state = _INIT_B, []
    for i in range(8):
        hashed, const = _hash32(pool[i % 4], const, _MULT_B)
        state.append(hashed)
    s_hi, s_lo, inc_hi, inc_lo = (state[2 * k] | (state[2 * k + 1] << 32) for k in range(4))
    inc_hi, inc_lo = (inc_hi << 1) | (inc_lo >> 63), (inc_lo << 1) | 1
    x_lo = s_lo + inc_lo
    x_hi = s_hi + inc_hi + (x_lo < s_lo)
    # step t's draws fill row t, so the long inner loops run over the streams
    a_hi, a_lo, b_hi, b_lo = (v[:, None] for v in _lcg_jumps(horizon))
    ax_lo, binc_lo = x_lo * a_lo, inc_lo * b_lo
    lo = ax_lo + binc_lo
    hi = (_mulhi(x_lo, a_lo) + x_lo * a_hi + x_hi * a_lo
          + _mulhi(inc_lo, b_lo) + inc_lo * b_hi + inc_hi * b_lo + (lo < ax_lo))
    v, rot = hi ^ lo, hi >> 58
    v = (v >> rot) | (v << ((64 - rot) & 63))
    return ((v >> 11).astype(np.float64) * (1.0 / 9007199254740992.0)).T
