"""Seeded uniform draws, bit for bit those of numpy.random.default_rng.

`Pcg64(seed).uniform(low, high, size)` returns exactly what
`numpy.random.default_rng(seed).uniform(low, high, size)` returns, without
importing numpy.random (about 6 MB and 16 ms, more than this package).  The
stream is numpy's: SeedSequence hashes the seed into a pool of four 32-bit
words, whose first eight output words seed PCG64, a 128-bit LCG read through
the XSL-RR output function (O'Neill, "PCG: A Family of Simple Fast
Space-Efficient Statistically Good Algorithms for Random Number Generation",
HMC-CS-2014-0905).  A double is the top 53 bits of one output times 2**-53,
scaled to low + (high - low) * d; arrays fill in C order.
"""

from __future__ import annotations

import math
import operator

import numpy as np

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants (numpy.random.bit_generator, after
# Melissa O'Neill's seed_seq_fe)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_state(seed) -> list[int]:
    """SeedSequence(seed).generate_state(4, uint64) as Python ints."""
    try:
        n = operator.index(seed)
    except TypeError:
        raise TypeError(f"seed must be an integer, got {seed!r}") from None
    if n < 0:
        raise ValueError(f"seed must be non-negative, got {seed!r}")
    words = [n & _M32]
    while n > _M32:
        n >>= 32
        words.append(n & _M32)

    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = (value ^ hash_const) * (hash_const * _MULT_A & _M32) & _M32
        hash_const = hash_const * _MULT_A & _M32
        return value ^ value >> 16

    def mix(x, y):
        value = (_MIX_L * x - _MIX_R * y) & _M32
        return value ^ value >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    out = []
    hash_const = _INIT_B
    for i in range(8):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        out.append(value ^ value >> 16)
    return [out[i] | out[i + 1] << 32 for i in range(0, 8, 2)]


class Pcg64:
    """numpy's default_rng(seed) stream, drawn only through uniform."""

    __slots__ = ("_state", "_inc")

    def __init__(self, seed):
        s0, s1, s2, s3 = _seed_state(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT + self._inc) & _M128

    def uniform(self, low: float = 0.0, high: float = 1.0, size: int | tuple | None = None):
        """A float for size None, else an array of that shape (int or tuple)."""
        low = float(low)
        scale = float(high) - low
        shape = size if isinstance(size, tuple) else (1 if size is None else size,)
        state, inc = self._state, self._inc
        draws = []
        for _ in range(math.prod(shape)):
            state = (state * _PCG_MULT + inc) & _M128
            x = ((state >> 64) ^ state) & _M64
            rot = state >> 122
            draws.append(low + scale * ((((x >> rot | x << (64 - rot)) & _M64) >> 11) * 2.0**-53))
        self._state = state
        return draws[0] if size is None else np.array(draws).reshape(shape)
