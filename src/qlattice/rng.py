"""Deterministic pseudo-random generator for reproducible sweeps.

A fixed xorshift64* generator is used instead of platform RNGs so that sweep
reports are byte-identical across runs and machines.  Substreams for
independent trials are derived by splitmix64 mixing of (seed, stream index).
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_STAR = 0x2545F4914F6CDD1D
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(x: int) -> int:
    """One splitmix64 scrambling step; used to spread seeds apart."""
    x = (x + _GOLDEN) & _MASK
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK
    return x ^ (x >> 31)


def mix_stream(seed: int, *indices: int) -> int:
    """Derive a substream seed from a base seed and integer stream indices."""
    state = splitmix64(seed & _MASK)
    for idx in indices:
        state = splitmix64(state ^ ((idx & _MASK) * _GOLDEN & _MASK))
    return state


class Xorshift64Star:
    """64-bit shift-register generator (xorshift64*)."""

    def __init__(self, seed: int):
        # a zero state would be a fixed point; scramble every seed once
        self._state = splitmix64(seed & _MASK) or 0x9E3779B97F4A7C15
        self._spare_gauss: float | None = None

    def next_u64(self) -> int:
        x = self._state
        x ^= (x >> 12)
        x = (x ^ (x << 25)) & _MASK
        x ^= (x >> 27)
        self._state = x
        return (x * _STAR) & _MASK

    def uniform(self) -> float:
        """Uniform double in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def integer(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi) by rejection-free modular draw."""
        if hi <= lo:
            raise ValueError("empty integer range")
        span = hi - lo
        return lo + int(self.uniform() * span) % span

    def gaussian(self) -> float:
        """Standard normal deviate via Box-Muller."""
        if self._spare_gauss is not None:
            z, self._spare_gauss = self._spare_gauss, None
            return z
        # u1 in (0,1] so the log is finite
        u1 = 1.0 - self.uniform()
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_gauss = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def complex_gaussian_matrix(self, rows: int, cols: int) -> np.ndarray:
        """Matrix of standard complex Gaussians (independent re/im parts)."""
        out = np.empty((rows, cols), dtype=complex)
        for i in range(rows):
            for j in range(cols):
                out[i, j] = complex(self.gaussian(), self.gaussian())
        return out
