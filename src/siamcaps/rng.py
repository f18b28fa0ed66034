"""Deterministic pseudo-random numbers with a portable, fully specified sequence.

Everything stochastic in this library (weight init, pair sampling, dropout
masks, synthetic data) draws from :class:`SplitMix64` so that a single integer
seed reproduces a run bit-for-bit on any platform.  The generator is the
SplitMix64 counter scheme: output ``i`` is ``mix64(seed + (i+1) * GAMMA)``,
which makes bulk generation a vectorized numpy expression.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

# z >> 11 leaves 53 random bits; scaling by 2^-53 gives a double in [0, 1).
_INV_2_53 = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer on a single 64-bit integer."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def derive_seed(seed: int, *tags: int) -> int:
    """Derive an independent stream seed from a base seed and integer tags.

    Used to key per-subject, per-epoch, per-step streams off one run seed
    without correlated sequences.
    """
    s = seed & _MASK
    for t in tags:
        s = mix64(s ^ mix64((t & _MASK) * _GAMMA & _MASK))
    return s


def _mix_array(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    return z ^ (z >> np.uint64(31))


class SplitMix64:
    """Counter-based SplitMix64 stream.

    The i-th raw draw (1-indexed) is ``mix64(seed + i * GAMMA)`` mod 2^64.
    All derived distributions below consume raw draws in a fixed, documented
    order, so sequences are stable across platforms and numpy versions.
    """

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._count = 0

    def spawn(self, tag: int) -> "SplitMix64":
        """Child generator whose stream is independent of this one."""
        return SplitMix64(derive_seed(self.seed, self._count, tag))

    def next_u64(self) -> int:
        self._count += 1
        return mix64((self.seed + self._count * _GAMMA) & _MASK)

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        start = self._count
        self._count += n
        with np.errstate(over="ignore"):
            idx = np.arange(start + 1, start + n + 1, dtype=np.uint64)
            z = np.uint64(self.seed) + idx * np.uint64(_GAMMA)
            return _mix_array(z)

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """``n`` doubles uniform on [lo, hi). One raw draw per value."""
        u = (self.raw(n) >> np.uint64(11)).astype(np.float64) * _INV_2_53
        return lo + (hi - lo) * u

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """``n`` Gaussian doubles via Box-Muller on consecutive draw pairs.

        Consumes 2*ceil(n/2) raw draws: pair k uses draws (2k, 2k+1) as
        (u1 in (0,1], u2 in [0,1)) and emits r*cos, r*sin in that order.
        """
        n_pairs = (n + 1) // 2
        z = self.raw(2 * n_pairs)
        u1 = ((z[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * _INV_2_53
        u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * _INV_2_53
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * math.pi * u2
        out = np.empty(2 * n_pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return mu + sigma * out[:n]

    def randrange(self, bound: int) -> int:
        """Integer in [0, bound) via modulo reduction (bias < 2^-50 here)."""
        if bound <= 0:
            raise ValueError(f"randrange bound must be positive, got {bound}")
        return self.next_u64() % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates using randrange draws from this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
