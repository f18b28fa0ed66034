"""Deterministic pseudo-random numbers with a portable, fully specified sequence.

Everything stochastic in this library (weight init, pair sampling, dropout
masks, synthetic data) draws from :class:`SplitMix64` so that a single integer
seed reproduces a run bit-for-bit on any platform.  The generator is the
SplitMix64 counter scheme: output ``i`` is ``mix64(seed + (i+1) * GAMMA)``,
which makes bulk generation a vectorized numpy expression (Steele, Lea &
Flood, "Fast Splittable Pseudorandom Number Generators", OOPSLA 2014).
Uniform draws, which initialise the 13.7M weights of a full-size encoder,
fill their output block by block, in cache; raw and Gaussian draws, which
nothing makes at that scale, are one whole-array pass.  The sequence does
not depend on the block or call boundaries.
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

# draws per block of a uniform draw: a block's uint64 and float64 buffers
# (512 KB) stay in a typical L2 cache
BLOCK = 32768


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


def _mix_into(z: np.ndarray, tmp: np.ndarray) -> None:
    """mix64 of every element of the uint64 array z, in place; tmp is
    uint64 scratch of z's size."""
    for shift, mult in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, shift, out=tmp)
        z ^= tmp
        if mult is not None:
            z *= np.uint64(mult)


class SplitMix64:
    """Counter-based SplitMix64 stream.

    The i-th raw draw (1-indexed) is ``mix64(seed + i * GAMMA)`` mod 2^64.
    All derived distributions below consume raw draws in a fixed, documented
    order, so sequences are stable across platforms and numpy versions.

    Uniform draws are made BLOCK at a time into reused buffers with
    in-place ufuncs, so each block's integer and float passes run in cache.
    Every step is exact integer arithmetic or the same elementwise float
    operation a whole-array formula would apply, so the sequence does not
    depend on how it is split into blocks or calls.
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

    def _draw(self, z: np.ndarray, tmp: np.ndarray) -> None:
        """Overwrite the uint64 array z with the next z.size raw draws; tmp
        is uint64 scratch of z's size.  Uniform draws pass one block at a
        time, raw and normal their whole array."""
        # seed + (count + i) * GAMMA for i = 1..z.size, mod 2^64
        np.multiply(np.arange(1, z.size + 1, dtype=np.uint64),
                    np.uint64(_GAMMA), out=z)
        z += np.uint64((self.seed + self._count * _GAMMA) & _MASK)
        self._count += z.size
        _mix_into(z, tmp)

    def _uniform(self, u: np.ndarray, z: np.ndarray, lo, hi) -> None:
        """Overwrite the float64 array u (at most BLOCK long) with the next
        u.size uniform draws on [lo, hi); z is uint64 scratch at least as
        long.  u's own memory is the mixing scratch until it is written."""
        z = z[:u.size]
        self._draw(z, u.view(np.uint64))
        z >>= np.uint64(11)
        np.multiply(z, _INV_2_53, out=u)
        u *= hi - lo
        u += lo

    def raw(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs as a uint64 array."""
        out = np.empty(n, dtype=np.uint64)
        self._draw(out, np.empty_like(out))
        return out

    def uniform(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """``n`` doubles uniform on [lo, hi). One raw draw per value:
        ``lo + (hi - lo) * ((draw >> 11) * 2^-53)``."""
        out = np.empty(n)
        self.fill_uniform(out, lo, hi)
        return out

    def fill_uniform(self, out: np.ndarray, lo: float = 0.0,
                     hi: float = 1.0) -> None:
        """Overwrite the float64 array out with the next out.size uniform
        draws on [lo, hi), in the C order of out's own axes: the values of
        ``uniform(out.size, lo, hi).reshape(out.shape)``.

        out may be a strided view, such as a transpose of the array that
        stores it.  Its leading rows are then drawn a block at a time into
        one scratch block and copied in, so no whole-array temporary is made.
        """
        if out.flags.c_contiguous:
            flat = out.reshape(-1)
            z = np.empty(min(flat.size, BLOCK), dtype=np.uint64)
            for a in range(0, flat.size, BLOCK):
                self._uniform(flat[a:a + BLOCK], z, lo, hi)
            return
        row = out[0].size
        if row > BLOCK:
            for sub in out:
                self.fill_uniform(sub, lo, hi)
            return
        rows = BLOCK // row
        scratch = np.empty(min(len(out), rows) * row)
        z = np.empty(scratch.size, dtype=np.uint64)
        for i in range(0, len(out), rows):
            blk = out[i:i + rows]
            u = scratch[:blk.size]
            self._uniform(u, z, lo, hi)
            blk[...] = u.reshape(blk.shape)

    def normal(self, n: int, mu: float = 0.0, sigma: float = 1.0) -> np.ndarray:
        """``n`` Gaussian doubles via Box-Muller on consecutive draw pairs.

        Consumes 2*ceil(n/2) raw draws: pair k uses draws (2k, 2k+1) as
        (u1 in (0,1], u2 in [0,1)) and emits r*cos, r*sin in that order,
        r = sqrt(-2 log u1), theta = 2 pi u2.
        """
        z = self.raw(2 * ((n + 1) // 2)) >> np.uint64(11)
        r = np.sqrt(-2.0 * np.log((z[0::2] + 1.0) * _INV_2_53))
        theta = z[1::2] * _INV_2_53 * (2.0 * math.pi)
        out = np.empty(z.size)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return (out * sigma + mu)[:n]

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
