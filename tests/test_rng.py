"""Deterministic PRNG contract: sequence, distributions, stream splitting."""

import numpy as np
import pytest

from siamcaps.rng import BLOCK, SplitMix64, derive_seed, mix64

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_stream(seed: int, n: int) -> list:
    """Scalar big-int reimplementation of the generator, used as the oracle."""
    out = []
    state = seed & MASK
    for _ in range(n):
        state = (state + GAMMA) & MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


def test_matches_scalar_reference_bitwise():
    for seed in (0, 1, 7, 123456789, MASK):
        got = SplitMix64(seed).raw(64).tolist()
        assert got == reference_stream(seed, 64)


def test_seed_zero_known_vector():
    # first three outputs of the standard SplitMix64 sequence for seed 0
    got = SplitMix64(0).raw(3).tolist()
    assert got == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_stream_is_counter_based():
    g1 = SplitMix64(42)
    a = g1.raw(5).tolist() + g1.raw(7).tolist()
    b = SplitMix64(42).raw(12).tolist()
    assert a == b


def test_next_u64_agrees_with_raw():
    g = SplitMix64(9)
    singles = [g.next_u64() for _ in range(10)]
    assert singles == SplitMix64(9).raw(10).tolist()


def test_uniform_range_and_determinism():
    g = SplitMix64(7)
    u = g.uniform(10000)
    assert u.min() >= 0.0 and u.max() < 1.0
    v = SplitMix64(7).uniform(10000)
    assert np.array_equal(u, v)
    w = SplitMix64(7).uniform(100, -2.0, 3.0)
    assert w.min() >= -2.0 and w.max() < 3.0


def test_uniform_mean_near_half():
    u = SplitMix64(5).uniform(200000)
    assert abs(u.mean() - 0.5) < 0.005


def test_normal_moments():
    x = SplitMix64(11).normal(200000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01
    y = SplitMix64(11).normal(200000, mu=3.0, sigma=0.5)
    assert abs(y.mean() - 3.0) < 0.01
    assert abs(y.std() - 0.5) < 0.01


def test_normal_consumes_pairs_deterministically():
    a = SplitMix64(13).normal(5)
    b = SplitMix64(13).normal(5)
    assert np.array_equal(a, b)


def test_randrange_bounds_and_error():
    g = SplitMix64(2)
    vals = [g.randrange(10) for _ in range(1000)]
    assert min(vals) >= 0 and max(vals) <= 9
    assert set(vals) == set(range(10))
    with pytest.raises(ValueError):
        g.randrange(0)


def test_shuffle_is_permutation():
    g = SplitMix64(21)
    items = list(range(50))
    g.shuffle(items)
    assert sorted(items) == list(range(50))
    assert items != list(range(50))


def test_spawn_streams_differ():
    g = SplitMix64(77)
    a = g.spawn(0).raw(8).tolist()
    b = g.spawn(1).raw(8).tolist()
    assert a != b
    assert a != SplitMix64(77).raw(8).tolist()


def test_derive_seed_depends_on_all_tags():
    s = derive_seed(7, 1, 2)
    assert s != derive_seed(7, 1, 3)
    assert s != derive_seed(7, 2, 1)
    assert s != derive_seed(8, 1, 2)
    assert derive_seed(7, 1, 2) == s


def test_mix64_is_masked_to_64_bits():
    assert 0 <= mix64((1 << 64) + 5) <= MASK


# ---------------------------------------------------------------------------
# block-wise bulk draws

B = BLOCK
BOUNDARY_SIZES = (B - 1, B, B + 1, 3 * B + 5)


def _uniform_formula(draws, lo=0.0, hi=1.0):
    """The whole-array uniform formula on given raw draws."""
    z = np.array(draws, dtype=np.uint64)
    return lo + (hi - lo) * ((z >> np.uint64(11)).astype(np.float64)
                             * 2.0 ** -53)


def _normal_formula(draws, n, mu=0.0, sigma=1.0):
    """The whole-array Box-Muller formula on given raw draws."""
    z = np.array(draws, dtype=np.uint64)
    u1 = ((z[0::2] >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0 ** -53
    u2 = (z[1::2] >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(z.size)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return mu + sigma * out[:n]


@pytest.fixture(scope="module")
def ref_draws():
    return reference_stream(31, 3 * B + 32)


@pytest.mark.parametrize("n", BOUNDARY_SIZES)
def test_bulk_draws_match_scalar_reference_at_block_boundaries(n, ref_draws):
    assert SplitMix64(31).raw(n).tolist() == ref_draws[:n]
    got = SplitMix64(31).uniform(n, -0.25, 2.0)
    assert got.tobytes() == _uniform_formula(ref_draws[:n], -0.25,
                                             2.0).tobytes()
    got = SplitMix64(31).normal(n, 0.5, 3.0)
    want = _normal_formula(ref_draws[:n + n % 2], n, 0.5, 3.0)
    assert got.shape == (n,) and got.tobytes() == want.tobytes()


def test_interleaved_bulk_draws_continue_one_stream(ref_draws):
    g, pos = SplitMix64(31), 0
    for kind, n in (("raw", 5), ("uniform", B + 3), ("normal", 7),
                    ("single", 1), ("raw", B), ("normal", B - 1),
                    ("uniform", 2)):
        used = n + n % 2 if kind == "normal" else n
        draws = ref_draws[pos:pos + used]
        if kind == "raw":
            assert g.raw(n).tolist() == draws
        elif kind == "uniform":
            assert g.uniform(n).tobytes() == _uniform_formula(draws).tobytes()
        elif kind == "normal":
            assert g.normal(n).tobytes() == _normal_formula(draws,
                                                            n).tobytes()
        else:
            assert g.next_u64() == draws[0]
        pos += used
    assert pos < len(ref_draws)


@pytest.mark.parametrize("shape,axes", [
    ((5, 7, 3), (0, 2, 1)),            # small rows, one block
    ((40, 9, 9, 100), (0, 3, 1, 2)),   # several rows per block, 2 blocks
    ((3, 9, 9, 512), (0, 3, 1, 2)),    # a row longer than a block
    ((4, 3, 5), (0, 1, 2)),            # contiguous
])
def test_fill_uniform_draws_in_the_views_own_order(shape, axes):
    store = np.empty(shape)
    view = store.transpose(axes)
    SplitMix64(8).fill_uniform(view, -1.5, 0.5)
    want = SplitMix64(8).uniform(store.size, -1.5, 0.5).reshape(view.shape)
    assert np.ascontiguousarray(view).tobytes() == want.tobytes()
