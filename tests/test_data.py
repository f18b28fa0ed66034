"""Data pipeline: PGM vectors, resize formula, protocol guarantees."""

import numpy as np
import pytest

from siamcaps import data
from siamcaps.data import (FaceDataset, PgmError, kfold, load_att, load_pgm,
                           preprocess, sample_pairs, save_pgm, split_subjects,
                           synth_dataset, synth_instance)
from siamcaps.autodiff import Tensor
from siamcaps.rng import SplitMix64


# ---------------------------------------------------------------------------
# PGM parsing

def test_p5_known_bytes():
    raw = b"P5 2 2 255\n" + bytes([0, 255, 128, 64])
    img = load_pgm(raw)
    assert img.shape == (1, 2, 2)
    np.testing.assert_allclose(
        img.data[0], [[0.0, 1.0], [128 / 255, 64 / 255]], atol=1e-15)


def test_p2_with_comments_equals_p5():
    p2 = (b"P2\n# a comment\n2 2\n# another\n255\n0 255\n128 64\n")
    p5 = b"P5\n2 2\n255\n" + bytes([0, 255, 128, 64])
    np.testing.assert_array_equal(load_pgm(p2).data, load_pgm(p5).data)


def test_p5_sixteen_bit_big_endian():
    raw = b"P5 2 1 65535\n" + (1000).to_bytes(2, "big") \
        + (65535).to_bytes(2, "big")
    img = load_pgm(raw)
    np.testing.assert_allclose(img.data[0, 0],
                               [1000 / 65535, 1.0], atol=1e-15)


def test_pgm_error_codes_distinct():
    with pytest.raises(PgmError) as e:
        load_pgm(b"P6 2 2 255\n" + bytes(12))
    assert e.value.code == "bad-magic"

    with pytest.raises(PgmError, match="unexpected end of pixel data") as e:
        load_pgm(b"P5 2 2 255\n" + bytes([0, 1]))
    assert e.value.code == "truncated"

    with pytest.raises(PgmError, match="unexpected end of pixel data") as e:
        load_pgm(b"P2 2 2 255\n0 1 2")
    assert e.value.code == "truncated"

    with pytest.raises(PgmError) as e:
        load_pgm(b"P5 2 2 0\n" + bytes(4))
    assert e.value.code == "bad-maxval"

    with pytest.raises(PgmError) as e:
        load_pgm(b"P5 2 2 70000\n" + bytes(8))
    assert e.value.code == "bad-maxval"

    with pytest.raises(PgmError) as e:
        load_pgm(b"P5 2")
    assert e.value.code == "truncated"


def test_pgm_round_trip_binary_and_ascii():
    rng = SplitMix64(1)
    img = rng.uniform(64).reshape(8, 8)
    quantized = np.rint(img * 255) / 255.0
    for binary in (True, False):
        back = load_pgm(save_pgm(img, binary=binary))
        np.testing.assert_allclose(back.data[0], quantized, atol=1e-12)


# ---------------------------------------------------------------------------
# preprocessing

def test_preprocess_identity_bitwise():
    rng = SplitMix64(2)
    img = rng.uniform(100 * 100).reshape(1, 100, 100)
    out = preprocess(Tensor(img), target=100)
    assert np.array_equal(out.data, img)


def test_preprocess_constant_image():
    out = preprocess(np.full((2, 2), 0.37), target=100)
    assert out.shape == (1, 100, 100)
    np.testing.assert_allclose(out.data, 0.37, atol=1e-14)


def test_preprocess_corner_pixels_match_source_corners():
    rng = SplitMix64(3)
    img = rng.uniform(92 * 112).reshape(112, 92)  # ORL frame is 92x112
    out = preprocess(img, target=100).data[0]
    # half-pixel mapping puts output corners inside the source corner cells;
    # with clamping, corner output interpolates toward the source corner
    src_y = np.clip((np.array([0, 99]) + 0.5) * (112 / 100) - 0.5, 0, 111)
    src_x = np.clip((np.array([0, 99]) + 0.5) * (92 / 100) - 0.5, 0, 91)

    def bilinear(y, x):
        y0, x0 = int(np.floor(y)), int(np.floor(x))
        y1, x1 = min(y0 + 1, 111), min(x0 + 1, 91)
        wy, wx = y - y0, x - x0
        return ((1 - wy) * (1 - wx) * img[y0, x0]
                + (1 - wy) * wx * img[y0, x1]
                + wy * (1 - wx) * img[y1, x0]
                + wy * wx * img[y1, x1])

    for oy, sy in zip([0, 99], src_y):
        for ox, sx in zip([0, 99], src_x):
            assert abs(out[oy, ox] - bilinear(sy, sx)) < 1e-12


def test_preprocess_luma_conversion():
    rgb = np.zeros((3, 4, 4))
    rgb[0] = 1.0  # pure red
    out = preprocess(rgb, target=4)
    np.testing.assert_allclose(out.data, 0.299, atol=1e-12)


def test_preprocess_rejects_tiny_images():
    with pytest.raises(ValueError, match="too small"):
        preprocess(np.ones((1, 5)), target=100)


def test_resize_upscale_and_downscale_shapes():
    rng = SplitMix64(4)
    img = rng.uniform(30 * 50).reshape(30, 50)
    assert preprocess(img, target=100).shape == (1, 100, 100)
    assert preprocess(img, target=10).shape == (1, 10, 10)
    # values stay inside the source range (convex interpolation)
    out = preprocess(img, target=10).data
    assert out.min() >= img.min() - 1e-12
    assert out.max() <= img.max() + 1e-12


# ---------------------------------------------------------------------------
# ORL-layout loader

def test_att_loader_round_trip_metadata(tmp_path):
    ds = synth_dataset(4, 3, seed=5, size=24)
    data.export_orl_layout(ds, str(tmp_path / "orl"))
    loaded = load_att(str(tmp_path / "orl"), target=24)
    assert loaded.source == "att"
    assert loaded.subjects() == [1, 2, 3, 4]
    assert len(loaded) == 12
    by = loaded.by_subject()
    assert all(len(v) == 3 for v in by.values())
    # pixel content survives the 8-bit quantization round trip
    orig = ds.images[0][1].data
    back = loaded.images[0][1].data
    assert np.abs(orig - back).max() <= 0.5 / 255 + 1e-12


def test_att_loader_missing_root():
    with pytest.raises(FileNotFoundError):
        load_att("/nonexistent/path")


def test_lfw_loader_pgm_mirror(tmp_path):
    root = tmp_path / "lfw"
    for name, n in [("alice", 3), ("bob", 2), ("solo", 1)]:
        d = root / name
        d.mkdir(parents=True)
        rng = SplitMix64(hash(name) & 0xFFFF)
        for i in range(n):
            (d / f"{i}.pgm").write_bytes(
                save_pgm(rng.uniform(16 * 16).reshape(16, 16)))
    ds = data.load_lfw(str(root), target=16)
    assert ds.source == "lfw"
    assert len(ds.subjects()) == 2  # single-image subject dropped
    assert len(ds) == 5


# ---------------------------------------------------------------------------
# splits and pairs

def small_ds(n_subjects=10, per=4, size=12):
    return synth_dataset(n_subjects, per, seed=6, size=size)


def test_split_subjects_counts_and_determinism():
    ds = small_ds(40)
    spec = split_subjects(ds, 5, seed=7)
    assert len(spec.test_subjects) == 5
    assert len(spec.train_subjects) == 35
    assert not (spec.train_subjects & spec.test_subjects)
    spec2 = split_subjects(ds, 5, seed=7)
    assert spec.test_subjects == spec2.test_subjects
    assert split_subjects(ds, 5, seed=8).test_subjects != spec.test_subjects


def test_split_subjects_zero_holdout_and_error():
    ds = small_ds(6)
    spec = split_subjects(ds, 0, seed=1)
    assert spec.test_subjects == frozenset()
    with pytest.raises(ValueError):
        split_subjects(ds, 6, seed=1)


def test_split_spec_identical_sets_are_the_no_holdout_protocol():
    spec = data.SplitSpec([3, 1, 2], [1, 2, 3], 0)
    assert spec.train_subjects == spec.test_subjects == frozenset({1, 2, 3})


def test_split_spec_partial_overlap_rejected():
    with pytest.raises(ValueError, match="overlap"):
        data.SplitSpec([1, 2], [2, 3], 0)


def test_sample_pairs_label_ratio_exact():
    ds = small_ds()
    spec = split_subjects(ds, 2, seed=9)
    batch = sample_pairs(ds, spec.train_subjects, 100, 0.5, seed=10)
    assert len(batch) == 100
    assert int((batch.labels == 0).sum()) == 50
    all_pos = sample_pairs(ds, spec.train_subjects, 10, 1.0, seed=11)
    assert np.all(all_pos.labels == 0.0)


def test_sample_pairs_never_same_instance():
    ds = small_ds()
    batch = sample_pairs(ds, ds.subjects(), 300, 0.5, seed=12)
    for (i, j), y in zip(batch.index_pairs, batch.labels):
        assert i != j
        si, sj = ds.images[i][0], ds.images[j][0]
        assert (si == sj) == (y == 0.0)


def test_sample_pairs_deterministic():
    ds = small_ds()
    b1 = sample_pairs(ds, ds.subjects(), 40, 0.5, seed=13)
    b2 = sample_pairs(ds, ds.subjects(), 40, 0.5, seed=13)
    assert b1.index_pairs == b2.index_pairs
    assert np.array_equal(b1.left.data, b2.left.data)


def test_sample_pairs_respects_subject_filter():
    ds = small_ds()
    spec = split_subjects(ds, 3, seed=14)
    batch = sample_pairs(ds, spec.test_subjects, 60, 0.5, seed=15)
    for i, j in batch.index_pairs:
        assert ds.images[i][0] in spec.test_subjects
        assert ds.images[j][0] in spec.test_subjects


def test_sample_pairs_single_image_subject():
    imgs = [(0, Tensor(np.zeros((1, 8, 8))))]
    imgs += [(1, Tensor(np.ones((1, 8, 8)))) for _ in range(3)]
    ds = FaceDataset(imgs, "synthetic")
    batch = sample_pairs(ds, [0, 1], 10, 1.0, seed=16)
    for i, j in batch.index_pairs:  # subject 0 cannot form a positive pair
        assert ds.images[i][0] == 1
    only_single = FaceDataset(imgs[:1] * 2, "synthetic")
    with pytest.raises(ValueError):
        sample_pairs(FaceDataset([imgs[0]], "synthetic"), [0], 4, 1.0, 17)


def test_pair_batch_slice():
    ds = small_ds()
    batch = sample_pairs(ds, ds.subjects(), 20, 0.5, seed=18)
    part = batch.slice(5, 12)
    assert len(part) == 7
    assert np.array_equal(part.labels, batch.labels[5:12])
    assert np.array_equal(part.left.data, batch.left.data[5:12])


# ---------------------------------------------------------------------------
# k-fold

def test_kfold_40_subjects_5_folds():
    ds = small_ds(40, per=2)
    folds = kfold(ds, 5, seed=19)
    assert len(folds) == 5
    seen = []
    for spec in folds:
        assert len(spec.test_subjects) == 8
        assert not (spec.train_subjects & spec.test_subjects)
        assert len(spec.train_subjects) == 32
        seen.extend(spec.test_subjects)
    assert sorted(seen) == ds.subjects()  # disjoint and exhaustive


def test_kfold_uneven_partition():
    ds = small_ds(10, per=2)
    folds = kfold(ds, 3, seed=20)
    sizes = sorted(len(s.test_subjects) for s in folds)
    assert sizes == [3, 3, 4]


def test_kfold_validation():
    ds = small_ds(5, per=2)
    with pytest.raises(ValueError, match="k must be >= 2"):
        kfold(ds, 1, seed=21)
    with pytest.raises(ValueError):
        kfold(ds, 6, seed=21)


# ---------------------------------------------------------------------------
# synthetic dataset

def test_synth_deterministic_and_bounded():
    a = synth_instance(seed=22, subject=3, instance=1, size=32)
    b = synth_instance(seed=22, subject=3, instance=1, size=32)
    assert np.array_equal(a.data, b.data)
    ds = synth_dataset(3, 2, seed=23, size=32)
    for _, img in ds.images:
        assert img.data.min() >= 0.0 and img.data.max() <= 1.0


def test_synth_within_subject_closer_than_cross():
    size = 32
    rng = SplitMix64(24)
    within, cross = [], []
    for _ in range(100):
        s1 = rng.randrange(8)
        s2 = (s1 + 1 + rng.randrange(7)) % 8
        i1, i2 = rng.randrange(4), rng.randrange(4)
        a = synth_instance(25, s1, i1, size).data
        b = synth_instance(25, s1, (i1 + 1) % 4, size).data
        c = synth_instance(25, s2, i2, size).data
        within.append(((a - b) ** 2).mean())
        cross.append(((a - c) ** 2).mean())
    assert np.mean(within) < np.mean(cross)


def test_synth_instance_zero_is_template():
    from siamcaps.data import synth_subject_template, _render_blobs
    centers, sigmas, amps = synth_subject_template(26, 4, size=40)
    want = _render_blobs(40, centers, sigmas, amps)
    got = synth_instance(26, 4, 0, size=40).data[0]
    assert np.array_equal(got, want)
