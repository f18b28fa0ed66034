"""Verifier model: encoders, distances, losses, decision rule."""

import numpy as np
import pytest

from siamcaps import autodiff as ad
from siamcaps import models
from siamcaps.autodiff import Graph, ShapeError, Tensor, backward
from siamcaps.rng import SplitMix64

TINY = dict(conv_channels=4, primary_types=3, face_caps=4, face_d=4,
            embed_dim=5, input_size=37, routing_iters=2)


def tiny_encoder(seed=1, kind="scn", **over):
    cfg = dict(TINY)
    cfg.update(over)
    return models.build_encoder(kind, seed, **cfg)


def tiny_images(n, seed=5, size=37):
    rng = SplitMix64(seed)
    return Tensor(rng.uniform(n * size * size).reshape(n, 1, size, size))


# ---------------------------------------------------------------------------
# capsule encoder

def test_embedding_shape_and_row_norms():
    enc = tiny_encoder()
    emb = enc.encode(tiny_images(3), training=False)
    assert emb.shape == (3, 5)
    norms = np.linalg.norm(emb.data, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-9


def test_identical_images_identical_embeddings():
    enc = tiny_encoder()
    x = tiny_images(2)
    dup = Tensor(np.concatenate([x.data, x.data], axis=0))
    out = enc.encode(dup, training=True).data
    np.testing.assert_array_equal(out[:2], out[2:])


def test_eval_encode_deterministic():
    enc = tiny_encoder()
    x = tiny_images(2)
    a = enc.encode(x, training=False).data
    b = enc.encode(x, training=False).data
    np.testing.assert_array_equal(a, b)


def test_full_width_parameter_counts():
    enc = models.ScnEncoder(seed=3)  # full width, 100x100
    counts = enc.layer_parameter_counts()
    assert counts["conv1"] == 20992
    assert counts["primary"] == 5308672
    assert counts["fc"] == 10260
    assert counts["face"] == 2048 * 32 * 8 * 16
    assert enc.parameter_count() == sum(counts.values())
    assert enc.n_lower == 2048


def test_wrong_spatial_size_error():
    enc = tiny_encoder()
    with pytest.raises(ShapeError, match="expects"):
        enc.encode(Tensor(np.zeros((1, 1, 36, 36))), training=False)
    with pytest.raises(ShapeError, match="expects"):
        enc.encode(Tensor(np.zeros((1, 2, 37, 37))), training=False)


def test_same_seed_same_encoder():
    a = tiny_encoder(seed=9)
    b = tiny_encoder(seed=9)
    for (na, ta), (nb, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert na == nb
        assert np.array_equal(ta.data, tb.data)


def test_sdropcapnet_mask_applied_in_training():
    enc = tiny_encoder(kind="sdropcapnet")
    assert enc.dropout_p is not None
    enc.dropout_p.data[:] = 0.5  # keep masks away from saturation
    x = tiny_images(2)
    rng = SplitMix64(7)
    train_out = enc.encode(x, training=True, rng=rng).data
    eval_out = enc.encode(x, training=False).data
    assert np.abs(train_out - eval_out).max() > 1e-6


def test_sdropcapnet_training_requires_rng():
    enc = tiny_encoder(kind="sdropcapnet")
    with pytest.raises(ValueError, match="rng"):
        enc.encode(tiny_images(2), training=True)


def test_clamp_dropout_p():
    enc = tiny_encoder(kind="sdropcapnet")
    enc.dropout_p.data[:] = [2.0, -1.0, 0.5, 0.999]
    enc.clamp_dropout_p()
    assert np.all(enc.dropout_p.data >= 0.01)
    assert np.all(enc.dropout_p.data <= 0.99)


def test_standard_dropout_changes_training_output():
    enc = tiny_encoder(dropout_rate=0.5)
    x = tiny_images(4)
    a = enc.encode(x, training=True, rng=SplitMix64(1)).data
    b = enc.encode(x, training=True, rng=SplitMix64(2)).data
    assert np.abs(a - b).max() > 1e-9
    c = enc.encode(x, training=True, rng=SplitMix64(1)).data
    np.testing.assert_array_equal(a, c)


def test_normalize_at_concat_variant():
    enc = tiny_encoder(normalize_at="concat")
    emb = enc.encode(tiny_images(2), training=False)
    assert emb.shape == (2, 5)  # normalization placement is internal


def test_named_parameters_unique_and_complete():
    enc = tiny_encoder(kind="sdropcapnet")
    names = [n for n, _ in enc.named_parameters()]
    assert len(names) == len(set(names))
    assert "conv1/kernel" in names and "face/W" in names
    assert "dropout_p" in names
    assert enc.parameter_count() == sum(t.size
                                        for _, t in enc.named_parameters())


# ---------------------------------------------------------------------------
# standard baseline encoder

def test_standard_encoder_shape_and_norms():
    enc = models.build_encoder("standard", 4, input_size=37, embed_dim=5,
                               ch1=4, ch2=6)
    emb = enc.encode(tiny_images(3), training=False)
    assert emb.shape == (3, 5)
    assert np.abs(np.linalg.norm(emb.data, axis=1) - 1.0).max() < 1e-9


def test_standard_encoder_default_flat_dim():
    enc = models.StandardEncoder(seed=5)
    assert enc.flat_dim == 64 * 14 * 14 == 12544
    assert enc.fc.parameter_count() == 12544 * 20 + 20


def test_build_encoder_unknown_kind():
    with pytest.raises(ValueError, match="unknown encoder kind"):
        models.build_encoder("resnet", 1)


# ---------------------------------------------------------------------------
# distances

def unit_rows(arr):
    arr = np.asarray(arr, dtype=np.float64)
    return arr / np.linalg.norm(arr, axis=1, keepdims=True)


def test_distance_identical_embeddings():
    e = Tensor(unit_rows(SplitMix64(20).normal(3 * 5).reshape(3, 5)))
    np.testing.assert_allclose(
        models.distance(e, e, "euclidean_sq").data, 0.0, atol=1e-15)
    np.testing.assert_allclose(
        models.distance(e, e, "manhattan_exp").data, 1.0, atol=1e-15)
    np.testing.assert_allclose(
        models.distance(e, e, "cosine").data, 0.0, atol=1e-9)


def test_distance_orthogonal_and_axis_pairs():
    e1 = Tensor([[1.0, 0.0, 0.0]])
    e2 = Tensor([[0.0, 1.0, 0.0]])
    np.testing.assert_allclose(
        models.distance(e1, e2, "cosine").data, [1.0], atol=1e-9)
    np.testing.assert_allclose(
        models.distance(e1, e2, "euclidean_sq").data, [2.0], atol=1e-12)


def test_distance_symmetry_bitwise():
    rng = SplitMix64(21)
    a = Tensor(unit_rows(rng.normal(4 * 6).reshape(4, 6)))
    b = Tensor(unit_rows(rng.normal(4 * 6).reshape(4, 6)))
    for metric in models.METRICS:
        ab = models.distance(a, b, metric).data
        ba = models.distance(b, a, metric).data
        assert np.array_equal(ab, ba)


def test_distance_unknown_metric_and_shape():
    e = Tensor(np.ones((2, 3)))
    with pytest.raises(ValueError, match="metric"):
        models.distance(e, e, "chebyshev")
    with pytest.raises(ShapeError):
        models.distance(e, Tensor(np.ones((2, 4))), "cosine")


def test_manhattan_exp_range_and_inversion():
    rng = SplitMix64(22)
    a = Tensor(unit_rows(rng.normal(5 * 4).reshape(5, 4)))
    b = Tensor(unit_rows(rng.normal(5 * 4).reshape(5, 4)))
    d = models.distance(a, b, "manhattan_exp")
    assert np.all(d.data > 0.0) and np.all(d.data <= 1.0)
    inv = models.effective_distance(d, "manhattan_exp")
    np.testing.assert_allclose(inv.data, 1.0 - d.data, atol=1e-15)
    same = models.effective_distance(d, "euclidean_sq")
    assert same is d
    assert models.valid_margin(0.5, "manhattan_exp")
    assert not models.valid_margin(1.5, "manhattan_exp")
    assert models.valid_margin(2.0, "euclidean_sq")


# ---------------------------------------------------------------------------
# pair losses

def test_contrastive_spec_points():
    assert models.contrastive_loss(Tensor([0.0]), [0], 2.0).item() == 0.0
    assert models.contrastive_loss(Tensor([0.0]), [1], 2.0).item() == 1.0
    assert models.contrastive_loss(Tensor([3.0]), [1], 2.0).item() == 0.0


def test_contrastive_nonnegative_and_zero_region():
    rng = SplitMix64(23)
    d = Tensor(rng.uniform(20, 0.0, 4.0))
    y = (rng.uniform(20) < 0.5).astype(np.float64)
    assert models.contrastive_loss(d, y, 2.0).item() >= 0.0
    # zero iff matching pairs at 0 and non-matching beyond margin
    d0 = np.where(y == 0, 0.0, 2.0 + rng.uniform(20))
    assert models.contrastive_loss(Tensor(d0), y, 2.0).item() == 0.0
    d1 = d0.copy()
    d1[np.argmax(y == 0)] = 0.1
    assert models.contrastive_loss(Tensor(d1), y, 2.0).item() > 0.0


def test_contrastive_validation():
    with pytest.raises(ValueError, match="margin"):
        models.contrastive_loss(Tensor([1.0]), [0], 0.0)
    with pytest.raises(ValueError, match="binary"):
        models.contrastive_loss(Tensor([1.0]), [0.5], 1.0)


def test_double_margin_spec_points():
    assert models.double_margin_loss(Tensor([0.1]), [0]).item() == 0.0
    assert models.double_margin_loss(Tensor([0.6]), [1]).item() == 0.0
    np.testing.assert_allclose(
        models.double_margin_loss(Tensor([0.0]), [1]).item(), 0.25,
        atol=1e-15)
    with pytest.raises(ValueError, match="m_n"):
        models.double_margin_loss(Tensor([1.0]), [0], m_n=0.5, m_p=0.5)


def test_double_margin_zero_region():
    rng = SplitMix64(24)
    y = (rng.uniform(30) < 0.5).astype(np.float64)
    d = np.where(y == 0, rng.uniform(30, 0.0, 0.2), rng.uniform(30, 0.5, 2.0))
    assert models.double_margin_loss(Tensor(d), y).item() == 0.0


def test_pair_loss_grad_checks():
    rng = SplitMix64(25)
    a = Tensor(rng.normal(4 * 5).reshape(4, 5) * 0.3)
    b = Tensor(rng.normal(4 * 5).reshape(4, 5) * 0.3)
    y = (rng.uniform(4) < 0.5).astype(np.float64)
    for metric in models.METRICS:
        for loss_kind in ("contrastive", "double_margin"):
            def f(a, b, metric=metric, kind=loss_kind):
                d = models.effective_distance(
                    models.distance(a, b, metric), metric)
                if kind == "contrastive":
                    m = 0.5 if metric == "manhattan_exp" else 1.0
                    return models.contrastive_loss(d, y, m)
                return models.double_margin_loss(d, y)
            err = ad.grad_check(f, [a, b], eps=1e-5)
            assert err < 1e-4, (metric, loss_kind, err)


# ---------------------------------------------------------------------------
# decision rule

def test_predict_match_directions():
    pred = models.predict_match(np.array([0.0, 1.0, 2.0]), 1.0,
                                "euclidean_sq")
    np.testing.assert_array_equal(pred, [True, False, False])  # strict at 1.0
    pred = models.predict_match(np.array([0.9, 0.2]), 0.5, "manhattan_exp")
    np.testing.assert_array_equal(pred, [True, False])
    with pytest.raises(ValueError):
        models.predict_match(np.array([1.0]), -0.5, "euclidean_sq")
    with pytest.raises(ValueError):
        models.predict_match(np.array([1.0]), 1.5, "manhattan_exp")


def test_sweep_threshold_separable_and_deterministic():
    rng = SplitMix64(28)
    d_match = rng.uniform(50, 0.0, 0.4)
    d_diff = rng.uniform(50, 0.6, 2.0)
    d = np.concatenate([d_match, d_diff])
    y = np.concatenate([np.zeros(50), np.ones(50)])
    thr1, acc1 = models.sweep_threshold(d, y, "euclidean_sq")
    thr2, acc2 = models.sweep_threshold(d, y, "euclidean_sq")
    assert acc1 == 1.0
    assert (thr1, acc1) == (thr2, acc2)
    assert d_match.max() < thr1 <= d_diff.min()


def test_sweep_threshold_similarity_direction():
    d = np.array([0.9, 0.8, 0.2, 0.1])  # similarities: matches score high
    y = np.array([0, 0, 1, 1])
    thr, acc = models.sweep_threshold(d, y, "manhattan_exp")
    assert acc == 1.0
    pred = models.predict_match(d, thr, "manhattan_exp")
    np.testing.assert_array_equal(pred, [True, True, False, False])


# ---------------------------------------------------------------------------
# tied weights: pair-loss gradient vs finite differences end to end

def test_tied_weight_gradient_matches_fd():
    enc = tiny_encoder(seed=31)
    rng = SplitMix64(32)
    left = tiny_images(2, seed=33)
    right = tiny_images(2, seed=34)
    y = np.array([0.0, 1.0])
    stacked = Tensor(np.concatenate([left.data, right.data], axis=0))

    def loss_value():
        emb = enc.encode(stacked, training=True)
        e1 = ad.slice_(emb, (slice(0, 2), slice(0, 5)))
        e2 = ad.slice_(emb, (slice(2, 4), slice(0, 5)))
        d = models.distance(e1, e2, "euclidean_sq")
        return models.contrastive_loss(d, y, 1.0)

    with Graph():
        backward(loss_value())
    params = enc.named_parameters()
    grads = {n: t.grad.copy() for n, t in params}

    # directional finite difference along a fixed random direction
    dirs = {n: rng.normal(t.size).reshape(t.data.shape)
            for n, t in params}
    eps = 1e-5
    for n, t in params:
        t.data += eps * dirs[n]
    f_plus = loss_value().item()
    for n, t in params:
        t.data -= 2 * eps * dirs[n]
    f_minus = loss_value().item()
    for n, t in params:
        t.data += eps * dirs[n]

    fd = (f_plus - f_minus) / (2 * eps)
    analytic = sum(float((grads[n] * dirs[n]).sum()) for n, _ in params)
    denom = max(1.0, abs(fd), abs(analytic))
    assert abs(fd - analytic) / denom < 1e-4
