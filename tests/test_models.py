"""Verifier model: encoders, distances, losses, decision rule."""

import numpy as np
import pytest

from siamcaps import autodiff as ad
from siamcaps import layers, models
from siamcaps.autodiff import Graph, ShapeError, Tensor, backward
from siamcaps.data import PairBatch
from siamcaps.harness import RunConfig, build_run_encoder, eval_distances
from siamcaps.rng import SplitMix64

TINY = dict(conv_channels=4, primary_types=3, face_caps=4, face_d=4,
            embed_dim=5, input_size=37, routing_iters=2)


def tiny_encoder(seed=1, mode="scn", **over):
    cfg = dict(TINY)
    cfg.update(over)
    return models.ScnEncoder(seed, mode=mode, **cfg)


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


def test_full_size_eval_distances_match_the_tape_path(monkeypatch):
    # graph-free eval runs the primary capsules' convolution by Winograd;
    # under a graph the tracked weights keep every convolution on im2col.
    # 1e-10 is the benchmark's chunked-against-per-pair eval tolerance
    real, calls = layers._winograd_forward, []

    def spy(xt, *args):
        calls.append(len(xt))
        return real(xt, *args)

    monkeypatch.setattr(layers, "_winograd_forward", spy)
    enc = models.ScnEncoder(seed=4)
    rng = SplitMix64(6)
    left, right = (Tensor(rng.uniform(2 * 100 * 100).reshape(2, 1, 100, 100))
                   for _ in range(2))
    pairs = PairBatch(left, right, np.array([0.0, 1.0]))
    cfg = RunConfig()
    free, _ = eval_distances(enc, pairs, cfg, chunk=2)
    per_pair, _ = eval_distances(enc, pairs, cfg, chunk=1)
    with Graph():
        tape, _ = eval_distances(enc, pairs, cfg, chunk=2)
    assert calls == [4, 2, 2]
    assert np.abs(free - tape).max() < 1e-10
    assert np.abs(per_pair - free).max() < 1e-10


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
    enc = tiny_encoder(mode="sdropcapnet")
    assert enc.dropout_p is not None
    enc.dropout_p.data[:] = 0.5  # keep masks away from saturation
    x = tiny_images(2)
    rng = SplitMix64(7)
    train_out = enc.encode(x, training=True, rng=rng).data
    eval_out = enc.encode(x, training=False).data
    assert np.abs(train_out - eval_out).max() > 1e-6


@pytest.mark.parametrize("p", [0.1, 0.5, 0.9])
def test_sdropcapnet_mean_training_mask_is_the_eval_scale(p, monkeypatch):
    # the masks encode draws in training, one per image, average to the
    # keep probability p that eval scales by.  Over 40 calls of 2 images of
    # 500 capsules (40,000 draws), a mask in [0, 1] with mean p has a
    # Monte-Carlo standard error of at most 0.5 / sqrt(40,000) = 0.0025, and
    # the relaxation's own bias at t = 0.1 is about 0.003 (1e5 draws), so
    # 0.02 is over 4 standard errors
    enc = tiny_encoder(mode="sdropcapnet", face_caps=500, face_d=2)
    enc.dropout_p.data[:] = p
    masks = []

    def recorded(*args, **kwargs):
        z = caps_mask(*args, **kwargs)
        masks.append(z.data.copy())
        return z

    caps_mask = models.concrete_dropout_mask
    monkeypatch.setattr(models, "concrete_dropout_mask", recorded)
    x = tiny_images(2)  # training batchnorm needs two samples
    for k in range(40):
        enc.encode(x, training=True, rng=SplitMix64(1000 + k))
    assert len(masks) == 40
    for z in masks:
        assert z.shape == (2, 500) and not np.array_equal(z[0], z[1])
    mean = float(np.mean(masks))
    assert abs(mean - p) < 0.02, mean


def test_sdropcapnet_loss_gradient_in_dropout_p_finite_difference():
    # the noise is held fixed by drawing it from a fresh, equally seeded
    # rng on every evaluation of the loss
    enc = tiny_encoder(mode="sdropcapnet", face_caps=16)
    enc.dropout_p.data[:] = 0.9
    x = tiny_images(2)
    weights = Tensor(SplitMix64(3).uniform(2 * 5, -1.0, 1.0).reshape(2, 5))

    def loss(p):
        assert p is enc.dropout_p
        emb = enc.encode(x, training=True, rng=SplitMix64(44))
        return ad.sum_(ad.mul(emb, weights))

    with Graph():
        backward(loss(enc.dropout_p))
        grad = enc.dropout_p.grad.copy()
    assert np.abs(grad).max() > 1e-3  # some masks are not saturated
    assert ad.grad_check(loss, enc.dropout_p) < 1e-6


def test_sdropcapnet_training_requires_rng():
    enc = tiny_encoder(mode="sdropcapnet")
    with pytest.raises(ValueError, match="rng"):
        enc.encode(tiny_images(2), training=True)


def test_clamp_dropout_p():
    enc = tiny_encoder(mode="sdropcapnet")
    enc.dropout_p.data[:] = [2.0, -1.0, 0.5, 0.999]
    enc.clamp_dropout_p()
    assert np.all(enc.dropout_p.data >= 0.01)
    assert np.all(enc.dropout_p.data <= 0.99)


def test_normalize_at_concat_variant():
    enc = tiny_encoder(normalize_at="concat")
    emb = enc.encode(tiny_images(2), training=False)
    assert emb.shape == (2, 5)  # normalization placement is internal


@pytest.mark.parametrize("model", ["scn", "sdropcapnet", "standard"])
def test_named_parameters_unique_and_complete(model):
    enc = build_run_encoder(RunConfig(model=model, **TINY).finalize())
    names = [n for n, _ in enc.named_parameters()]
    assert len(names) == len(set(names))
    assert "conv1/kernel" in names
    assert ("dropout_p" in names) == (model == "sdropcapnet")
    assert enc.parameter_count() == sum(t.size
                                        for _, t in enc.named_parameters())
    if model != "standard":
        assert "face/W" in names
        assert sum(enc.layer_parameter_counts().values()) \
            == enc.parameter_count()


# ---------------------------------------------------------------------------
# standard baseline encoder

def test_standard_encoder_shape_and_norms():
    enc = models.StandardEncoder(4, input_size=37, embed_dim=5)
    emb = enc.encode(tiny_images(3), training=False)
    assert emb.shape == (3, 5)
    assert np.abs(np.linalg.norm(emb.data, axis=1) - 1.0).max() < 1e-9


def test_standard_encoder_default_flat_dim():
    enc = models.StandardEncoder(seed=5)
    assert enc.flat_dim == 64 * 14 * 14 == 12544
    assert sum(t.size for _, t in enc.fc.named_parameters("fc")) \
        == 12544 * 20 + 20


def test_standard_encoder_flattens_channel_major(monkeypatch):
    # fc's rows are drawn channel by channel: the last [N, H, W, C] map
    # reaches fc as the flatten of its [N, C, H, W] transpose
    maps, fc_inputs = [], []
    real_block, real_dense = models._conv_bn_relu, models.dense_forward

    def block(*args):
        out = real_block(*args)
        maps.append(out.data)
        return out

    def dense(x, p):
        fc_inputs.append(x.data)
        return real_dense(x, p)

    monkeypatch.setattr(models, "_conv_bn_relu", block)
    monkeypatch.setattr(models, "dense_forward", dense)
    enc = models.StandardEncoder(4, input_size=37, embed_dim=5)
    enc.encode(tiny_images(3), training=False)
    assert maps[-1].shape == (3, 3, 3, 64)
    assert np.array_equal(fc_inputs[0],
                          maps[-1].transpose(0, 3, 1, 2).reshape(3, -1))


def test_public_names_resolve_and_removed_ones_are_gone():
    import inspect

    import siamcaps
    from siamcaps import capsules, data, harness, layers, optim
    for name in siamcaps.__all__:
        assert getattr(siamcaps, name) is not None, name
    for module, name in ((siamcaps, "CapsuleGrid"), (capsules, "CapsuleGrid"),
                         (siamcaps, "build_encoder"),
                         (models, "build_encoder"),
                         (layers, "dropout_mask"),
                         (capsules, "_route_groups"),
                         (layers, "glorot_uniform"),
                         (siamcaps, "glorot_uniform"),
                         (ad, "uniform"),
                         (data, "_ByteCursor"),
                         (data, "_int_token"),
                         (models, "effective_distance"),
                         (siamcaps, "effective_distance"),
                         (models, "_is_match"),
                         (harness, "overlap_coefficient"),
                         (siamcaps, "overlap_coefficient")):
        assert not hasattr(module, name), (module.__name__, name)
    for cls in (layers.Conv2dParams, layers.BatchNormParams,
                layers.DenseParams, capsules.PrimaryCapsuleParams,
                capsules.CapsuleLayerParams):
        assert not hasattr(cls, "parameter_count"), cls.__name__
    u = Tensor(np.zeros((1, 2, 2, 3)))
    objects = (capsules.dynamic_route(u, 1, "tanh")[1],
               data.SplitSpec([1], [2]),
               data.FaceDataset([]),
               layers.conv2d_init(1, 1, 1))
    for obj, field in zip(objects, ("c", "seed", "source", "padding")):
        assert not hasattr(obj, field), (type(obj).__name__, field)
    for fn, gone in ((layers.conv2d_init, "padding"),
                     (layers.Conv2dParams, "padding"),
                     (optim.amsgrad_step, "theta1"),
                     (optim.amsgrad_step, "theta2"),
                     (optim.amsgrad_step, "eps"),
                     (layers.BatchNormParams, "momentum"),
                     (layers.BatchNormParams, "eps"),
                     (models.sweep_threshold, "points"),
                     (models.sweep_threshold, "metric"),
                     (models.predict_match, "metric"),
                     (harness.density_histogram, "bins"),
                     (data.save_pgm, "maxval"),
                     (data.save_pgm, "binary")):
        assert gone not in inspect.signature(fn).parameters, \
            (fn.__name__, gone)


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
        models.distance(e, e, "manhattan_exp").data, 0.0, atol=1e-15)
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


def test_manhattan_exp_range_and_formula():
    rng = SplitMix64(22)
    a = Tensor(unit_rows(rng.normal(5 * 4).reshape(5, 4)))
    b = Tensor(unit_rows(rng.normal(5 * 4).reshape(5, 4)))
    d = models.distance(a, b, "manhattan_exp")
    assert np.all(d.data >= 0.0) and np.all(d.data < 1.0)
    l1 = np.abs(a.data - b.data).sum(axis=1)
    np.testing.assert_allclose(d.data, 1.0 - np.exp(-l1), atol=1e-15)
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
                d = models.distance(a, b, metric)
                if kind == "contrastive":
                    m = 0.5 if metric == "manhattan_exp" else 1.0
                    return models.contrastive_loss(d, y, m)
                return models.double_margin_loss(d, y)
            err = ad.grad_check(f, [a, b], eps=1e-5)
            assert err < 1e-4, (metric, loss_kind, err)


# ---------------------------------------------------------------------------
# decision rule

def test_predict_match_directions():
    # one direction for every metric: a distance below the threshold
    # matches, strictly, and any threshold is taken
    pred = models.predict_match(np.array([0.0, 1.0, 2.0]), 1.0)
    np.testing.assert_array_equal(pred, [True, False, False])  # strict at 1.0
    pred = models.predict_match(np.array([-1.1e-16, 0.0, 0.5]), -1.1e-16)
    np.testing.assert_array_equal(pred, [False, False, False])
    pred = models.predict_match(np.array([-2e-16, 0.9]), 1.5)
    np.testing.assert_array_equal(pred, [True, True])


def test_sweep_threshold_separable_and_deterministic():
    rng = SplitMix64(28)
    d_match = rng.uniform(50, 0.0, 0.4)
    d_diff = rng.uniform(50, 0.6, 2.0)
    d = np.concatenate([d_match, d_diff])
    y = np.concatenate([np.zeros(50), np.ones(50)])
    thr1, acc1 = models.sweep_threshold(d, y)
    thr2, acc2 = models.sweep_threshold(d, y)
    assert acc1 == 1.0
    assert (thr1, acc1) == (thr2, acc2)
    assert d_match.max() < thr1 <= d_diff.min()


def test_sweep_threshold_manhattan_exp_distances():
    # manhattan_exp is a distance like the others: matching pairs, at
    # small L1 distance, fall below the threshold
    a = Tensor(np.zeros((4, 2)))
    b = Tensor([[0.05, 0.0], [0.1, 0.0], [1.5, 0.0], [2.0, 0.0]])
    d = models.distance(a, b, "manhattan_exp").data
    y = np.array([0, 0, 1, 1])
    thr, acc = models.sweep_threshold(d, y)
    assert acc == 1.0
    pred = models.predict_match(d, thr)
    np.testing.assert_array_equal(pred, [True, True, False, False])


def test_sweep_threshold_ties_take_the_smallest_threshold():
    # the cuts below 0.1 and above 0.9 are less accurate; the one cut
    # between the matches and the non-matches sits at its midpoint
    d = np.array([0.0, 0.1, 0.9, 1.0])
    thr, acc = models.sweep_threshold(d, np.array([0, 0, 1, 1]))
    assert acc == 1.0
    assert thr == 0.5
    # with the largest pair a match, the cut at 0.5 and the one above 1.0
    # each decide 3 of 4 pairs right; the first wins
    thr, acc = models.sweep_threshold(d, np.array([0, 0, 1, 0]))
    assert (thr, acc) == (0.5, 0.75)


def _oracle_sweep(d, y):
    """predict_match's accuracy at every candidate cut of the distinct
    distances, one call per cut; the first best wins."""
    u = np.unique(d)
    mids = [(lo + hi) / 2 if (lo + hi) / 2 > lo else hi
            for lo, hi in zip(u[:-1], u[1:])]
    cands = [u[0], *mids, np.nextafter(u[-1], np.inf)]
    accs = [float((models.predict_match(d, t) == (y == 0)).mean())
            for t in cands]
    best = int(np.argmax(accs))
    return float(cands[best]), accs[best]


def _sweep_oracle_inputs():
    rng = SplitMix64(30)
    for trial in range(80):
        n = 1 + rng.randrange(40)
        # rounding to one or two decimals ties many distances
        d = np.round(rng.uniform(n, -0.05, 2.0), 1 + trial % 2)
        y = (rng.uniform(n) < (0.0, 0.3, 0.5, 1.0)[trial % 4]).astype(float)
        yield pytest.param(d, y, id=f"draw{trial}")
    for label in (0, 1):
        yield pytest.param(np.array([0.7]), np.array([label]),
                           id=f"one-pair-{label}")
        yield pytest.param(np.full(5, 0.3), np.array([label, 0, 1, label, 1]),
                           id=f"all-equal-{label}")
    # the mean of two adjacent doubles rounds onto the lower one
    one = np.nextafter(1.0, 2.0)
    yield pytest.param(np.array([one, 1.0]), np.array([1, 0]),
                       id="adjacent-doubles")


@pytest.mark.parametrize("d,y", list(_sweep_oracle_inputs()))
def test_sweep_threshold_matches_every_cut_oracle(d, y):
    thr, acc = models.sweep_threshold(d, y)
    assert (thr, acc) == _oracle_sweep(d, y)
    assert acc == float((models.predict_match(d, thr) == (y == 0)).mean())


def test_sweep_threshold_all_match_calls_every_pair_a_match():
    d = np.array([0.2, 0.9, 0.4, 0.9])
    thr, acc = models.sweep_threshold(d, np.zeros(4))
    assert acc == 1.0
    assert thr > d.max()
    assert thr == np.nextafter(0.9, np.inf)
    # all non-matching: the smallest distance, so no pair is a match
    assert models.sweep_threshold(d, np.ones(4)) == (0.2, 1.0)


def test_sweep_accuracy_is_predict_match_accuracy_for_every_metric():
    rng = SplitMix64(29)
    for metric in models.METRICS:
        for trial in range(60):
            n = 2 + rng.randrange(30)
            a = unit_rows(rng.normal(n * 6).reshape(n, 6))
            # near-identical pairs round cosine distances below 0
            scale = (1e-9, 1e-3, 0.3, 3.0)[trial % 4]
            b = unit_rows(a + scale * rng.normal(n * 6).reshape(n, 6))
            d = models.distance(Tensor(a), Tensor(b), metric).data
            y = (rng.uniform(n) < 0.5).astype(np.float64)
            thr, acc = models.sweep_threshold(d, y)
            pred = models.predict_match(d, thr)
            assert acc == float((pred == (y == 0)).mean()), (metric, trial)


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
