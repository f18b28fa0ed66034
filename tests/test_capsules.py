"""Capsule primitives against analytic values and hand-rolled references."""

import numpy as np
import pytest

from siamcaps import autodiff as ad
from siamcaps import capsules as caps
from siamcaps.autodiff import ShapeError, Tensor, grad_check
from siamcaps.layers import Conv2dParams, conv2d_forward, conv2d_init
from siamcaps.rng import SplitMix64, derive_seed


def route_reference(u_hat: np.ndarray, iterations: int, act: str):
    """Plain-numpy routing recurrence, written independently of the library."""
    n, n_lower, n_upper, d = u_hat.shape
    b = np.zeros((n, n_lower, n_upper))
    hist = []
    v = None
    for it in range(iterations):
        shifted = b - b.max(axis=2, keepdims=True)
        c = np.exp(shifted)
        c = c / c.sum(axis=2, keepdims=True)
        hist.append(c.copy())
        s = np.einsum("nlu,nlud->nud", c, u_hat)
        if act == "squash":
            n2 = (s * s).sum(axis=-1, keepdims=True)
            v = s * np.sqrt(n2 + 1e-18) / (1.0 + n2)
        else:
            v = np.tanh(s)
        if it < iterations - 1:
            b = b + np.einsum("nud,nlud->nlu", v, u_hat)
    return v, hist


# ---------------------------------------------------------------------------
# squash

def test_squash_zero_is_exactly_zero():
    v = caps.squash(Tensor(np.zeros((3, 4))), axis=1)
    assert np.all(v.data == 0.0)


def test_squash_analytic_points():
    v = caps.squash(Tensor([[1.0, 0.0]]), axis=1).data
    np.testing.assert_allclose(v, [[0.5, 0.0]], atol=1e-12)
    v = caps.squash(Tensor([[3.0, 0.0]]), axis=1).data
    np.testing.assert_allclose(v, [[0.9, 0.0]], atol=1e-12)


def test_squash_norm_formula_tight():
    for mag in (0.1, 1.0, 3.0, 10.0):
        direction = np.array([2.0, -1.0, 2.0]) / 3.0
        s = Tensor((mag * direction)[None, :])
        v = caps.squash(s, axis=1).data
        got = np.sqrt((v * v).sum())
        want = mag * mag / (1.0 + mag * mag)
        assert abs(got - want) < 1e-12


def test_squash_norm_below_one_and_monotone():
    rng = SplitMix64(60)
    dirs = rng.normal(50 * 4).reshape(50, 4)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    mags = np.sort(rng.uniform(50, 0.01, 20.0))
    norms = []
    for m, d in zip(mags, dirs):
        v = caps.squash(Tensor((m * d)[None, :]), axis=1).data
        norms.append(np.linalg.norm(v))
    norms = np.array(norms)
    assert np.all(norms < 1.0)
    assert np.all(np.diff(norms) > 0)  # mags sorted, norm strictly grows


def test_squash_preserves_direction():
    rng = SplitMix64(61)
    s = rng.normal(20 * 5).reshape(20, 5)
    v = caps.squash(Tensor(s), axis=1).data
    cos = (s * v).sum(1) / (np.linalg.norm(s, axis=1)
                            * np.linalg.norm(v, axis=1))
    assert np.abs(cos - 1.0).max() < 1e-9


def test_squash_grad_check():
    x = Tensor(SplitMix64(62).uniform(12, -2.0, 2.0).reshape(3, 4))
    assert grad_check(
        lambda x: ad.sum_(ad.square(caps.squash(x, axis=1))), x) < 1e-4


# ---------------------------------------------------------------------------
# dynamic routing

def rand_uhat(shape, seed, scale=1.0):
    n = int(np.prod(shape))
    return SplitMix64(seed).uniform(n, -scale, scale).reshape(shape)


def test_first_iteration_couplings_uniform():
    u_hat = Tensor(rand_uhat((2, 4, 10, 3), 70))
    _, state = caps.dynamic_route(u_hat, 1, "squash")
    np.testing.assert_allclose(state.c_history[0], 0.1, atol=1e-15)


def test_route_matches_reference():
    for act in ("squash", "tanh"):
        u_hat = rand_uhat((2, 5, 4, 3), 71)
        v, state = caps.dynamic_route(Tensor(u_hat), 3, act)
        v_ref, hist_ref = route_reference(u_hat, 3, act)
        np.testing.assert_allclose(v.data, v_ref, atol=1e-12)
        assert len(state.c_history) == len(hist_ref) == 3
        for c_got, c_ref in zip(state.c_history, hist_ref):
            np.testing.assert_allclose(c_got, c_ref, atol=1e-12)


def test_coupling_rows_sum_to_one():
    for seed in range(5):
        u_hat = Tensor(rand_uhat((2, 6, 5, 4), 80 + seed, 2.0))
        _, state = caps.dynamic_route(u_hat, 4, "squash")
        for c in state.c_history:
            np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-9)
            assert np.all(c >= 0.0)


def test_squash_routing_output_norms_below_one():
    u_hat = Tensor(rand_uhat((3, 8, 4, 5), 85, 3.0))
    v, _ = caps.dynamic_route(u_hat, 3, "squash")
    norms = np.linalg.norm(v.data, axis=-1)
    assert np.all(norms < 1.0)


def two_cluster_uhat():
    # both lower capsules vote identically for parent 0, oppositely for 1
    e = np.array([0.8, 0.3])
    f = np.array([0.5, -0.6])
    u_hat = np.zeros((1, 2, 2, 2))
    u_hat[0, 0, 0] = e
    u_hat[0, 1, 0] = e
    u_hat[0, 0, 1] = f
    u_hat[0, 1, 1] = -f
    return u_hat


def test_two_cluster_agreement_monotone():
    u_hat = two_cluster_uhat()
    _, state = caps.dynamic_route(Tensor(u_hat), 5, "squash")
    c0 = np.array([c[0, :, 0] for c in state.c_history])  # [iter, lower]
    assert np.all(np.diff(c0, axis=0) >= 0.0)
    assert np.all(c0[-1] > c0[0])  # strictly increased overall
    _, hist_ref = route_reference(u_hat, 5, "squash")
    np.testing.assert_allclose(
        np.array([c[0, :, 0] for c in hist_ref]), c0, atol=1e-12)


def test_route_rejects_bad_iterations():
    u_hat = Tensor(rand_uhat((1, 2, 2, 2), 86))
    with pytest.raises(ValueError, match="iterations"):
        caps.dynamic_route(u_hat, 0, "squash")


def test_route_grad_check_both_activations():
    for act in ("squash", "tanh"):
        u_hat = Tensor(rand_uhat((1, 4, 3, 3), 87, 0.8))
        assert grad_check(
            lambda u: ad.sum_(ad.square(
                caps.dynamic_route(u, 2, act)[0])), u_hat) < 1e-4


def test_detached_routing_forward_matches_attached():
    u_hat = rand_uhat((2, 4, 3, 3), 88)
    v1, _ = caps.dynamic_route(Tensor(u_hat), 3, "tanh")
    v2, _ = caps.dynamic_route(Tensor(u_hat), 3, "tanh", detach_routing=True)
    np.testing.assert_allclose(v1.data, v2.data, atol=1e-12)


def test_detached_routing_single_iteration_grads_equal():
    # one iteration means constant couplings, so both paths agree exactly
    u_np = rand_uhat((1, 3, 2, 2), 89)

    def grad_of(detach):
        u = Tensor(u_np.copy())
        u.requires_grad = True
        with ad.Graph():
            v, _ = caps.dynamic_route(u, 1, "tanh", detach_routing=detach)
            ad.backward(ad.sum_(ad.square(v)))
        return u.grad

    np.testing.assert_allclose(grad_of(False), grad_of(True), atol=1e-12)


def test_detached_routing_multi_iteration_grads_differ():
    u_np = rand_uhat((1, 3, 2, 2), 90)

    def grad_of(detach):
        u = Tensor(u_np.copy())
        u.requires_grad = True
        with ad.Graph():
            v, _ = caps.dynamic_route(u, 3, "tanh", detach_routing=detach)
            ad.backward(ad.sum_(ad.square(v)))
        return u.grad

    assert np.abs(grad_of(False) - grad_of(True)).max() > 1e-8


def activation_vjp(s: np.ndarray, g: np.ndarray, act: str) -> np.ndarray:
    """Cotangent of s given the cotangent g of act(s), in plain numpy."""
    if act == "tanh":
        return g * (1.0 - np.tanh(s) ** 2)
    n2 = (s * s).sum(axis=-1, keepdims=True)
    root = np.sqrt(n2 + 1e-18)
    f = root / (1.0 + n2)
    df = (0.5 / root * (1.0 + n2) - root) / (1.0 + n2) ** 2
    return f * g + 2.0 * s * df * (s * g).sum(axis=-1, keepdims=True)


def test_detached_routing_matches_frozen_coupling_oracle():
    # detached routing must route like the reference, and its gradient must
    # be that of act(sum_i C * u_hat_i) with the last couplings C frozen:
    # nothing may leak back through the log priors
    u_np = rand_uhat((2, 5, 4, 3), 91)
    w = rand_uhat((2, 4, 3), 92)
    for act in ("squash", "tanh"):
        u = Tensor(u_np.copy(), requires_grad=True)
        with ad.Graph():
            v, state = caps.dynamic_route(u, 3, act, detach_routing=True)
            ad.backward(ad.sum_(ad.mul(v, Tensor(w))))
        v_ref, hist_ref = route_reference(u_np, 3, act)
        np.testing.assert_allclose(v.data, v_ref, rtol=0, atol=1e-12)
        assert len(state.c_history) == len(hist_ref) == 3
        for c_got, c_ref in zip(state.c_history, hist_ref):
            np.testing.assert_allclose(c_got, c_ref, rtol=0, atol=1e-12)
        c = hist_ref[-1]
        s = np.einsum("nlu,nlud->nud", c, u_np)
        g_s = activation_vjp(s, w, act)
        want = c[..., None] * g_s[:, None, :, :]
        np.testing.assert_allclose(u.grad, want, rtol=0, atol=1e-12)


# ---------------------------------------------------------------------------
# primary capsules

def test_primary_parameter_count_full_width():
    p = caps.PrimaryCapsuleParams(in_ch=256, n_types=32, d=8, seed=1)
    assert p.parameter_count() == 8 * (9 * 9 * 256 * 32 + 32) == 5308672


def test_primary_zero_features_zero_poses():
    p = caps.PrimaryCapsuleParams(in_ch=4, n_types=3, d=2, ksize=3, stride=1,
                                  seed=2)
    # zero bias already; zero input then maps to zero
    p.conv.bias.data[:] = 0.0
    grid = caps.primary_capsules_forward(Tensor(np.zeros((1, 4, 5, 5))), p)
    assert np.all(grid.poses.data == 0.0)


def test_primary_grid_shape_full_width():
    p = caps.PrimaryCapsuleParams(in_ch=256, n_types=32, d=8, seed=3)
    grid = caps.primary_capsules_forward(Tensor(np.zeros((1, 256, 31, 31))), p)
    assert grid.meta == (8, 8, 32)
    assert grid.n_caps == 2048
    assert grid.d == 8


def test_primary_reduced_width_shape():
    p = caps.PrimaryCapsuleParams(in_ch=32, n_types=8, d=8, seed=4)
    grid = caps.primary_capsules_forward(
        Tensor(SplitMix64(5).uniform(32 * 31 * 31).reshape(1, 32, 31, 31)), p)
    assert grid.meta == (8, 8, 8)
    assert grid.n_caps == 512
    norms = np.linalg.norm(grid.poses.data, axis=2)
    assert np.all(norms < 1.0)  # squash applied per pose


def test_primary_channel_mismatch_error():
    p = caps.PrimaryCapsuleParams(in_ch=8, n_types=2, d=2, ksize=3, seed=6)
    with pytest.raises(ShapeError, match="channels"):
        caps.primary_capsules_forward(Tensor(np.zeros((1, 4, 9, 9))), p)


def test_capsule_grid_count_invariant():
    with pytest.raises(ShapeError, match="pose count"):
        caps.CapsuleGrid(Tensor(np.zeros((1, 7, 4))), 2, 2, 2)


def test_primary_pose_stacking_order():
    # pose dimension k of capsule (gh, gw, type) comes from output channel
    # k * n_types + type
    p = caps.PrimaryCapsuleParams(in_ch=1, n_types=2, d=3, ksize=1, stride=1,
                                  seed=7)
    p.conv.kernel.data[:] = 0.0
    for dim in range(3):
        p.conv.bias.data[2 * dim:2 * dim + 2] = [10.0 * dim + 1.0,
                                                 10.0 * dim + 2.0]
    grid = caps.primary_capsules_forward(Tensor(np.zeros((1, 1, 2, 2))), p)
    # undo squash by checking direction ratios instead of magnitudes
    pose_type0 = grid.poses.data[0, 0]  # (h=0,w=0,type=0)
    pose_type1 = grid.poses.data[0, 1]  # (h=0,w=0,type=1)
    np.testing.assert_allclose(pose_type0 / pose_type0[0],
                               np.array([1.0, 11.0, 21.0]), rtol=1e-12)
    np.testing.assert_allclose(pose_type1 / pose_type1[0],
                               np.array([2.0, 12.0, 22.0]) / 2.0, rtol=1e-12)


def test_primary_matches_per_dimension_convolutions():
    # oracle: d separate convolutions on kernel/bias slices, stacked by numpy
    n, in_ch, t, d = 2, 3, 2, 4
    p = caps.PrimaryCapsuleParams(in_ch=in_ch, n_types=t, d=d, ksize=3,
                                  stride=2, seed=11)
    p.conv.bias.data[:] = SplitMix64(12).uniform(d * t, -0.5, 0.5)
    x = Tensor(SplitMix64(13).uniform(n * in_ch * 9 * 9, -1.0, 1.0)
               .reshape(n, in_ch, 9, 9))
    grid = caps.primary_capsules_forward(x, p)
    planes = []
    for dim in range(d):
        block = slice(dim * t, (dim + 1) * t)
        conv = Conv2dParams(Tensor(p.conv.kernel.data[block]),
                            Tensor(p.conv.bias.data[block]), stride=2)
        m = conv2d_forward(x, conv).data  # [N, t, gh, gw]
        planes.append(m.transpose(0, 2, 3, 1).reshape(n, -1))
    want = caps.squash(Tensor(np.stack(planes, axis=2)), axis=2).data
    assert grid.meta == (4, 4, t)
    np.testing.assert_allclose(grid.poses.data, want, rtol=0, atol=1e-10)


def test_primary_grad_check_input_kernel_bias():
    p = caps.PrimaryCapsuleParams(in_ch=2, n_types=2, d=3, ksize=3, stride=2,
                                  seed=14)
    p.conv.bias.data[:] = SplitMix64(15).uniform(6, -0.5, 0.5)
    x = Tensor(SplitMix64(16).uniform(2 * 7 * 7, -1.0, 1.0)
               .reshape(1, 2, 7, 7))
    weights = Tensor(SplitMix64(17).uniform(3 * 3 * 2 * 3, -1.0, 1.0)
                     .reshape(1, 18, 3))

    def f(x_, k_, b_):
        p.conv.kernel, p.conv.bias = k_, b_
        grid = caps.primary_capsules_forward(x_, p)
        return ad.sum_(ad.mul(grid.poses, weights))

    assert grad_check(f, [x, p.conv.kernel, p.conv.bias]) < 1e-7


def test_primary_kernel_blocks_match_per_dimension_init():
    in_ch, t, d, seed = 4, 3, 5, 18
    p = caps.PrimaryCapsuleParams(in_ch=in_ch, n_types=t, d=d, ksize=3,
                                  seed=seed)
    assert p.conv.kernel.shape == (d * t, in_ch, 3, 3)
    for dim in range(d):
        ref = conv2d_init(in_ch, t, 3, 3, 0, derive_seed(seed, dim))
        assert np.array_equal(p.conv.kernel.data[dim * t:(dim + 1) * t],
                              ref.kernel.data)
    assert np.array_equal(p.conv.bias.data, np.zeros(d * t))


# ---------------------------------------------------------------------------
# capsule transform layer

def test_capsule_layer_parameter_count_logged_true_count():
    p = caps.CapsuleLayerParams(2048, 32, 8, 16, seed=8)
    assert p.parameter_count() == 2048 * 32 * 8 * 16 == 8388608


def test_capsule_layer_zero_grid_zero_output():
    p = caps.CapsuleLayerParams(6, 3, 4, 5, activation_kind="tanh", seed=9)
    grid = caps.CapsuleGrid(Tensor(np.zeros((2, 6, 4))), 1, 3, 2)
    v = caps.capsule_layer_forward(grid, p, iterations=2)
    assert v.shape == (2, 3, 5)
    assert np.all(v.data == 0.0)


def test_capsule_layer_uhat_matches_loop_reference():
    rng = SplitMix64(91)
    poses = rng.uniform(2 * 4 * 3, -1, 1).reshape(2, 4, 3)
    p = caps.CapsuleLayerParams(4, 2, 3, 5, activation_kind="squash", seed=10)
    grid = caps.CapsuleGrid(Tensor(poses), 2, 2, 1)
    v = caps.capsule_layer_forward(grid, p, iterations=3)
    u_hat = np.einsum("nli,luio->nluo", poses, p.W.data)
    v_ref, _ = route_reference(u_hat, 3, "squash")
    np.testing.assert_allclose(v.data, v_ref, atol=1e-12)


def test_capsule_layer_coupling_rows_sum_to_one():
    p = caps.CapsuleLayerParams(5, 3, 4, 4, seed=11)
    grid = caps.CapsuleGrid(Tensor(SplitMix64(92).uniform(2 * 5 * 4, -1, 1)
                                   .reshape(2, 5, 4)), 5, 1, 1)
    _, state = caps.capsule_layer_forward(grid, p, iterations=3,
                                          return_state=True)
    for c in state.c_history:
        np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-9)


def test_capsule_layer_grad_check_tiny():
    # full stack at n_lower=6, n_upper=3, d=4, 2 iterations
    rng = SplitMix64(93)
    poses = Tensor(rng.uniform(1 * 6 * 4, -0.5, 0.5).reshape(1, 6, 4))
    p = caps.CapsuleLayerParams(6, 3, 4, 4, activation_kind="tanh", seed=12)

    def f(poses, w):
        q = caps.CapsuleLayerParams.__new__(caps.CapsuleLayerParams)
        q.W = w
        q.activation_kind = "tanh"
        grid = caps.CapsuleGrid(poses, 2, 3, 1)
        return ad.sum_(ad.square(caps.capsule_layer_forward(grid, q, 2)))

    assert grad_check(f, [poses, p.W], eps=1e-5) < 1e-4


def test_capsule_layer_shape_errors():
    p = caps.CapsuleLayerParams(6, 3, 4, 4, seed=13)
    with pytest.raises(ShapeError, match="pose dim"):
        caps.capsule_layer_forward(
            caps.CapsuleGrid(Tensor(np.zeros((1, 6, 5))), 2, 3, 1), p, 2)
    with pytest.raises(ShapeError, match="lower capsules"):
        caps.capsule_layer_forward(
            caps.CapsuleGrid(Tensor(np.zeros((1, 4, 4))), 2, 2, 1), p, 2)


# ---------------------------------------------------------------------------
# concrete dropout

def test_concrete_symmetric_point_exact():
    z = caps.concrete_dropout_mask(Tensor([0.5]), Tensor([0.5]), t=0.1)
    assert z.data[0] == 0.5


def test_concrete_p09_u05_near_one():
    z = caps.concrete_dropout_mask(Tensor([0.9]), Tensor([0.5]), t=0.1)
    want = 1.0 / (1.0 + np.exp(-np.log(9.0) / 0.1))
    np.testing.assert_allclose(z.data, [want], atol=1e-15)
    assert z.data[0] > 1.0 - 1e-9


def test_concrete_monte_carlo_mean_tracks_p_standard_form():
    # dividing the whole logit sum by t relaxes Bernoulli(p): as t -> 0 the
    # mask mean converges to p, and at t=0.1 it is already within 0.05
    rng = SplitMix64(95)
    for p_val in (0.3, 0.7):
        u = np.clip(rng.uniform(20000), 1e-7, 1.0 - 1e-7)
        z = caps.concrete_dropout_mask(
            Tensor(np.full(20000, p_val)), Tensor(u), t=0.1,
            standard_concrete=True)
        assert abs(z.data.mean() - p_val) < 0.05


def test_concrete_printed_form_mean_saturates():
    # with 1/t on the probability logit only, the sharpened logit swamps the
    # logistic noise, so the mask mean collapses toward {0,1} instead of p
    rng = SplitMix64(98)
    u = np.clip(rng.uniform(20000), 1e-7, 1.0 - 1e-7)
    lo = caps.concrete_dropout_mask(
        Tensor(np.full(20000, 0.3)), Tensor(u), t=0.1).data.mean()
    hi = caps.concrete_dropout_mask(
        Tensor(np.full(20000, 0.7)), Tensor(u), t=0.1).data.mean()
    assert lo < 0.05
    assert hi > 0.95


def test_concrete_sharp_temperature_saturates():
    rng = SplitMix64(96)
    p_val = 0.6
    u = np.clip(rng.uniform(500), 1e-7, 1.0 - 1e-7)
    t = 0.01
    z = caps.concrete_dropout_mask(Tensor(np.full(500, p_val)),
                                   Tensor(u), t=t).data
    logit_p = np.log(p_val) - np.log1p(-p_val)
    logit_u = np.log(u) - np.log1p(-u)
    arg = logit_p / t + logit_u
    strong = np.abs(arg) > 10.0
    dist = np.minimum(z[strong], 1.0 - z[strong])
    assert dist.max() < 1e-3


def test_concrete_rejects_boundary_values():
    with pytest.raises(ValueError):
        caps.concrete_dropout_mask(Tensor([1.0]), Tensor([0.5]), 0.1)
    with pytest.raises(ValueError):
        caps.concrete_dropout_mask(Tensor([0.5]), Tensor([0.0]), 0.1)
    with pytest.raises(ValueError):
        caps.concrete_dropout_mask(Tensor([0.5]), Tensor([0.5]), 0.0)


def test_concrete_standard_form_differs():
    a = caps.concrete_dropout_mask(Tensor([0.9]), Tensor([0.3]), 0.1)
    b = caps.concrete_dropout_mask(Tensor([0.9]), Tensor([0.3]), 0.1,
                                   standard_concrete=True)
    want_a = 1.0 / (1.0 + np.exp(-(np.log(9.0) / 0.1
                                   + np.log(0.3) - np.log(0.7))))
    want_b = 1.0 / (1.0 + np.exp(-(np.log(9.0)
                                   + np.log(0.3) - np.log(0.7)) / 0.1))
    np.testing.assert_allclose(a.data, [want_a], atol=1e-12)
    np.testing.assert_allclose(b.data, [want_b], atol=1e-12)
    assert abs(a.data[0] - b.data[0]) > 1e-6


def test_concrete_grad_check_frozen_u():
    rng = SplitMix64(97)
    p = Tensor(rng.uniform(8, 0.2, 0.8))
    u = np.clip(rng.uniform(8), 1e-7, 1 - 1e-7)
    assert grad_check(
        lambda p: ad.sum_(ad.square(caps.concrete_dropout_mask(
            p, Tensor(u), 0.1))), p) < 1e-4
