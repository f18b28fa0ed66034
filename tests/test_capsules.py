"""Capsule primitives against analytic values and hand-rolled references."""

import threading

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


def squash_chain(s: Tensor, axis: int) -> Tensor:
    """squash as the chain of tape primitives it once was."""
    n2 = ad.sum_(ad.square(s), axis=axis, keepdims=True)
    norm = ad.sqrt(ad.add_scalar(n2, caps.EPS_SQ * caps.EPS_SQ))
    return ad.mul(s, ad.div(norm, ad.add_scalar(n2, 1.0)))


def test_squash_node_matches_primitive_chain_bitwise():
    # one tape node, whose value and input cotangent are those of the chain,
    # in the same memory order, for inputs and cotangents laid out either way
    rng = SplitMix64(63)
    cases = []
    for trial in range(30):
        shape = tuple(int(k) for k in 1 + rng.uniform(3, 0.0, 6.0).astype(int))
        x = rng.normal(int(np.prod(shape))).reshape(shape)
        cases.append((x * 10.0 ** (trial % 5 - 2), (1, 2, -1)[trial % 3]))
    cases += [(np.zeros((2, 3, 4)), axis) for axis in (1, 2, -1)]
    for trial, (x, axis) in enumerate(cases):
        g = rng.normal(x.size).reshape(x.shape)
        perm = (0, 1, 2)
        if trial % 2:  # as a primary grid of one position: x with its last
            # two axes swapped in memory, its cotangent in reversed order
            x = np.ascontiguousarray(x.swapaxes(1, 2)).swapaxes(1, 2)
            perm = (2, 1, 0)
        got = []
        for fn in (caps.squash, squash_chain):
            xt = Tensor(x.copy(order="K"), requires_grad=True)
            with ad.Graph() as graph:
                v = fn(xt, axis)
                if fn is caps.squash:
                    assert [node[0] for node in graph.nodes] == ["squash"]
                gt = Tensor(np.ascontiguousarray(g.transpose(perm)))
                ad.backward(ad.sum_(ad.mul(ad.transpose(v, perm), gt)))
            got.append((v.data, xt.grad))
        (v, gx), (v_ref, gx_ref) = got
        tag = (x.shape, x.strides, axis)
        assert np.array_equal(v, v_ref), tag
        assert np.array_equal(gx, gx_ref) and gx.strides == gx_ref.strides, tag


# ---------------------------------------------------------------------------
# dynamic routing

def rand_uhat(shape, seed, scale=1.0):
    n = int(np.prod(shape))
    return SplitMix64(seed).uniform(n, -scale, scale).reshape(shape)


def test_first_iteration_couplings_uniform():
    u_hat = Tensor(rand_uhat((2, 4, 10, 3), 70))
    _, state = caps.dynamic_route(u_hat, 1, "squash")
    np.testing.assert_allclose(state.c_history[0], 0.1, atol=1e-15)
    # the filled-in first couplings are bitwise the softmax of zero priors
    for n_upper in (3, 7, 10, 16, 32, 33):
        u_hat = Tensor(rand_uhat((2, 4, n_upper, 3), 70))
        _, state = caps.dynamic_route(u_hat, 2, "tanh")
        want = ad.softmax(Tensor(np.zeros((2, 4, n_upper))), axis=2).data
        assert np.array_equal(state.c_history[0], want), n_upper


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


def route_tape_reference(u_hat: Tensor, iterations: int, act: str):
    """The routing recurrence as an unrolled chain of tape primitives.

    Built from softmax, mul, sum_ and add nodes, it is the oracle for
    dynamic_route's single node and its hand-written vjp.  Returns (v, b,
    c, c_history).
    """
    n, n_lower, n_upper, d = u_hat.shape
    c_history = []
    b = ad.zeros([n, n_lower, n_upper])
    c = v = None
    for it in range(iterations):
        c = ad.softmax(b, axis=2)
        c_history.append(c.data.copy())
        cc = ad.reshape(c, [n, n_lower, n_upper, 1])
        s = ad.sum_(ad.mul(cc, u_hat), axis=1)
        v = caps.squash(s, axis=-1) if act == "squash" else ad.tanh(s)
        if it < iterations - 1:
            vv = ad.reshape(v, [n, 1, n_upper, d])
            b = ad.add(b, ad.sum_(ad.mul(vv, u_hat), axis=3))
    return v, b.data, c.data, c_history


def test_fused_route_matches_tape_reference():
    # 50 random shapes, 1-4 iterations, both activations
    rng = SplitMix64(99)
    for trial in range(50):
        n, n_lower, n_upper, d = (int(k) for k in
                                  1 + rng.uniform(4, 0.0, 5.0).astype(int))
        iterations = 1 + trial % 4
        act = ("squash", "tanh")[trial // 4 % 2]
        shape = (n, n_lower, n_upper, d)
        u_np = rng.uniform(n * n_lower * n_upper * d, -1.5, 1.5).reshape(shape)
        w = Tensor(rng.normal(n * n_upper * d).reshape(n, n_upper, d))
        got = []
        for route in (caps.dynamic_route, route_tape_reference):
            u = Tensor(u_np.copy(), requires_grad=True)
            with ad.Graph():
                out = route(u, iterations, act)
                ad.backward(ad.sum_(ad.mul(out[0], w)))
            if route is caps.dynamic_route:
                v, state = out
                out = (v, state.b, state.c_history[-1], state.c_history)
            got.append((out, u.grad))
        ((v, b, c, hist), gu), ((v_ref, b_ref, c_ref, hist_ref), gu_ref) = got
        tag = (shape, iterations, act)
        for a, want in ((v.data, v_ref.data), (b, b_ref), (c, c_ref),
                        (gu, gu_ref)):
            assert a.shape == want.shape, tag
            np.testing.assert_allclose(a, want, rtol=0, atol=1e-10,
                                       err_msg=str(tag))
        assert len(hist) == len(hist_ref) == iterations
        for c_got, c_want in zip(hist, hist_ref):
            np.testing.assert_allclose(c_got, c_want, rtol=0, atol=1e-10,
                                       err_msg=str(tag))


def test_route_appends_one_tape_node():
    u_np = rand_uhat((2, 5, 3, 4), 94)
    for act in ("squash", "tanh"):
        leaf = Tensor(u_np.copy(), requires_grad=True)
        with ad.Graph() as g:
            u_hat = ad.mul_scalar(leaf, 1.0)
            assert len(g.nodes) == 1
            v, _ = caps.dynamic_route(u_hat, 3, act)
            assert len(g.nodes) == 2
            assert v.graph is g and g.nodes[-1][1] == v.node_id


@pytest.mark.parametrize("budget", [caps.ROUTE_BYTES, 1])
def test_train_step_runs_one_backward_and_no_nested_graph(budget,
                                                          monkeypatch):
    # every vjp, routing's too, is plain numpy: the step's own graph is
    # the only one, and its backward is the only sweep, with the batch
    # routed whole or one sample at a time
    from siamcaps import harness as hz
    from siamcaps.data import PairBatch
    from siamcaps.optim import OptimState
    cfg = hz.RunConfig(conv_channels=32, primary_types=8, primary_d=8,
                       face_caps=16, face_d=8, routing_iters=2,
                       input_size=64).finalize()
    enc = hz.build_run_encoder(cfg)
    size = (8, 1, cfg.input_size, cfg.input_size)
    batch = PairBatch(Tensor(rand_uhat(size, 1, 1.0)),
                      Tensor(rand_uhat(size, 2, 1.0)),
                      np.array([0.0, 1.0] * 4))
    events = []
    real_init, real_backward = ad.Graph.__init__, ad.backward

    def graph_init(self):
        events.append("graph")
        real_init(self)

    def backward(loss):
        events.append("backward")
        real_backward(loss)
        events.append("swept")

    monkeypatch.setattr(caps, "ROUTE_BYTES", budget)
    monkeypatch.setattr(ad.Graph, "__init__", graph_init)
    monkeypatch.setattr(ad, "backward", backward)
    hz._train_step(enc, OptimState(), batch, cfg, None)
    assert events == ["graph", "backward", "swept"]


def test_route_of_constant_appends_no_tape_node():
    u_hat = Tensor(rand_uhat((2, 5, 3, 4), 95))
    for act in ("squash", "tanh"):
        with ad.Graph() as g:
            v, _ = caps.dynamic_route(u_hat, 3, act)
            assert g.nodes == [] and g.leaves == []
            assert v.node_id is None


def routed(u_np, layout, tracked, act):
    """dynamic_route on u_np [N, L, U, d] stored C-contiguous ("nlud") or in
    the capsule layer's [N, U, L, d] order ("nuld"): (arrays, u_hat.grad)."""
    if layout == "nuld":
        u_np = np.ascontiguousarray(u_np.transpose(0, 2, 1, 3))
        u_np = u_np.transpose(0, 2, 1, 3)
    u = Tensor(u_np.copy(order="K"), requires_grad=tracked)
    w = Tensor(rand_uhat((u_np.shape[0], u_np.shape[2], u_np.shape[3]), 98))
    with ad.Graph():
        v, state = caps.dynamic_route(u, 3, act)
        if tracked:
            ad.backward(ad.sum_(ad.mul(v, w)))
    return [v.data, state.b, state.c_history[-1]] + state.c_history, u.grad


@pytest.mark.parametrize("per_group,groups", [
    (1, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
    (2, [(0, 2), (2, 4), (4, 5)]),
    (3, [(0, 3), (3, 5)]),
])
def test_grouped_route_equals_whole_batch_bitwise(per_group, groups,
                                                  monkeypatch):
    u_np = rand_uhat((5, 6, 4, 3), 97, 1.5)
    sample_bytes = u_np[0].nbytes
    cases = [(layout, tracked, act)
             for layout in ("nlud", "nuld") for tracked in (True, False)
             for act in ("squash", "tanh")]
    assert caps.byte_chunks(5, sample_bytes, caps.ROUTE_BYTES) == [(0, 5)]
    whole = [routed(u_np, *case) for case in cases]
    monkeypatch.setattr(caps, "ROUTE_BYTES", per_group * sample_bytes + 7)
    assert caps.byte_chunks(5, sample_bytes, caps.ROUTE_BYTES) == groups
    for case, (want, gu_want) in zip(cases, whole):
        got, gu = routed(u_np, *case)
        assert len(got) == len(want) == 6
        for a, b in zip(got, want):
            assert a.shape == b.shape and np.array_equal(a, b), case
        if case[1]:
            assert gu.strides == gu_want.strides, case
            assert np.array_equal(gu, gu_want), case
        else:
            assert gu is None and gu_want is None


def test_desk_shapes_route_as_one_group(monkeypatch):
    # the criterion-8 model transforms and routes a train batch and an eval
    # chunk whole: each pass groups once in the layer, once in routing
    from siamcaps import harness as hz
    from siamcaps.data import PairBatch
    cfg = hz.RunConfig(dataset="att", conv_channels=32, primary_types=8,
                       face_caps=16, face_d=8, input_size=64, batch_size=8,
                       routing_iters=2).finalize()
    enc = hz.build_run_encoder(cfg)
    real, seen = caps.byte_chunks, []

    def spy(n, sample_bytes, budget):
        seen.append(real(n, sample_bytes, budget))
        return seen[-1]

    monkeypatch.setattr(caps, "byte_chunks", spy)
    size = (16, 1, cfg.input_size, cfg.input_size)
    pairs = PairBatch(Tensor(rand_uhat(size, 1, 1.0)),
                      Tensor(rand_uhat(size, 2, 1.0)), np.zeros(16))
    with ad.Graph():
        hz.pair_distances(enc, pairs.slice(0, cfg.batch_size), cfg,
                          training=True, rng=SplitMix64(3))
    hz.eval_distances(enc, pairs, cfg)  # its default chunk, 16 pairs
    train, chunk = [(0, 2 * cfg.batch_size)], [(0, 32)]
    assert seen == [train, train, chunk, chunk]


# ---------------------------------------------------------------------------
# primary capsules

def test_primary_parameter_count_full_width():
    p = caps.PrimaryCapsuleParams(in_ch=256, n_types=32, d=8, seed=1)
    assert sum(t.size for _, t in p.named_parameters("primary")) \
        == 8 * (9 * 9 * 256 * 32 + 32) == 5308672


def test_primary_zero_features_zero_poses():
    p = caps.PrimaryCapsuleParams(in_ch=4, n_types=3, d=2, ksize=3, stride=1,
                                  seed=2)
    # zero bias already; zero input then maps to zero
    p.conv.bias.data[:] = 0.0
    poses = caps.primary_capsules_forward(Tensor(np.zeros((1, 5, 5, 4))), p)
    assert np.all(poses.data == 0.0)


def test_primary_grid_shape_full_width():
    p = caps.PrimaryCapsuleParams(in_ch=256, n_types=32, d=8, seed=3)
    poses = caps.primary_capsules_forward(Tensor(np.zeros((1, 31, 31, 256))),
                                          p)
    assert poses.shape == (1, 8 * 8 * 32, 8) == (1, 2048, 8)


def test_primary_reduced_width_shape():
    p = caps.PrimaryCapsuleParams(in_ch=32, n_types=8, d=8, seed=4)
    poses = caps.primary_capsules_forward(
        Tensor(SplitMix64(5).uniform(32 * 31 * 31).reshape(1, 31, 31, 32)), p)
    assert poses.shape == (1, 8 * 8 * 8, 8)
    norms = np.linalg.norm(poses.data, axis=2)
    assert np.all(norms < 1.0)  # squash applied per pose


def test_primary_channel_mismatch_error():
    p = caps.PrimaryCapsuleParams(in_ch=8, n_types=2, d=2, ksize=3, seed=6)
    with pytest.raises(ShapeError, match="channels"):
        caps.primary_capsules_forward(Tensor(np.zeros((1, 9, 9, 4))), p)


def test_primary_pose_stacking_order():
    # pose dimension k of capsule (gh, gw, type) comes from output channel
    # k * n_types + type
    p = caps.PrimaryCapsuleParams(in_ch=1, n_types=2, d=3, ksize=1, stride=1,
                                  seed=7)
    p.conv.kernel.data[:] = 0.0
    for dim in range(3):
        p.conv.bias.data[2 * dim:2 * dim + 2] = [10.0 * dim + 1.0,
                                                 10.0 * dim + 2.0]
    poses = caps.primary_capsules_forward(Tensor(np.zeros((1, 2, 2, 1))), p)
    # undo squash by checking direction ratios instead of magnitudes
    pose_type0 = poses.data[0, 0]  # (h=0,w=0,type=0)
    pose_type1 = poses.data[0, 1]  # (h=0,w=0,type=1)
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
    x = Tensor(np.ascontiguousarray(
        SplitMix64(13).uniform(n * in_ch * 9 * 9, -1.0, 1.0)
        .reshape(n, in_ch, 9, 9).transpose(0, 2, 3, 1)))
    poses = caps.primary_capsules_forward(x, p)
    planes = []
    for dim in range(d):
        block = slice(dim * t, (dim + 1) * t)
        conv = Conv2dParams(Tensor(p.conv.kernel.data[block]),
                            Tensor(p.conv.bias.data[block]), stride=2)
        m = conv2d_forward(x, conv).data  # [N, gh, gw, t]
        planes.append(m.reshape(n, -1))
    want = caps.squash(Tensor(np.stack(planes, axis=2)), axis=2).data
    assert want.shape == (n, 4 * 4 * t, d)
    np.testing.assert_allclose(poses.data, want, rtol=0, atol=1e-10)


def test_primary_grad_check_input_kernel_bias():
    p = caps.PrimaryCapsuleParams(in_ch=2, n_types=2, d=3, ksize=3, stride=2,
                                  seed=14)
    p.conv.bias.data[:] = SplitMix64(15).uniform(6, -0.5, 0.5)
    x = Tensor(np.ascontiguousarray(
        SplitMix64(16).uniform(2 * 7 * 7, -1.0, 1.0)
        .reshape(1, 2, 7, 7).transpose(0, 2, 3, 1)))
    weights = Tensor(SplitMix64(17).uniform(3 * 3 * 2 * 3, -1.0, 1.0)
                     .reshape(1, 18, 3))

    def f(x_, k_, b_):
        p.conv.kernel, p.conv.bias = k_, b_
        poses = caps.primary_capsules_forward(x_, p)
        return ad.sum_(ad.mul(poses, weights))

    assert grad_check(f, [x, p.conv.kernel, p.conv.bias]) < 1e-7


def test_primary_kernel_blocks_match_per_dimension_init():
    in_ch, t, d, seed = 4, 3, 5, 18
    p = caps.PrimaryCapsuleParams(in_ch=in_ch, n_types=t, d=d, ksize=3,
                                  seed=seed)
    assert p.conv.kernel.shape == (d * t, 3, 3, in_ch)
    for dim in range(d):
        ref = conv2d_init(in_ch, t, 3, 3, derive_seed(seed, dim))
        assert np.array_equal(p.conv.kernel.data[dim * t:(dim + 1) * t],
                              ref.kernel.data)
    assert np.array_equal(p.conv.bias.data, np.zeros(d * t))


def test_primary_kernel_drawn_in_place_matches_concatenated_draws():
    # each pose dimension's block is the whole-array draw of a standalone
    # conv2d_init, transposed; the blocks stacked along O are the kernel
    in_ch, t, d, k, seed = 64, 8, 4, 9, 19
    p = caps.PrimaryCapsuleParams(in_ch=in_ch, n_types=t, d=d, ksize=k,
                                  seed=seed)
    bound = float(np.sqrt(6.0 / (in_ch * k * k + t * k * k)))
    blocks = [SplitMix64(derive_seed(derive_seed(seed, dim), 1)).uniform(
        t * in_ch * k * k, -bound, bound).reshape(t, in_ch, k, k)
        .transpose(0, 2, 3, 1) for dim in range(d)]
    want = np.concatenate(blocks)
    assert p.conv.kernel.data.flags.c_contiguous
    assert p.conv.kernel.data.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# capsule transform layer

def test_capsule_layer_parameter_count_logged_true_count():
    p = caps.CapsuleLayerParams(2048, 32, 8, 16, seed=8)
    assert sum(t.size for _, t in p.named_parameters("face")) \
        == 2048 * 32 * 8 * 16 == 8388608


@pytest.mark.parametrize("shape", [(100, 32, 8, 16), (3, 5, 40, 200)])
def test_capsule_weights_drawn_in_place_match_whole_array_draw(shape):
    # the [lower, upper, d_in, d_out] whole-array draw, transposed into the
    # [lower, d_in, upper, d_out] storage order; the second shape has more
    # than a block of weights per lower capsule
    n_lower, n_upper, d_in, d_out = shape
    p = caps.CapsuleLayerParams(n_lower, n_upper, d_in, d_out, seed=23)
    bound = float(np.sqrt(6.0 / (d_in + d_out)))
    draw = SplitMix64(derive_seed(23, 3)).uniform(int(np.prod(shape)),
                                                  -bound, bound)
    want = np.ascontiguousarray(draw.reshape(shape).transpose(0, 2, 1, 3))
    assert p.W.data.flags.c_contiguous
    assert p.W.data.tobytes() == want.tobytes()


def test_capsule_layer_zero_grid_zero_output():
    p = caps.CapsuleLayerParams(6, 3, 4, 5, activation_kind="tanh", seed=9)
    v = caps.capsule_layer_forward(Tensor(np.zeros((2, 6, 4))), p,
                                   iterations=2)
    assert v.shape == (2, 3, 5)
    assert np.all(v.data == 0.0)


def test_capsule_layer_uhat_matches_loop_reference():
    rng = SplitMix64(91)
    poses = rng.uniform(2 * 4 * 3, -1, 1).reshape(2, 4, 3)
    p = caps.CapsuleLayerParams(4, 2, 3, 5, activation_kind="squash", seed=10)
    v = caps.capsule_layer_forward(Tensor(poses), p, iterations=3)
    u_hat = np.einsum("nli,liuo->nluo", poses, p.W.data)
    v_ref, _ = route_reference(u_hat, 3, "squash")
    np.testing.assert_allclose(v.data, v_ref, atol=1e-12)


def test_capsule_layer_coupling_rows_sum_to_one():
    p = caps.CapsuleLayerParams(5, 3, 4, 4, seed=11)
    poses = Tensor(SplitMix64(92).uniform(2 * 5 * 4, -1, 1).reshape(2, 5, 4))
    _, state = caps.capsule_layer_forward(poses, p, iterations=3,
                                          return_state=True)
    for c in state.c_history:
        np.testing.assert_allclose(c.sum(axis=2), 1.0, atol=1e-9)


def test_capsule_layer_grad_check_tiny():
    # full stack at n_lower=6, n_upper=3, d=4, 2 iterations
    rng = SplitMix64(93)
    poses = Tensor(rng.uniform(1 * 6 * 4, -0.5, 0.5).reshape(1, 6, 4))
    p = caps.CapsuleLayerParams(6, 3, 4, 4, activation_kind="tanh", seed=12)

    def f(poses, w):
        p.W = w
        return ad.sum_(ad.square(caps.capsule_layer_forward(poses, p, 2)))

    assert grad_check(f, [poses, p.W], eps=1e-5) < 1e-4


def test_capsule_layer_w_is_the_transposed_draw():
    # stored [lower, d_in, upper, d_out]: the [lower, upper, d_in, d_out]
    # uniform draw, bitwise, drawn block by block
    n_lower, n_upper, d_in, d_out = 2 * caps.BLOCK + 3, 3, 4, 5
    p = caps.CapsuleLayerParams(n_lower, n_upper, d_in, d_out, seed=7)
    bound = float(np.sqrt(6.0 / (d_in + d_out)))
    draw = SplitMix64(derive_seed(7, 3)).uniform(
        n_lower * n_upper * d_in * d_out, -bound, bound).reshape(
            n_lower, n_upper, d_in, d_out)
    assert p.W.data.flags.c_contiguous
    assert np.array_equal(p.W.data, draw.transpose(0, 2, 1, 3))
    assert p.W.requires_grad
    assert p.named_parameters("face") == [("face/W", p.W)]


# (n_lower, N, n_upper, d_in, d_out): lower count below, equal to and not a
# multiple of the block size, one image, and n_upper == d_in
TRANSFORM_CASES = [
    (caps.BLOCK - 3, 2, 3, 4, 5),
    (caps.BLOCK, 1, 2, 3, 4),
    (2 * caps.BLOCK + 5, 3, 4, 4, 2),
]


def _poses_and_layer(case, seed):
    n_lower, n, n_upper, d_in, d_out = case
    rng = SplitMix64(seed)
    # poses laid out [lower, N, d_in] in memory, so that returning the
    # cotangent in their own memory order is visible in its strides
    poses = np.ascontiguousarray(
        rng.uniform(n * n_lower * d_in, -1, 1).reshape(n, n_lower, d_in)
        .transpose(1, 0, 2)).transpose(1, 0, 2)
    p = caps.CapsuleLayerParams(n_lower, n_upper, d_in, d_out,
                                activation_kind="squash", seed=seed)
    return poses, p


def reference_transform(poses: Tensor, w: Tensor) -> Tensor:
    """u_hat [N, lower, upper, d_out] of a tracked capsule layer as its own
    capsule_transform tape node: the transform and its vjp as the layer ran
    them when transform and routing were two nodes.  It is the oracle of
    the one-node layer's backward, with dynamic_route's own node."""
    n_lower, d_in, n_upper, d_out = w.shape
    u, wd = poses.data, w.data
    n, lc = u.shape[0], min(caps.BLOCK, n_lower)
    u_t = u.transpose(1, 0, 2)
    w_m = wd.reshape(n_lower, d_in, n_upper * d_out)
    blocks = [(lo, min(lo + lc, n_lower)) for lo in range(0, n_lower, lc)]
    uh = np.empty((n, n_upper, n_lower, d_out))
    buf = np.empty((lc, n, n_upper * d_out))
    for lo, hi in blocks:
        prod = np.matmul(u_t[lo:hi], w_m[lo:hi], out=buf[:hi - lo])
        uh[:, :, lo:hi] = prod.reshape(hi - lo, n, n_upper,
                                       d_out).transpose(1, 2, 0, 3)

    def vjp(g):
        gu = np.empty_like(u)
        gw = np.empty_like(wd)
        g_in = np.empty((n, n_upper, lc, d_out))
        g_blk = np.empty((lc, n, n_upper * d_out))
        gu_blk = np.empty((lc, n, d_in))
        for lo, hi in blocks:
            k = hi - lo
            np.copyto(g_in[:, :, :k], g[:, lo:hi].transpose(0, 2, 1, 3))
            g_blk[:k].reshape(k, n, n_upper, d_out)[...] = \
                g_in[:, :, :k].transpose(2, 0, 1, 3)
            np.matmul(u_t[lo:hi].transpose(0, 2, 1), g_blk[:k],
                      out=gw.reshape(w_m.shape)[lo:hi])
            np.matmul(g_blk[:k], w_m[lo:hi].transpose(0, 2, 1),
                      out=gu_blk[:k])
            gu[:, lo:hi] = gu_blk[:k].transpose(1, 0, 2)
        return gu, gw

    return ad._emit("capsule_transform", uh.transpose(0, 2, 1, 3),
                    [poses, w], vjp)


def reference_layer(poses, p, iterations, return_state=False):
    """capsule_layer_forward as two tape nodes: reference_transform, then
    dynamic_route's own node."""
    v, state = caps.dynamic_route(reference_transform(poses, p.W),
                                  iterations, p.activation_kind)
    return (v, state) if return_state else v


@pytest.mark.parametrize("case", TRANSFORM_CASES)
def test_capsule_transform_matches_einsum_oracle(case, monkeypatch):
    # the reference transform with a fixed linear read-out in place of
    # routing, so the cotangent of u_hat is a known array r and the node is
    # checked on its own; the layer routes the same u_hat, bitwise, in the
    # same layout
    poses_np, p = _poses_and_layer(case, 150)
    n_lower, n, n_upper, d_in, d_out = case
    r = SplitMix64(151).normal(n * n_lower * n_upper * d_out).reshape(
        n, n_lower, n_upper, d_out)
    poses = Tensor(poses_np, requires_grad=True)
    with ad.Graph() as g:
        u_hat = reference_transform(poses, p.W)
        assert [node[0] for node in g.nodes] == ["capsule_transform"]
        ad.backward(ad.sum_(ad.mul(u_hat, Tensor(r))))
    w = p.W.data
    np.testing.assert_allclose(
        u_hat.data, np.einsum("nli,liuo->nluo", poses_np, w),
        rtol=0, atol=1e-10)
    np.testing.assert_allclose(poses.grad,
                               np.einsum("nluo,liuo->nli", r, w),
                               rtol=0, atol=1e-10)
    assert poses.grad.strides == poses_np.strides
    np.testing.assert_allclose(p.W.grad,
                               np.einsum("nli,nluo->liuo", poses_np, r),
                               rtol=0, atol=1e-10)
    assert p.W.grad.flags.c_contiguous

    seen = []
    real_route = caps.dynamic_route

    def spy(u, *args):
        seen.append(u)
        return real_route(u, *args)

    monkeypatch.setattr(caps, "dynamic_route", spy)
    with ad.Graph():
        caps.capsule_layer_forward(Tensor(poses_np, requires_grad=True), p, 2)
    (routed,) = seen
    assert routed.data.transpose(0, 2, 1, 3).flags.c_contiguous
    assert np.array_equal(routed.data, u_hat.data)


@pytest.mark.parametrize("case", TRANSFORM_CASES)
def test_capsule_layer_matches_einsum_and_tape_routing_oracle(case,
                                                              monkeypatch):
    # oracle: u_hat by einsum, routed by the unrolled tape reference; its
    # cotangent pulled back to the poses and W by einsum
    poses_np, p = _poses_and_layer(case, 160)
    n_lower, n, n_upper, d_in, d_out = case
    w = p.W.data
    gv = Tensor(SplitMix64(161).normal(n * n_upper * d_out)
                .reshape(n, n_upper, d_out))
    u_ref = Tensor(np.einsum("nli,liuo->nluo", poses_np, w),
                   requires_grad=True)
    with ad.Graph():
        v_ref = route_tape_reference(u_ref, 3, "squash")[0]
        ad.backward(ad.sum_(ad.mul(v_ref, gv)))

    seen = []
    real_route = caps.dynamic_route

    def spy(u_hat, *args):
        seen.append(u_hat)
        return real_route(u_hat, *args)

    monkeypatch.setattr(caps, "dynamic_route", spy)
    poses = Tensor(poses_np, requires_grad=True)
    with ad.Graph() as g:
        v = caps.capsule_layer_forward(poses, p, 3)
        assert [node[0] for node in g.nodes] == ["capsule_layer"]
        ad.backward(ad.sum_(ad.mul(v, gv)))
    assert seen[0].data.transpose(0, 2, 1, 3).flags.c_contiguous
    np.testing.assert_allclose(v.data, v_ref.data, rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        poses.grad, np.einsum("nluo,liuo->nli", u_ref.grad, w),
        rtol=0, atol=1e-10)
    np.testing.assert_allclose(
        p.W.grad, np.einsum("nli,nluo->liuo", poses_np, u_ref.grad),
        rtol=0, atol=1e-10)


# (N, n_lower, n_upper, d_in, d_out): a desk train batch (criterion 8's
# face layer at 8 pairs) and the full-size face layer at one pair
ONE_NODE_SHAPES = [(16, 128, 16, 8, 8), (2, 2048, 32, 8, 16)]


@pytest.mark.parametrize("shape", ONE_NODE_SHAPES, ids=["desk", "full"])
@pytest.mark.parametrize("act,iterations,chunked", [
    ("squash", 1, False), ("tanh", 2, True), ("squash", 3, True),
    ("tanh", 4, False), ("squash", 4, True), ("tanh", 1, True),
])
def test_one_node_layer_is_bitwise_the_two_node_reference(
        shape, act, iterations, chunked, monkeypatch):
    # the cotangent of u_hat formed in chunks of lower capsules and handed
    # block by block to the transform's GEMMs sums every term in the order
    # of dynamic_route's node followed by the transform's
    n, n_lower, n_upper, d_in, d_out = shape
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out, act,
                                   180 + iterations)
    gv = Tensor(SplitMix64(181).normal(n * n_upper * d_out)
                .reshape(n, n_upper, d_out))
    lower_bytes = n * n_upper * d_out * 8  # one lower capsule's cotangent
    # the whole cotangent in one chunk, or chunks of 3 BLOCKs and a bit:
    # the chunk edges cut blocks, and the last chunk is ragged
    monkeypatch.setattr(caps, "ROUTE_BYTES", lower_bytes * (
        3 * caps.BLOCK + 5 if chunked else n_lower))
    chunks = caps.byte_chunks(n_lower, lower_bytes, caps.ROUTE_BYTES)
    assert (len(chunks) > 1) == chunked
    got = []
    for layer in (caps.capsule_layer_forward, reference_layer):
        p.W.grad = None
        poses = Tensor(poses_np.copy(), requires_grad=True)
        with ad.Graph() as g:
            v = layer(poses, p, iterations)
            nodes = [node[0] for node in g.nodes]
            ad.backward(ad.sum_(ad.mul(v, gv)))
        got.append((nodes, v.data, poses.grad, p.W.grad))
    (nodes, v, gp, gw), (ref_nodes, v_ref, gp_ref, gw_ref) = got
    assert nodes == ["capsule_layer"]
    assert ref_nodes == ["capsule_transform", "dynamic_route"]
    assert v.tobytes() == v_ref.tobytes()
    assert gp.strides == gp_ref.strides and gp.tobytes() == gp_ref.tobytes()
    assert gw.flags.c_contiguous and gw.tobytes() == gw_ref.tobytes()


@pytest.mark.parametrize("route_bytes", [caps.ROUTE_BYTES, 64 << 10])
def test_train_steps_match_the_two_node_reference_bitwise(route_bytes,
                                                          monkeypatch):
    # three desk train steps, the face layer's cotangent in one chunk or
    # in chunks of 4 lower capsules: the same losses and weights as the
    # layer made of the reference transform and dynamic_route's node
    from siamcaps import harness as hz
    from siamcaps import models
    from siamcaps.data import PairBatch
    from siamcaps.optim import OptimState
    cfg = hz.RunConfig(conv_channels=32, primary_types=8, primary_d=8,
                       face_caps=16, face_d=8, routing_iters=2,
                       input_size=64).finalize()
    size = (8, 1, cfg.input_size, cfg.input_size)
    batches = [PairBatch(Tensor(rand_uhat(size, 3 * k + 1, 1.0)),
                         Tensor(rand_uhat(size, 3 * k + 2, 1.0)),
                         np.array([0.0, 1.0] * 4)) for k in range(3)]
    monkeypatch.setattr(caps, "ROUTE_BYTES", route_bytes)
    runs = []
    for layer in (caps.capsule_layer_forward, reference_layer):
        monkeypatch.setattr(models, "capsule_layer_forward", layer)
        enc, state = hz.build_run_encoder(cfg), OptimState()
        losses = [hz._train_step(enc, state, b, cfg, None) for b in batches]
        runs.append((losses, [t.data.copy()
                              for _, t in enc.named_parameters()]))
    (losses, weights), (ref_losses, ref_weights) = runs
    assert losses == ref_losses
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(weights, ref_weights))


@pytest.mark.parametrize("shape,route_bytes", [
    ((32, 256, 8, 4, 16), 1 << 20),
    ((8, 2048, 32, 8, 16), caps.ROUTE_BYTES),
], ids=["u_hat-heavy", "full"])
def test_layer_backward_holds_no_second_u_hat(shape, route_bytes,
                                              monkeypatch):
    # the layer's vjp holds the coefficient and vector stacks, plus either
    # u_hat (while the reverse recurrence reads it) or the gradient of W
    # and one chunk of the cotangent of u_hat (once u_hat is released),
    # never both, and no array of u_hat's size: in the first shape the
    # bound above the backward's start is below u_hat's size.  The second
    # is the full-size face layer at 8 images, one train step at 4 pairs
    import tracemalloc
    n, n_lower, n_upper, d_in, d_out = shape
    iterations = 3
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out,
                                   "squash", 185)
    monkeypatch.setattr(caps, "ROUTE_BYTES", route_bytes)
    gv = Tensor(SplitMix64(186).normal(n * n_upper * d_out)
                .reshape(n, n_upper, d_out))
    u_hat = n * n_upper * n_lower * d_out * 8
    stacks = n * n_upper * (2 * iterations - 1) * (n_lower + d_out) * 8
    chunk = min(route_bytes, u_hat)
    # above the backward's start, which holds u_hat
    bound = stacks + max(0, p.W.data.nbytes + chunk - u_hat) + (2 << 20)
    if n_lower == 256:
        assert bound < u_hat
    poses = Tensor(poses_np, requires_grad=True)
    tracemalloc.start()
    try:
        with ad.Graph():
            loss = ad.sum_(ad.mul(caps.capsule_layer_forward(
                poses, p, iterations), gv))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            ad.backward(loss)
            peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < bound


def _layer_and_poses(n, n_lower, n_upper, d_in, d_out, act, seed):
    p = caps.CapsuleLayerParams(n_lower, n_upper, d_in, d_out,
                                activation_kind=act, seed=seed)
    poses = SplitMix64(seed).uniform(n * n_lower * d_in, -1, 1)
    return p, poses.reshape(n, n_lower, d_in)


@pytest.mark.parametrize("act", ["squash", "tanh"])
def test_streamed_layer_equals_whole_batch(act, monkeypatch):
    # a graph-free layer split into groups of 3, 3 and 1 samples over two
    # workers against the same layer run as one group; a tracked one stays
    # one group.  The workers route groups in no fixed order, so the group
    # sizes are compared as a multiset
    n, n_lower, n_upper, d_in, d_out = 7, caps.BLOCK + 5, 3, 4, 5
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out, act, 170)
    sample = n_lower * n_upper * d_out * 8
    monkeypatch.setattr(caps, "WORKERS", 2)
    assert n * sample <= caps.LAYER_BYTES // 2
    v_whole, st_whole = caps.capsule_layer_forward(Tensor(poses_np), p, 3,
                                                   return_state=True)
    seen = []
    real_route = caps.dynamic_route

    def spy(u_hat, *args):
        seen.append(u_hat.shape[0])
        return real_route(u_hat, *args)

    monkeypatch.setattr(caps, "dynamic_route", spy)
    monkeypatch.setattr(caps, "LAYER_BYTES", 2 * (3 * sample + 7))
    v, state = caps.capsule_layer_forward(Tensor(poses_np), p, 3,
                                          return_state=True)
    assert sorted(seen) == [1, 3, 3]
    tol = 1e-12 * np.abs(v_whole.data).max()
    np.testing.assert_allclose(v.data, v_whole.data, rtol=0, atol=tol)
    assert state.b.shape == st_whole.b.shape == (n, n_lower, n_upper)
    np.testing.assert_allclose(state.b, st_whole.b, rtol=0,
                               atol=1e-12 * np.abs(st_whole.b).max())
    assert len(state.c_history) == len(st_whole.c_history) == 3
    for c, c_whole in zip(state.c_history, st_whole.c_history):
        assert c.shape == (n, n_lower, n_upper) and c.flags.c_contiguous
        np.testing.assert_allclose(c, c_whole, rtol=0, atol=1e-12)

    seen.clear()
    poses = Tensor(poses_np, requires_grad=True)
    with ad.Graph() as g:
        v_tracked = caps.capsule_layer_forward(poses, p, 3)
        assert [node[0] for node in g.nodes] == ["capsule_layer"]
    assert seen == [n]
    np.testing.assert_allclose(v_tracked.data, v_whole.data, rtol=0,
                               atol=tol)


def test_streamed_layer_memory_bound(monkeypatch):
    # graph-free, the layer holds one group's u_hat (the budget), one
    # transform block buffer and one group's couplings and log priors,
    # never the whole batch's u_hat
    import tracemalloc
    n, n_lower, n_upper, d_in, d_out = 16, 8 * caps.BLOCK, 8, 4, 16
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out,
                                   "squash", 171)
    poses = Tensor(poses_np)
    sample = n_lower * n_upper * d_out * 8
    budget = 3 * sample
    monkeypatch.setattr(caps, "LAYER_BYTES", budget)
    caps.capsule_layer_forward(poses, p, 3)  # warm numpy's own caches
    tracemalloc.start()
    try:
        caps.capsule_layer_forward(poses, p, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.7 * budget < n * sample / 2


def _route_spy(monkeypatch, before=None):
    """Patch caps.dynamic_route to record (thread, group size) per call,
    after running before(call index, thread) if given."""
    real, calls, lock = caps.dynamic_route, [], threading.Lock()

    def spy(u_hat, *args):
        with lock:
            k = len(calls)
            calls.append((threading.get_ident(), u_hat.shape[0]))
        if before is not None:
            before(k, threading.get_ident())
        return real(u_hat, *args)

    monkeypatch.setattr(caps, "dynamic_route", spy)
    return calls


@pytest.mark.parametrize("return_state", [False, True])
def test_layer_drops_each_group_before_the_next(return_state, monkeypatch):
    # traced memory live as each group starts routing grows by that group's
    # rows of v (3 KiB) and no more: the previous group's u_hat and routing
    # state (its log priors and 3 couplings, 96 KiB) are gone, unless
    # return_state keeps the state
    import tracemalloc
    n, n_lower, n_upper, d_in, d_out = 18, 8 * caps.BLOCK, 8, 4, 16
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out,
                                   "squash", 175)
    sample = n_lower * n_upper * d_out * 8
    state_bytes = 4 * 3 * n_lower * n_upper * 8
    monkeypatch.setattr(caps, "WORKERS", 1)
    monkeypatch.setattr(caps, "LAYER_BYTES", 3 * sample)
    live = []  # traced bytes as each group starts routing
    _route_spy(monkeypatch, lambda k, thread: live.append(
        tracemalloc.get_traced_memory()[0]))
    tracemalloc.start()
    try:
        caps.capsule_layer_forward(Tensor(poses_np), p, 3,
                                   return_state=return_state)
    finally:
        tracemalloc.stop()
    assert len(live) == 6
    growth = np.diff(live)
    if return_state:
        assert growth.min() >= state_bytes
    else:
        assert growth.max() < state_bytes / 4


@pytest.mark.parametrize("act", ["squash", "tanh"])
def test_two_workers_equal_one_worker_bitwise(act, monkeypatch):
    # 8 samples in groups of 2 over two workers against groups of 4 on the
    # calling thread alone.  The first group routed waits until the other
    # worker has routed the other three: the join must still follow the
    # samples, not the order the groups completed in
    n, n_lower, n_upper, d_in, d_out = 8, caps.BLOCK + 5, 3, 4, 5
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out, act, 172)
    sample = n_lower * n_upper * d_out * 8
    monkeypatch.setattr(caps, "LAYER_BYTES", 4 * sample)
    monkeypatch.setattr(caps, "WORKERS", 1)
    calls = _route_spy(monkeypatch)
    v_one, st_one = caps.capsule_layer_forward(Tensor(poses_np), p, 3,
                                               return_state=True)
    assert calls == [(threading.get_ident(), 4)] * 2

    rest_routed = threading.Event()

    def before(k, thread):
        if k == 0:
            assert rest_routed.wait(10)
        elif k == 3:
            rest_routed.set()

    calls = _route_spy(monkeypatch, before)
    monkeypatch.setattr(caps, "WORKERS", 2)
    v, state = caps.capsule_layer_forward(Tensor(poses_np), p, 3,
                                          return_state=True)
    assert [size for _, size in calls] == [2] * 4
    assert len({thread for thread, _ in calls}) == 2
    assert np.array_equal(v.data, v_one.data)
    assert np.array_equal(state.b, st_one.b)
    assert len(state.c_history) == len(st_one.c_history) == 3
    for c, c_one in zip(state.c_history, st_one.c_history):
        assert np.array_equal(c, c_one)


def test_tracked_layer_routes_on_the_calling_thread(monkeypatch):
    # a budget that splits a graph-free pass over two workers leaves a
    # tracked pass one group on the calling thread, with one node each
    n, n_lower, n_upper, d_in, d_out = 6, caps.BLOCK + 5, 3, 4, 5
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out,
                                   "squash", 173)
    sample = n_lower * n_upper * d_out * 8
    monkeypatch.setattr(caps, "WORKERS", 2)
    monkeypatch.setattr(caps, "LAYER_BYTES", 2 * sample)
    calls = _route_spy(monkeypatch)
    with ad.Graph() as g:
        caps.capsule_layer_forward(Tensor(poses_np, requires_grad=True), p, 3)
        assert [node[0] for node in g.nodes] == ["capsule_layer"]
    assert calls == [(threading.get_ident(), n)]


@pytest.mark.parametrize("failing", ["calling", "other"])
def test_worker_exception_reaches_the_caller(failing, monkeypatch):
    # one thread's first group raises; the other thread's groups wait for
    # that, so that both threads take groups
    n, n_lower, n_upper, d_in, d_out = 8, caps.BLOCK + 5, 3, 4, 5
    p, poses_np = _layer_and_poses(n, n_lower, n_upper, d_in, d_out,
                                   "tanh", 174)
    sample = n_lower * n_upper * d_out * 8
    monkeypatch.setattr(caps, "WORKERS", 2)
    monkeypatch.setattr(caps, "LAYER_BYTES", 2 * sample)
    caller = threading.get_ident()

    class GroupFailed(Exception):
        pass

    raised = threading.Event()

    def before(k, thread):
        if (thread == caller) == (failing == "calling"):
            raised.set()
            raise GroupFailed(k)
        assert raised.wait(10)

    calls = _route_spy(monkeypatch, before)
    with pytest.raises(GroupFailed):
        caps.capsule_layer_forward(Tensor(poses_np), p, 3)
    assert len({thread for thread, _ in calls}) == 2


def test_capsule_layer_shape_errors():
    # poses must be [N, 6, 4] to match W: a wrong pose size, a wrong
    # capsule count and a rank-2 array are refused
    p = caps.CapsuleLayerParams(6, 3, 4, 4, seed=13)
    for shape in ((1, 6, 5), (1, 4, 4), (1, 7, 4), (6, 4)):
        with pytest.raises(ShapeError, match=r"expects poses \[N, 6, 4\]"):
            caps.capsule_layer_forward(Tensor(np.zeros(shape)), p, 2)


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
            Tensor(np.full(20000, p_val)), Tensor(u), t=0.1)
        assert abs(z.data.mean() - p_val) < 0.05


def test_concrete_sharp_temperature_saturates():
    rng = SplitMix64(96)
    p_val = 0.6
    u = np.clip(rng.uniform(500), 1e-7, 1.0 - 1e-7)
    t = 0.01
    z = caps.concrete_dropout_mask(Tensor(np.full(500, p_val)),
                                   Tensor(u), t=t).data
    logit_p = np.log(p_val) - np.log1p(-p_val)
    logit_u = np.log(u) - np.log1p(-u)
    arg = (logit_p + logit_u) / t
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
    # criterion 6 passes standard_concrete=True; no other form exists
    with pytest.raises(ValueError, match="standard Concrete"):
        caps.concrete_dropout_mask(Tensor([0.5]), Tensor([0.5]), 0.1,
                                   standard_concrete=False)


def test_concrete_grad_check_frozen_u():
    rng = SplitMix64(97)
    p = Tensor(rng.uniform(8, 0.2, 0.8))
    u = np.clip(rng.uniform(8), 1e-7, 1 - 1e-7)
    assert grad_check(
        lambda p: ad.sum_(ad.square(caps.concrete_dropout_mask(
            p, Tensor(u), 0.1))), p) < 1e-4
