"""Layer semantics against naive references and finite differences."""

import itertools
import tracemalloc
import weakref

import numpy as np
import pytest

from siamcaps import autodiff as ad
from siamcaps import layers, models
from siamcaps.autodiff import ShapeError, Tensor, grad_check
from siamcaps.rng import SplitMix64, derive_seed


def naive_conv2d_scalar(x, k, b, stride):
    """Seven nested scalar loops; the slowest, most literal reference.
    x is [N, C, H, W] and k [O, kh, kw, C]."""
    n_, c_, h_, w_ = x.shape
    o_, kh, kw, _ = k.shape
    ho = (h_ - kh) // stride + 1
    wo = (w_ - kw) // stride + 1
    out = np.zeros((n_, o_, ho, wo))
    for n in range(n_):
        for o in range(o_):
            for i in range(ho):
                for j in range(wo):
                    acc = b[o]
                    for c in range(c_):
                        for u in range(kh):
                            for v in range(kw):
                                acc += (x[n, c, i * stride + u,
                                          j * stride + v] * k[o, u, v, c])
                    out[n, o, i, j] = acc
    return out


def naive_conv2d_patch(x, k, b, stride):
    """Patch-extraction reference: independent indexing, per-pixel reduce."""
    h_, w_ = x.shape[2], x.shape[3]
    o_, kh, kw, _ = k.shape
    ho = (h_ - kh) // stride + 1
    wo = (w_ - kw) // stride + 1
    out = np.zeros((x.shape[0], o_, ho, wo))
    for i in range(ho):
        for j in range(wo):
            patch = x[:, :, i * stride:i * stride + kh,
                      j * stride:j * stride + kw]
            out[:, :, i, j] = np.tensordot(
                patch, k, axes=([1, 2, 3], [3, 1, 2])) + b
    return out


def naive_conv2d_input_vjp(g, k, x_shape, stride):
    """Input cotangent, patch by patch: every output pixel adds
    g[:, :, i, j] . k into the patch it read."""
    kh, kw = k.shape[1], k.shape[2]
    gx = np.zeros(x_shape)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            gx[:, :, i * stride:i * stride + kh,
               j * stride:j * stride + kw] += np.tensordot(
                   g[:, :, i, j], k, axes=([1], [0])).transpose(0, 3, 1, 2)
    return gx


def naive_conv2d_kernel_vjp(g, x, kshape, stride):
    """Kernel cotangent [O, kh, kw, C], patch by patch: every output pixel
    adds g[:, :, i, j] times the patch it read."""
    kh, kw = kshape[1], kshape[2]
    gk = np.zeros(kshape)
    for i in range(g.shape[2]):
        for j in range(g.shape[3]):
            patch = x[:, :, i * stride:i * stride + kh,
                      j * stride:j * stride + kw]
            gk += np.tensordot(g[:, :, i, j], patch,
                               axes=([0], [0])).transpose(0, 2, 3, 1)
    return gk


def nhwc(a):
    """An [N, C, H, W] array as a C-contiguous [N, H, W, C] feature map."""
    return np.ascontiguousarray(a.transpose(0, 2, 3, 1))


def nchw(a):
    """An [N, H, W, C] array viewed as the references' [N, C, H, W]."""
    return a.transpose(0, 3, 1, 2)


def conv_grid():
    """(h, kh, stride) over sizes, kernels and strides, skipping kernels
    that do not fit."""
    cases = itertools.product([1, 3, 5, 7, 9, 14, 20, 32], [1, 3, 5, 7, 9],
                              [1, 2, 3, 4])
    return [(h, kh, stride) for h, kh, stride in cases if kh <= h]


def make_conv(in_ch, out_ch, ksize, stride, seed):
    rng = SplitMix64(seed)
    kernel = Tensor(rng.uniform(out_ch * in_ch * ksize * ksize, -1, 1)
                    .reshape(out_ch, ksize, ksize, in_ch))
    bias = Tensor(rng.uniform(out_ch, -1, 1))
    return layers.Conv2dParams(kernel, bias, stride)


# ---------------------------------------------------------------------------
# convolution

def test_conv_output_size_100_to_31():
    p = make_conv(1, 2, 9, 3, 1)
    x = Tensor(SplitMix64(2).uniform(100 * 100).reshape(1, 100, 100, 1))
    assert layers.conv2d_forward(x, p).shape == (1, 31, 31, 2)


def test_conv_1x1_identity():
    p = layers.Conv2dParams(Tensor(np.ones((1, 1, 1, 1))),
                            Tensor(np.zeros(1)), 1)
    x = Tensor(SplitMix64(3).uniform(25).reshape(1, 5, 5, 1))
    np.testing.assert_array_equal(layers.conv2d_forward(x, p).data, x.data)


def test_conv_3x3_ones_sums_to_nine():
    p = layers.Conv2dParams(Tensor(np.ones((1, 3, 3, 1))),
                            Tensor(np.zeros(1)), 1)
    x = Tensor(np.ones((1, 3, 3, 1)))
    out = layers.conv2d_forward(x, p)
    assert out.shape == (1, 1, 1, 1)
    assert out.data.reshape(-1)[0] == 9.0


def test_conv_matches_scalar_reference():
    for stride in (1, 2, 3):
        p = make_conv(2, 3, 3, stride, 10 + stride)
        x = (SplitMix64(20 + stride).uniform(2 * 2 * 8 * 9, -1, 1)
             .reshape(2, 2, 8, 9))
        got = layers.conv2d_forward(Tensor(nhwc(x)), p).data
        want = naive_conv2d_scalar(x, p.kernel.data, p.bias.data, stride)
        assert np.abs(nchw(got) - want).max() < 1e-10


def test_conv_grid_sweep_matches_patch_reference():
    checked = 0
    for h, kh, stride in conv_grid():
        p = make_conv(2, 3, kh, stride, 100 + checked)
        x = (SplitMix64(200 + checked).uniform(2 * 2 * h * h, -1, 1)
             .reshape(2, 2, h, h))
        got = nchw(layers.conv2d_forward(Tensor(nhwc(x)), p).data)
        want = naive_conv2d_patch(x, p.kernel.data, p.bias.data, stride)
        assert got.shape == want.shape
        assert np.abs(got - want).max() < 1e-10, (h, kh, stride)
        checked += 1
    assert checked > 100


def test_conv_input_cotangent_matches_patch_reference():
    # the grid sweep plus the full-size primary shape (31 -> 8, 9x9 stride 3)
    checked = zero_tails = 0
    for h, kh, stride in conv_grid() + [(31, 9, 3)]:
        p = make_conv(2, 3, kh, stride, 300 + checked)
        x = (SplitMix64(400 + checked).uniform(2 * 2 * h * h, -1, 1)
             .reshape(2, 2, h, h))
        xt = Tensor(nhwc(x), requires_grad=True)
        with ad.Graph() as graph:
            out = layers.conv2d_forward(xt, p)
            vjp = graph.nodes[-1][3]
        n, ho, wo, o = out.shape
        # a strided cotangent: an [Ho, N, Wo, O] array seen as [N, Ho, Wo, O]
        g = (SplitMix64(500 + checked).uniform(out.size, -1, 1)
             .reshape(ho, n, wo, o).transpose(1, 0, 2, 3))
        want = naive_conv2d_input_vjp(nchw(g), p.kernel.data, x.shape,
                                      stride)
        # input rows and columns past the last window get exact zeros
        tail = (ho - 1) * stride + kh
        for gg in (g, np.ascontiguousarray(g)):
            gx = vjp(gg)[0]
            assert gx.shape == xt.shape
            assert np.abs(nchw(gx) - want).max() < 1e-10, (h, kh, stride)
            assert not gx[:, tail:, :, :].any()
            assert not gx[:, :, tail:, :].any()
        zero_tails += tail < h
        checked += 1
    assert checked > 100
    assert zero_tails > 10


def test_conv_input_cotangent_keeps_input_memory_order():
    # the layers below a conv reduce their cotangents in memory order, so
    # handing gx back in x's own layout keeps their gradients bitwise
    # independent of how gx is accumulated: for a C-contiguous [N, H, W, C]
    # map, as a relu hands on, and for a view of [C, N, H, W] memory
    p = make_conv(4, 3, 3, 2, 12)
    base = SplitMix64(13).uniform(4 * 2 * 9 * 9, -1, 1).reshape(4, 2, 9, 9)
    for data in (base.transpose(1, 2, 3, 0),
                 np.ascontiguousarray(base.transpose(1, 2, 3, 0))):
        x = Tensor(data, requires_grad=True)
        with ad.Graph() as graph:
            out = layers.conv2d_forward(x, p)
            vjp = graph.nodes[-1][3]
        gx = vjp(np.ones(out.shape))[0]
        assert gx.strides == x.data.strides


def test_conv_rejects_oversized_kernel():
    p = make_conv(1, 1, 5, 1, 4)
    with pytest.raises(ShapeError, match="does not fit"):
        layers.conv2d_forward(Tensor(np.ones((1, 3, 3, 1))), p)


def test_conv_rejects_channel_mismatch():
    p = make_conv(3, 2, 3, 1, 5)
    with pytest.raises(ShapeError, match="channels"):
        layers.conv2d_forward(Tensor(np.ones((1, 5, 5, 2))), p)


def test_conv_rejects_rectangular_kernel():
    with pytest.raises(ShapeError, match="square"):
        layers.Conv2dParams(Tensor(np.ones((1, 2, 3, 1))),
                            Tensor(np.zeros(1)))


def test_conv_grad_check():
    p = make_conv(2, 3, 3, 2, 6)
    x = Tensor(nhwc(SplitMix64(7).uniform(2 * 2 * 6 * 6, -1, 1)
                    .reshape(2, 2, 6, 6)))

    def f(x, k, b):
        q = layers.Conv2dParams(k, b, 2)
        return ad.sum_(ad.square(layers.conv2d_forward(x, q)))

    err = grad_check(f, [x, p.kernel, p.bias], eps=1e-5)
    assert err < 1e-4


def test_conv_constant_input_gets_no_cotangent():
    # raw images are graph constants: the vjp returns no input cotangent,
    # and the kernel and bias gradients are those of a tracked input
    x_np = nhwc(SplitMix64(9).uniform(2 * 2 * 7 * 7, -1, 1)
                .reshape(2, 2, 7, 7))
    g = nhwc(SplitMix64(10).uniform(2 * 3 * 3 * 3, -1, 1).reshape(2, 3, 3, 3))

    def cotangents(tracked):
        p = make_conv(2, 3, 3, 2, 11)
        p.kernel.requires_grad = p.bias.requires_grad = True
        x = Tensor(x_np.copy(), requires_grad=tracked)
        with ad.Graph() as graph:
            layers.conv2d_forward(x, p)
            _, _, ids, vjp = graph.nodes[-1]
        assert (ids[0] is not None) == tracked
        return vjp(g)

    gx_const, gk_const, gb_const = cotangents(False)
    gx, gk, gb = cotangents(True)
    assert gx_const is None and gx.shape == x_np.shape
    assert np.array_equal(gk_const, gk)
    assert np.array_equal(gb_const, gb)


def full_primary_input(n):
    """n images at the full-size primary capsules' input shape, [N, 31, 31,
    256]; with the primary convolution and its patch bytes per image."""
    p = make_conv(256, 256, 9, 3, 14)
    x = SplitMix64(15).uniform(256 * n * 31 * 31, -1, 1)
    return Tensor(x.reshape(n, 31, 31, 256)), p, 256 * 9 * 9 * 8 * 8 * 8


def full_conv1_input(n):
    """n full-size images as [N, 100, 100, 1] maps, with conv1 (1 -> 256
    channels, 9x9 stride 3) and its patch bytes per image."""
    p = make_conv(1, 256, 9, 3, 19)
    x = SplitMix64(20).uniform(n * 100 * 100).reshape(n, 100, 100, 1)
    return Tensor(x), p, 9 * 9 * 31 * 31 * 8


def tape_forward(x, p):
    """conv2d_forward with a tracked kernel, so it makes a tape node and
    runs im2col whatever the shape."""
    p.kernel.requires_grad = True
    with ad.Graph():
        return layers.conv2d_forward(x, p)


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_conv_forward_in_image_groups_is_bitwise_one_gemm(monkeypatch,
                                                          per_group):
    # 5 images in groups of 1, 2 or 3: two of the runs end in a ragged
    # group; for the full-size primary capsules and for conv1
    cases = [full_primary_input(5), full_conv1_input(5)]
    wholes = [tape_forward(x, p).data for x, p, _ in cases]
    for (x, p, image_bytes), whole in zip(cases, wholes):
        assert 5 * image_bytes <= layers.PATCH_BYTES
        monkeypatch.setattr(layers, "PATCH_BYTES",
                            per_group * image_bytes + 7)
        got = tape_forward(x, p).data
        assert got.strides == whole.strides
        assert got.tobytes() == whole.tobytes()


def test_conv_forward_holds_one_group_of_patches(monkeypatch):
    x, p, image_bytes = full_primary_input(5)
    budget = 2 * image_bytes
    monkeypatch.setattr(layers, "PATCH_BYTES", budget)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = tape_forward(x, p)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # the whole batch's patches would be 5 * image_bytes (53 MB)
    assert peak < budget + out.data.nbytes + (1 << 20)


@pytest.fixture
def patch_groups(monkeypatch):
    """The chunks of every byte_chunks call in layers while it is used: a
    forward's image groups, a vjp's blocks of kernel-offset rows."""
    real, seen = layers.byte_chunks, []

    def spy(*args):
        seen.append(real(*args))
        return seen[-1]

    monkeypatch.setattr(layers, "byte_chunks", spy)
    return seen


@pytest.mark.parametrize("per_group", [1, 2, 3])
def test_conv_vjp_in_image_groups_matches_reference(monkeypatch, patch_groups,
                                                    per_group):
    # 5 images in groups of 1, 2 or 3: C-contiguous inputs and views of
    # [N, C, H, W] memory, one whose last row no window reads, and the
    # StandardEncoder's 5x5 stride-2 conv2
    cases = [(4, 3, 13, 3, 2, True), (4, 3, 13, 3, 2, False),
             (4, 3, 14, 3, 2, True), (32, 64, 19, 5, 2, True)]
    for seed, (c, o, h, k, s, last) in enumerate(cases):
        ho = (h - k) // s + 1
        monkeypatch.setattr(layers, "PATCH_BYTES",
                            per_group * ho * ho * k * k * c * 8 + 7)
        p = make_conv(c, o, k, s, 600 + seed)
        x = SplitMix64(700 + seed).uniform(5 * c * h * h, -1, 1)
        x = (x.reshape(5, h, h, c) if last
             else x.reshape(5, c, h, h).transpose(0, 2, 3, 1))
        xt = Tensor(x, requires_grad=True)
        with ad.Graph() as graph:
            out = layers.conv2d_forward(xt, p)
            vjp = graph.nodes[-1][3]
        assert len(patch_groups[-1]) == -(-5 // per_group)
        want = naive_conv2d_patch(nchw(x), p.kernel.data, p.bias.data, s)
        assert np.abs(nchw(out.data) - want).max() < 1e-10
        g = SplitMix64(800 + seed).uniform(out.size, -1, 1).reshape(out.shape)
        gx, gk, gb = vjp(g)
        tag = (c, o, h, k, s, last, per_group)
        assert gx.strides == x.strides, tag
        assert np.abs(nchw(gx) - naive_conv2d_input_vjp(
            nchw(g), p.kernel.data, nchw(x).shape, s)).max() < 1e-10, tag
        assert np.abs(gk - naive_conv2d_kernel_vjp(
            nchw(g), nchw(x), p.kernel.shape, s)).max() < 1e-10, tag
        assert np.abs(gb - g.sum(axis=(0, 1, 2))).max() < 1e-10, tag


DESK = dict(conv_channels=32, primary_types=8, primary_d=8, face_caps=16,
            face_d=8, routing_iters=2, input_size=64)


DESK_MODELS = [
    ("scn", DESK),                                   # desk and criterion 8
    ("standard", dict(input_size=64)),               # criterion 8
    ("scn", dict(DESK, routing_iters=4, input_size=100)),  # criterion 7
]


@pytest.mark.parametrize("kind,cfg", DESK_MODELS)
def test_desk_convs_form_one_patch_group(patch_groups, kind, cfg):
    # a GEMM split over images need not match the whole-batch GEMM in the
    # last bits, so the desk models, at an eval chunk of 32 images, must
    # not split
    encoder = {"scn": models.ScnEncoder, "standard": models.StandardEncoder}
    enc = encoder[kind](0, **cfg)
    s = cfg["input_size"]
    images = Tensor(SplitMix64(16).uniform(32 * s * s).reshape(32, 1, s, s))
    enc.encode(images, training=False)
    assert patch_groups == [[(0, 32)]] * 2


def test_desk_encoder_hands_maps_on_without_copies(monkeypatch):
    # conv2d_forward, batchnorm_forward and relu return C-contiguous
    # [N, H, W, C] maps, and the primary capsules' reshape and transpose of
    # their convolution's output are views of it: up to the pose reshape, a
    # taped desk step copies no feature map into another layout
    emitted, real = [], ad._emit

    def spy(op, out, inputs, vjp):
        emitted.append((op, out))
        return real(op, out, inputs, vjp)

    monkeypatch.setattr(ad, "_emit", spy)
    enc = models.ScnEncoder(0, **DESK)
    images = Tensor(SplitMix64(22).uniform(16 * 64 * 64)
                    .reshape(16, 1, 64, 64))
    with ad.Graph():
        enc.encode(images, training=True)
    assert [op for op, _ in emitted[:6]] == [
        "conv2d", "batchnorm", "relu", "conv2d", "reshape", "transpose"]
    maps = [out for _, out in emitted[:4]]
    for out, shape in zip(maps, [(16, 19, 19, 32)] * 3 + [(16, 4, 4, 64)]):
        assert out.shape == shape and out.flags.c_contiguous
    for _, view in emitted[4:6]:
        assert np.shares_memory(view, maps[3])


def test_full_size_conv1_forms_one_patch_group(patch_groups):
    p = make_conv(1, 256, 9, 3, 17)
    x = SplitMix64(18).uniform(32 * 100 * 100).reshape(32, 100, 100, 1)
    layers.conv2d_forward(Tensor(x), p)
    assert patch_groups == [[(0, 32)]]


def ragged_input(n):
    """n [23, 23, 64] maps and a 7x7 stride-2 convolution to 96 channels,
    whose last of ceil(7/2) = 4 offset rows holds one kernel row; with its
    patch bytes per image."""
    p = make_conv(64, 96, 7, 2, 24)
    x = SplitMix64(23).uniform(n * 23 * 23 * 64, -1, 1)
    return Tensor(x.reshape(n, 23, 23, 64)), p, 9 * 9 * 7 * 7 * 64 * 8


def taped_vjp(x, p):
    """The vjp of conv2d_forward's tape node for x, with the kernel and
    bias tracked, and a cotangent of the output's shape."""
    p.kernel.requires_grad = p.bias.requires_grad = True
    with ad.Graph() as graph:
        out = layers.conv2d_forward(x, p)
        vjp = graph.nodes[-1][3]
    return vjp, SplitMix64(21).uniform(out.size, -1, 1).reshape(out.shape)


@pytest.fixture
def gathered_rows(monkeypatch):
    """(images, kernel rows) of every patch gather in layers while it is
    used: kh rows for a group's whole patch matrix, 1 for a single kernel
    row."""
    real, seen = layers._gather, []

    def spy(cols, lo, hi, buf):
        seen.append((hi - lo, cols.shape[3]))
        return real(cols, lo, hi, buf)

    monkeypatch.setattr(layers, "_gather", spy)
    return seen


@pytest.mark.parametrize("tracked", [True, False])
@pytest.mark.parametrize("make,per_group,offset_rows,want", [
    (full_primary_input, None, 1, [(3, 1)] * 9),
    (full_primary_input, 2, 1, [(2, 1)] * 9 + [(1, 1)] * 9),
    (ragged_input, None, 1, [(3, 1)] * 7),
    (ragged_input, 2, 2, [(2, 1)] * 7 + [(1, 1)] * 7),
])
def test_conv_vjp_in_kernel_row_blocks_is_bitwise_one_block(
        monkeypatch, patch_groups, gathered_rows, make, per_group,
        offset_rows, want, tracked):
    # 3 images, in one group or in groups of 2 and 1, under a budget of
    # one or two offset rows (s kernel rows each) of a group that does not
    # hold its whole patch matrix: one gather per group and kernel row,
    # against one gather of each group's whole matrix
    x, p, image_bytes = make(3)
    if per_group is not None:
        monkeypatch.setattr(layers, "PATCH_BYTES",
                            per_group * image_bytes + 7)
    vjp, g = taped_vjp(Tensor(x.data, requires_grad=tracked), p)
    groups = patch_groups[-1]
    assert len(groups) == (1 if per_group is None else 2)
    kh = p.kernel.shape[1]
    monkeypatch.setattr(layers, "VJP_PATCH_BYTES", 1 << 40)
    gathered_rows.clear()
    whole = vjp(g)
    assert gathered_rows == [(hi - lo, kh) for lo, hi in groups]
    # the patch columns of one offset row in a group
    _, _, kw, c = p.kernel.shape
    row_bytes = ((per_group or 3) * g.shape[1] * g.shape[2]
                 * p.stride * kw * c * 8)
    monkeypatch.setattr(layers, "VJP_PATCH_BYTES", offset_rows * row_bytes)
    gathered_rows.clear()
    got = vjp(g)
    assert gathered_rows == want
    assert (got[0] is None) == (whole[0] is None) == (not tracked)
    for a, b in zip(got, whole):
        if a is not None:
            assert a.strides == b.strides and a.tobytes() == b.tobytes()


def test_conv_vjp_holds_one_block_of_patches(monkeypatch, gathered_rows):
    # at 4 full-size primary-capsule images, one kernel row at a time, the
    # vjp's transient is the kernel gradient, its fold buffer gx6 and one
    # kernel row of patch columns (4.7 MB), then gx in place of that row at
    # the copy-out.  Three kernel rows at a time with gx held throughout
    # would pass the bound by 13 MB
    x, p, image_bytes = full_primary_input(4)
    vjp, g = taped_vjp(Tensor(x.data, requires_grad=True), p)
    monkeypatch.setattr(layers, "VJP_PATCH_BYTES", 1)
    vjp(g)  # warm numpy's own caches
    gathered_rows.clear()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        gx, gk, _ = vjp(g)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert gathered_rows == [(4, 1)] * 9
    gx6 = 4 * (8 + 3) * 3 * (8 + 3) * 3 * 256 * 8  # [N, Ho+3, 3, Wo+3, 3, C]
    row = 4 * image_bytes // 9
    assert peak < gk.nbytes + gx6 + max(row, gx.nbytes) + (1 << 20)


@pytest.mark.parametrize("kind,cfg", DESK_MODELS)
def test_desk_train_steps_run_one_kernel_row_block(patch_groups, kind, cfg):
    # at the default batch of 16 pairs, every desk convolution's forward
    # forms one image group and its vjp one block: the GEMMs of the whole
    # patch matrix
    encoder = {"scn": models.ScnEncoder, "standard": models.StandardEncoder}
    enc = encoder[kind](0, **cfg)
    s = cfg["input_size"]
    images = Tensor(SplitMix64(25).uniform(32 * s * s).reshape(32, 1, s, s))
    with ad.Graph():
        ad.backward(ad.sum_(enc.encode(images, training=True)))
    # both kernels span 3 offset rows: 9x9 at stride 3, 5x5 at stride 2
    assert patch_groups == [[(0, 32)]] * 2 + [[(0, 3)]] * 2


def test_full_size_conv1_vjp_runs_one_block(patch_groups):
    x, p, _ = full_conv1_input(32)
    vjp, g = taped_vjp(x, p)
    vjp(g)
    assert patch_groups[-1] == [(0, 3)]


# ---------------------------------------------------------------------------
# Winograd forward (graph-free convolutions with k = 3s and a long patch
# row)

@pytest.fixture
def winograd_calls(monkeypatch):
    """The kernel shape of each Winograd forward run while it is used."""
    real, calls = layers._winograd_forward, []

    def spy(*args):
        calls.append(args[1].shape)
        return real(*args)

    monkeypatch.setattr(layers, "_winograd_forward", spy)
    return calls


def channels_last_input(n, c, h, w, seed):
    x = SplitMix64(seed).uniform(n * h * w * c, -1, 1)
    return Tensor(x.reshape(n, h, w, c))


def relative_gap(got, want):
    return np.abs(got - want).max() / np.abs(want).max()


# case ids read n-c-o-k-s-0-h-w: the 0 is the padding, always zero, kept in
# the ids so that the case names stay stable
@pytest.mark.parametrize("n,c,o,k,s,h,w", [
    pytest.param(1, 256, 256, 9, 3, 31, 31,  # the full-size primary capsules
                 id="1-256-256-9-3-0-31-31"),
    pytest.param(5, 256, 256, 9, 3, 31, 31,  # in two blocks of input channels
                 id="5-256-256-9-3-0-31-31"),
    pytest.param(2, 256, 16, 9, 3, 37, 37,   # 10x10 output: ragged last tiles
                 id="2-256-16-9-3-0-37-37"),
    pytest.param(2, 256, 16, 9, 3, 31, 40,   # rectangular, 8x11 output
                 id="2-256-16-9-3-0-31-40"),
])
def test_winograd_forward_matches_im2col(winograd_calls, n, c, o, k, s, h, w):
    assert k * k * c >= layers.WINOGRAD_K
    p = make_conv(c, o, k, s, 900 + h + w)
    x = channels_last_input(n, c, h, w, 950 + n + h + w)
    got = layers.conv2d_forward(x, p).data
    want = tape_forward(x, p).data
    assert len(winograd_calls) == 1
    assert got.shape == want.shape and got.strides == want.strides
    assert got.flags.c_contiguous
    assert relative_gap(got, want) < 1e-12


def test_winograd_forward_holds_its_budget(monkeypatch, winograd_calls):
    # the whole transformed kernel would be 36 * 256 * 2304 * 8 bytes (170
    # MB) and the whole transformed input 36 * 20 * 2304 * 8 (13.3 MB), more
    # than the 1-image bound allows
    x, p, image_bytes = full_primary_input(5)
    outs = []
    for images in (1, 2, 3):
        budget = images * image_bytes
        monkeypatch.setattr(layers, "WINOGRAD_BYTES", budget)
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            out = layers.conv2d_forward(x, p)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert peak < budget + out.data.nbytes + (1 << 20), images
        outs.append(out.data)
    assert len(winograd_calls) == 3
    assert relative_gap(outs[0], outs[2]) < 1e-12
    assert relative_gap(outs[1], outs[2]) < 1e-12


def test_winograd_needs_a_kernel_of_three_strides(winograd_calls):
    # 5x5 stride 2 spans ceil(k/s) = 3 blocks of offsets with a long patch
    # row (K = 8,400), but k < 3s: graph-free, it runs im2col and is
    # bitwise the tape forward
    p = make_conv(336, 16, 5, 2, 937)
    assert 5 * 5 * 336 >= layers.WINOGRAD_K
    x = channels_last_input(3, 336, 20, 17, 990)
    free = layers.conv2d_forward(x, p).data
    tape = tape_forward(x, p).data
    assert winograd_calls == []
    assert free.strides == tape.strides
    assert free.tobytes() == tape.tobytes()


def test_winograd_forward_is_deterministic(monkeypatch, winograd_calls):
    # im2col's patch budget does not reach the Winograd forward's blocks
    x, p, _ = full_primary_input(2)
    a = layers.conv2d_forward(x, p).data
    b = layers.conv2d_forward(x, p).data
    monkeypatch.setattr(layers, "PATCH_BYTES", 1)
    c = layers.conv2d_forward(x, p).data
    assert len(winograd_calls) == 3
    assert a.tobytes() == b.tobytes() == c.tobytes()


DEMO_03 = dict(conv_channels=8, primary_types=4, primary_d=4, face_caps=8,
               face_d=8, embed_dim=10, routing_iters=3, input_size=37)


@pytest.mark.parametrize("kind,cfg", [
    ("conv1", dict(input_size=100)),                 # full-size conv1
    ("scn", DESK),
    ("standard", dict(input_size=64)),
    ("scn", dict(DESK, routing_iters=4, input_size=100)),
    ("scn", DEMO_03),
])
def test_other_convs_keep_im2col_graph_free(winograd_calls, kind, cfg):
    # conv1 and every desk-scale and Standard convolution stay below
    # WINOGRAD_K, so eval gives the bitwise outputs of training's forward
    if kind == "conv1":
        convs = [make_conv(1, 256, 9, 3, 21)]
    elif kind == "scn":
        enc = models.ScnEncoder(0, **cfg)
        convs = [enc.conv1, enc.primary.conv]
    else:
        enc = models.StandardEncoder(0, **cfg)
        convs = [enc.conv1, enc.conv2]
    size = cfg["input_size"]
    for i, conv in enumerate(convs):
        x = channels_last_input(32, conv.kernel.shape[3], size, size, 40 + i)
        free = layers.conv2d_forward(x, conv).data
        tape = tape_forward(x, conv).data
        assert free.strides == tape.strides
        assert free.tobytes() == tape.tobytes()
        size = (size - conv.kernel.shape[1]) // conv.stride + 1
    assert winograd_calls == []


def test_conv_parameter_count():
    p = make_conv(1, 256, 9, 3, 8)
    assert sum(t.size for _, t in p.named_parameters("conv1")) \
        == 256 * 1 * 9 * 9 + 256 == 20992


# ---------------------------------------------------------------------------
# batch normalization

def test_batchnorm_normalizes_training_batch():
    p = layers.BatchNormParams(3)
    x = Tensor(nhwc(SplitMix64(30).normal(8 * 3 * 5 * 5, mu=2.0, sigma=4.0)
                    .reshape(8, 3, 5, 5)))
    out = layers.batchnorm_forward(x, p).data
    mean = out.mean(axis=(0, 1, 2))
    var = out.var(axis=(0, 1, 2))
    assert np.abs(mean).max() < 1e-8
    assert np.abs(var - 1.0).max() < 1e-4  # eps=1e-5 shrinks var slightly


def test_batchnorm_already_normalized_is_identity():
    # up to the 1 / sqrt(1 + BN_EPS) that the epsilon scales by
    p = layers.BatchNormParams(2)
    raw = nhwc(SplitMix64(31).normal(64 * 2).reshape(64, 2, 1, 1))
    raw = (raw - raw.mean(axis=(0, 1, 2), keepdims=True))
    raw = raw / raw.std(axis=(0, 1, 2), keepdims=True)
    out = layers.batchnorm_forward(Tensor(raw), p).data
    assert np.abs(out - raw / np.sqrt(1 + layers.BN_EPS)).max() < 1e-6


def test_batchnorm_gamma_zero_gives_beta():
    p = layers.BatchNormParams(2)
    p.gamma.data[:] = 0.0
    p.beta.data[:] = [1.5, -2.0]
    x = Tensor(nhwc(SplitMix64(32).uniform(4 * 2 * 3 * 3).reshape(4, 2, 3, 3)))
    out = layers.batchnorm_forward(x, p).data
    np.testing.assert_allclose(out[..., 0], 1.5)
    np.testing.assert_allclose(out[..., 1], -2.0)


def test_batchnorm_constant_channel_gives_beta():
    p = layers.BatchNormParams(1)
    p.beta.data[:] = 0.7
    x = Tensor(np.full((4, 2, 2, 1), 5.0))
    out = layers.batchnorm_forward(x, p).data
    np.testing.assert_allclose(out, 0.7, atol=1e-12)


def test_batchnorm_batch_too_small():
    p = layers.BatchNormParams(2)
    with pytest.raises(ValueError, match="batch too small"):
        layers.batchnorm_forward(Tensor(np.ones((1, 3, 3, 2))), p)


def test_batchnorm_running_stat_update():
    p = layers.BatchNormParams(1)
    m = layers.BN_MOMENTUM
    x = Tensor(np.arange(8, dtype=np.float64).reshape(4, 2, 1, 1))
    layers.batchnorm_forward(x, p)
    bm = x.data.mean()
    bv = x.data.var()
    np.testing.assert_allclose(p.running_mean, (1 - m) * 0.0 + m * bm)
    np.testing.assert_allclose(p.running_var, (1 - m) * 1.0 + m * bv)


def test_batchnorm_grad_check():
    x = Tensor(nhwc(SplitMix64(33).uniform(4 * 2 * 3 * 3, -1, 1)
                    .reshape(4, 2, 3, 3)))
    gamma = Tensor(SplitMix64(34).uniform(2, 0.5, 1.5))
    beta = Tensor(SplitMix64(35).uniform(2, -0.5, 0.5))

    def f(x, gamma, beta):
        p = layers.BatchNormParams(2)
        p.gamma = gamma
        p.beta = beta
        return ad.sum_(ad.square(layers.batchnorm_forward(x, p)))

    assert grad_check(f, [x, gamma, beta], eps=1e-5) < 1e-4


def test_batchnorm_node_keeps_no_reference_to_its_input():
    # the vjp reads only xhat and the statistics, so once the caller drops
    # a tracked input (conv1's output in a train step) its array is freed
    # before backward; gradients are bitwise those of a pass that kept it
    raw = SplitMix64(38).uniform(4 * 5 * 5 * 3, -1, 1).reshape(4, 5, 5, 3)
    g = Tensor(SplitMix64(39).uniform(raw.size, -1, 1).reshape(raw.shape))
    grads = []
    for keep in (True, False):
        p = chain_params()
        leaf = Tensor(raw.copy(), requires_grad=True)
        with ad.Graph():
            x = ad.mul_scalar(leaf, 1.0)
            alive = weakref.ref(x.data)
            out = layers.batchnorm_forward(x, p)
            if not keep:
                del x
                assert alive() is None
            ad.backward(ad.sum_(ad.mul(out, g)))
        grads.append((out.data, leaf.grad, p.gamma.grad, p.beta.grad))
    for kept, dropped in zip(*grads):
        assert kept.tobytes() == dropped.tobytes()


def batchnorm_chain(x, p, training):
    """batchnorm_forward as the chain of tape primitives it once was."""
    stat_shape = (1,) * (x.data.ndim - 1) + (p.channels,)
    axes = tuple(range(x.data.ndim - 1))
    if training:
        mu = ad.mean(x, axis=axes, keepdims=True)
        centered = ad.sub(x, mu)
        var = ad.mean(ad.square(centered), axis=axes, keepdims=True)
        xhat = ad.div(centered, ad.sqrt(ad.add_scalar(var, layers.BN_EPS)))
        m = layers.BN_MOMENTUM
        for run, batch in ((p.running_mean, mu), (p.running_var, var)):
            run *= 1 - m
            run += m * batch.data.reshape(-1)
    else:
        rm = Tensor(p.running_mean.reshape(stat_shape))
        rv = Tensor(p.running_var.reshape(stat_shape))
        xhat = ad.div(ad.sub(x, rm), ad.sqrt(ad.add_scalar(rv,
                                                            layers.BN_EPS)))
    gamma = ad.reshape(p.gamma, stat_shape)
    beta = ad.reshape(p.beta, stat_shape)
    return ad.add(ad.mul(xhat, gamma), beta)


def chain_params(sign=1.0):
    """BatchNormParams(3) with non-default statistics; sign scales gamma
    and beta, so sign -1 negates every output of the affine map."""
    p = layers.BatchNormParams(3)
    p.gamma.data[:] = np.multiply(sign, [0.7, 1.3, -0.4])
    p.beta.data[:] = np.multiply(sign, [0.1, -0.6, 0.2])
    p.running_mean[:] = [0.4, -0.3, 1.1]
    p.running_var[:] = [2.5, 0.6, 1.7]
    return p


@pytest.mark.parametrize("training", [True, False])
@pytest.mark.parametrize("shape", [(16, 3), (4, 5, 6, 3)])
def test_batchnorm_node_matches_primitive_chain(training, shape):
    # training: one tape node whose output, cotangents and running
    # statistics are the chain's within 1e-12.  eval: the batchnorm that
    # models._conv_bn_relu folds into a 1x1 identity convolution matches
    # relu of the chain in eval within 1e-12, leaves the running statistics
    # alone and puts nothing on a tape; gamma and beta of either sign let
    # every entry through relu once.  A rank-4 input is C-contiguous, as a
    # convolution writes it, or a view of [N, C, H, W] memory
    rng = SplitMix64(37)
    raw = rng.normal(int(np.prod(shape)), mu=0.5, sigma=2.0)
    g = rng.uniform(raw.size, -1, 1).reshape(shape)
    inputs = [raw.reshape(shape)]
    if len(shape) == 4:
        n, h, w, c = shape
        inputs.append(raw.reshape(n, c, h, w).transpose(0, 2, 3, 1))
    for x in inputs:
        if not training:
            identity = layers.Conv2dParams(Tensor(np.eye(3).reshape(3, 1, 1,
                                                                    3)),
                                           Tensor(np.zeros(3)))
            x4 = x.reshape(-1, 1, 1, 3) if x.ndim == 2 else x
            for sign in (1.0, -1.0):
                p = chain_params(sign)
                want = ad.relu(batchnorm_chain(Tensor(x4), p, False)).data
                with ad.Graph() as graph:
                    got = models._conv_bn_relu(Tensor(x4.copy(order="K")),
                                               identity, p, training=False)
                assert graph.nodes == [] and got.node_id is None
                assert got.shape == want.shape
                assert np.abs(got.data - want).max() < 1e-12, \
                    (shape, x.strides, sign)
                stats = chain_params(sign)
                np.testing.assert_array_equal(p.running_mean,
                                              stats.running_mean)
                np.testing.assert_array_equal(p.running_var,
                                              stats.running_var)
            continue
        got = []
        for fn in (layers.batchnorm_forward,
                   lambda x, p: batchnorm_chain(x, p, True)):
            p = chain_params()
            xt = Tensor(x.copy(order="K"), requires_grad=True)
            with ad.Graph() as graph:
                out = fn(xt, p)
                if fn is layers.batchnorm_forward:
                    assert [node[0] for node in graph.nodes] == ["batchnorm"]
                ad.backward(ad.sum_(ad.mul(out, Tensor(g))))
            got.append((out.data, xt.grad, p.gamma.grad, p.beta.grad,
                        p.running_mean, p.running_var))
        for a, b in zip(*got):
            assert a.shape == b.shape
            assert np.abs(a - b).max() < 1e-12, (shape, x.strides)


def test_batchnorm_eval_uses_running_stats():
    # eval folds each conv -> batchnorm -> relu block's running statistics
    # into the convolution: with non-default gamma, beta and running
    # statistics it matches conv, the primitive chain in eval and relu
    # within 1e-12 of the output's largest magnitude, at desk and full
    # widths of both encoders, and puts nothing on a tape
    for encoder, cfg in [(models.ScnEncoder, DESK), (models.ScnEncoder, {}),
                         (models.StandardEncoder, dict(input_size=64)),
                         (models.StandardEncoder, {})]:
        enc = encoder(0, **cfg)
        blocks = [(enc.conv1, enc.bn1)]
        if encoder is models.StandardEncoder:
            blocks.append((enc.conv2, enc.bn2))
        s = enc.input_size
        x = models._image_map(Tensor(SplitMix64(38).uniform(3 * s * s)
                                     .reshape(3, 1, s, s)), s)
        for i, (conv, bn) in enumerate(blocks):
            rng = SplitMix64(derive_seed(39, i))
            c = bn.channels
            conv.bias.data[:] = rng.uniform(c, -0.2, 0.2)
            bn.gamma.data[:] = rng.uniform(c, -1.5, 1.5)
            bn.beta.data[:] = rng.uniform(c, -0.5, 0.5)
            bn.running_mean[:] = rng.normal(c, sigma=0.3)
            bn.running_var[:] = rng.uniform(c, 0.2, 3.0)
            want = ad.relu(batchnorm_chain(layers.conv2d_forward(x, conv),
                                           bn, False)).data
            with ad.Graph() as graph:
                got = models._conv_bn_relu(x, conv, bn, training=False)
            assert graph.nodes == [] and got.node_id is None
            assert got.shape == want.shape and got.data.flags.c_contiguous
            assert np.abs(got.data - want).max() \
                <= 1e-12 * np.abs(want).max(), (encoder, cfg, i)
            x = got


def test_batchnorm_rank2_input():
    p = layers.BatchNormParams(3)
    x = Tensor(SplitMix64(36).normal(16 * 3, mu=1.0, sigma=2.0).reshape(16, 3))
    out = layers.batchnorm_forward(x, p).data
    assert np.abs(out.mean(axis=0)).max() < 1e-8


# ---------------------------------------------------------------------------
# dense

def test_dense_identity():
    p = layers.DenseParams(Tensor(np.eye(3)), Tensor(np.zeros(3)))
    x = Tensor(SplitMix64(40).uniform(6).reshape(2, 3))
    np.testing.assert_array_equal(layers.dense_forward(x, p).data, x.data)


def test_dense_sum_example():
    p = layers.DenseParams(Tensor([[1.0], [1.0]]), Tensor([0.0]))
    out = layers.dense_forward(Tensor([[1.0, 1.0]]), p)
    np.testing.assert_allclose(out.data, [[2.0]])


def test_dense_parameter_count_512_20():
    p = layers.dense_init(512, 20, seed=1)
    assert sum(t.size for _, t in p.named_parameters("fc")) \
        == 512 * 20 + 20 == 10260


def test_dense_shape_error():
    p = layers.dense_init(4, 2, seed=2)
    with pytest.raises(ShapeError, match="dense"):
        layers.dense_forward(Tensor(np.ones((2, 3))), p)


def test_dense_grad_check():
    x = Tensor(SplitMix64(41).uniform(2 * 4, -1, 1).reshape(2, 4))
    p = layers.dense_init(4, 3, seed=3)

    def f(x, w, b):
        return ad.sum_(ad.square(layers.dense_forward(
            x, layers.DenseParams(w, b))))

    assert grad_check(f, [x, p.weight, p.bias], eps=1e-5) < 1e-4


# ---------------------------------------------------------------------------
# initialization

def test_init_biases_zero_and_affine_defaults():
    c = layers.conv2d_init(2, 4, 3, seed=5)
    assert np.array_equal(c.bias.data, np.zeros(4))
    d = layers.dense_init(8, 3, seed=5)
    assert np.array_equal(d.bias.data, np.zeros(3))
    b = layers.BatchNormParams(4)
    assert np.array_equal(b.gamma.data, np.ones(4))
    assert np.array_equal(b.beta.data, np.zeros(4))


def test_init_same_seed_bitwise_identical():
    a = layers.conv2d_init(1, 8, 5, seed=9)
    b = layers.conv2d_init(1, 8, 5, seed=9)
    assert np.array_equal(a.kernel.data, b.kernel.data)
    c = layers.dense_init(16, 4, seed=9)
    d = layers.dense_init(16, 4, seed=9)
    assert np.array_equal(c.weight.data, d.weight.data)


def test_init_kernel_is_the_draw_in_storage_order():
    # the [O, C, k, k] SplitMix64 draw, stored as [O, k, k, C]: a seed gives
    # the same weights as before, in the new order
    p = layers.conv2d_init(3, 4, 5, seed=12)
    bound = float(np.sqrt(6.0 / (3 * 25 + 4 * 25)))
    draw = SplitMix64(derive_seed(12, 1)).uniform(
        4 * 3 * 5 * 5, -bound, bound).reshape(4, 3, 5, 5)
    assert p.kernel.data.flags.c_contiguous
    assert np.array_equal(p.kernel.data, draw.transpose(0, 2, 3, 1))


def test_dense_init_weight_is_the_draw():
    # the Glorot-uniform [d_in, d_out] draw with seed derive_seed(seed, 1),
    # bitwise, over several blocks of draws
    d_in, d_out = 3 * 4096 + 7, 9
    p = layers.dense_init(d_in, d_out, seed=12)
    bound = float(np.sqrt(6.0 / (d_in + d_out)))
    draw = SplitMix64(derive_seed(12, 1)).uniform(
        d_in * d_out, -bound, bound).reshape(d_in, d_out)
    assert np.array_equal(p.weight.data, draw)
    assert p.weight.requires_grad and not p.bias.data.any()


def _whole_array_kernel(in_ch, out_ch, k, seed):
    """conv2d_init's kernel as a whole-array [O, C, k, k] draw, transposed
    into a contiguous [O, k, k, C] copy."""
    bound = float(np.sqrt(6.0 / (in_ch * k * k + out_ch * k * k)))
    draw = SplitMix64(derive_seed(seed, 1)).uniform(
        out_ch * in_ch * k * k, -bound, bound)
    return np.ascontiguousarray(
        draw.reshape(out_ch, in_ch, k, k).transpose(0, 2, 3, 1))


@pytest.mark.parametrize("in_ch,out_ch,k", [
    (1, 256, 9),    # conv1: C = 1, so the draw order is the storage order
    (40, 50, 5),    # several output channels per block, two blocks
    (512, 3, 9),    # one output channel spans more than a block
])
def test_init_kernel_drawn_in_place_matches_whole_array_draw(in_ch, out_ch,
                                                            k):
    p = layers.conv2d_init(in_ch, out_ch, k, seed=21)
    assert p.kernel.data.flags.c_contiguous
    assert p.kernel.data.tobytes() == _whole_array_kernel(in_ch, out_ch, k,
                                                          21).tobytes()


def test_glorot_bound_conv_9x9():
    p = layers.conv2d_init(1, 256, 9, seed=11)
    bound = np.sqrt(6.0 / (1 * 81 + 256 * 81))
    vals = p.kernel.data
    assert np.abs(vals).max() <= bound
    assert np.abs(vals).max() > 0.98 * bound  # 20k draws reach near the edge
    assert abs(vals.mean()) < 0.01 * bound
