"""Convolution, batch normalization, dense layers, and initialization.

Layers are parameter containers plus pure forward functions on the autodiff
tape.  Feature maps are [N, C, H, W] logically and channels-last
([N, H, W, C]) in memory: a convolution writes its output that way, and
batchnorm and relu keep the layout, so from conv1's output to the primary
capsules' input every map is channels-last.  Kernels are stored
[O, kh, kw, C], so a patch of a channels-last input is kh runs of kw*C
contiguous elements and the kernel is an [O, kh*kw*C] matrix as it lies.

Convolution (im2col and GEMM, Chellapilla, Puri & Simard 2006) is one tape
node.  Its forward gathers the patches of a group of images, within
PATCH_BYTES, into rows of an [images*Ho*Wo, kh*kw*C] matrix and runs GEMMs
of at most GEMM_ROWS rows into its rows of a single [N*Ho*Wo, O] output.
Every split of the rows that the tests check, by image group or by
GEMM_ROWS, leaves each output row bitwise as the whole-batch GEMM computes
it; PATCH_BYTES is still set where only the full-size primary capsules
split into groups.  The vjp gathers each group's patches again into a
buffer of its own and runs two GEMMs per group: the kernel gradient, which
lands in the kernel's storage order, and, for a tracked input, the patch
cotangent.  That is folded back into a channels-last buffer with one add
per s x s block of kernel offsets, ceil(k/s)^2 adds in all, and copied out
once in the input's own memory order.

Batch normalization (Ioffe & Szegedy 2015) is one tape node over the
[N*H*W, C] view of its input, with the closed-form vjp.  The naive
references that convolution must match (within 1e-10), and the chain of
tape primitives that batch normalization must match (within 1e-12), live
in the test suite."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .rng import derive_seed

# bytes of patch matrix that the convolution forward, and again its vjp,
# builds at once; each runs its GEMMs over groups of images that fit.  At
# full size the primary capsules' patches take 10.6 MB an image, so a group
# is 12 images; conv1 at 32 images (20 MB) and every desk-size convolution
# are one group.  With 6-image groups (64 MiB) the primary GEMM ran 20%
# slower than with one
PATCH_BYTES = 128 << 20
# rows of the patch matrix per forward GEMM.  The more rows a tall, thin
# GEMM (conv1's, K = 81) gets, the more of its per-thread packing buffers
# OpenBLAS touches: 16 MB and 25 ms for 32 full-size images (30,752 rows)
# in one call, 0.8 MB and 21 ms in 1,024-row blocks.  The primary
# capsules' groups (768 rows at full size) stay whole: in 256-row blocks
# their GEMM ran 20% slower
GEMM_ROWS = 1024


def glorot_uniform(shape, fan_in: int, fan_out: int, seed: int) -> Tensor:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return ad.uniform(shape, -bound, bound, seed, requires_grad=True)


class Conv2dParams:
    """Square-kernel 2-d convolution parameters (cross-correlation).

    The kernel is [O, kh, kw, C]: output channel, kernel row, kernel column,
    input channel.
    """

    def __init__(self, kernel: Tensor, bias: Tensor, stride: int = 1,
                 padding: int = 0):
        if kernel.data.ndim != 4:
            raise ShapeError(f"conv kernel must be rank 4, got "
                             f"{list(kernel.shape)}")
        if kernel.shape[1] != kernel.shape[2]:
            raise ShapeError(f"conv kernels must be square, got "
                             f"{kernel.shape[1]}x{kernel.shape[2]}")
        if stride < 1 or padding < 0:
            raise ValueError(f"bad stride/padding ({stride}, {padding})")
        self.kernel = kernel
        self.bias = bias
        self.stride = stride
        self.padding = padding

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/kernel", self.kernel), (prefix + "/bias", self.bias)]


def conv2d_init(in_ch: int, out_ch: int, ksize: int, stride: int = 1,
                padding: int = 0, seed: int = 0) -> Conv2dParams:
    """Glorot-uniform [out_ch, ksize, ksize, in_ch] kernel and zero bias.

    The values are the SplitMix64 draw of an [out_ch, in_ch, ksize, ksize]
    array, transposed into storage order.
    """
    fan_in = in_ch * ksize * ksize
    fan_out = out_ch * ksize * ksize
    draw = glorot_uniform([out_ch, in_ch, ksize, ksize], fan_in, fan_out,
                          derive_seed(seed, 1)).data
    kernel = Tensor(np.ascontiguousarray(draw.transpose(0, 2, 3, 1)),
                    requires_grad=True)
    bias = ad.zeros([out_ch], requires_grad=True)
    return Conv2dParams(kernel, bias, stride, padding)


def byte_chunks(n: int, item_bytes: int, budget: int) -> list:
    """Ranges [lo, hi) of n items that hold at most budget bytes each, or
    one item each when an item is larger; one empty range for n = 0."""
    size = max(1, budget // max(1, item_bytes))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)] or [(0, 0)]


def _conv_cols(xt: np.ndarray, kh: int, kw: int, stride: int,
               ho: int, wo: int) -> np.ndarray:
    """6-d view (N, Ho, Wo, kh, kw, C) of the patches of a padded
    [N, Hp, Wp, C] input; no copy."""
    sn, sh, sw, sc = xt.strides
    shape = (xt.shape[0], ho, wo, kh, kw, xt.shape[3])
    strides = (sn, sh * stride, sw * stride, sh, sw, sc)
    return np.lib.stride_tricks.as_strided(xt, shape, strides, writeable=False)


def _gather(cols: np.ndarray, lo: int, hi: int,
            buf: np.ndarray) -> np.ndarray:
    """The patches of images [lo, hi) as the first rows of buf, one row
    (kh, kw, C) per output pixel."""
    n, ho, wo, kh, kw, c = cols[lo:hi].shape
    rows = buf[:n * ho * wo]
    np.copyto(rows.reshape(n, ho, wo, kh, kw, c), cols[lo:hi])
    return rows


def conv2d_forward(x: Tensor, p: Conv2dParams) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4 [N,C,H,W], got "
                         f"{list(x.shape)}")
    n, c, h, w = x.shape
    o, kh, kw, ck = p.kernel.shape
    if c != ck:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {ck}")
    s, pad = p.stride, p.padding
    ho = (h + 2 * pad - kh) // s + 1
    wo = (w + 2 * pad - kw) // s + 1
    if ho < 1 or wo < 1 or kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} does not fit input "
                         f"{h}x{w} with padding {pad}")

    # a view of a channels-last input, which every encoder conv past conv1
    # reads; conv1's [N, 1, H, W] images are channels-last as they lie
    xt = x.data.transpose(0, 2, 3, 1)
    if pad:
        xt = np.pad(xt, ((0, 0), (pad, pad), (pad, pad), (0, 0)))
    cols = _conv_cols(xt, kh, kw, s, ho, wo)
    hw = ho * wo
    groups = byte_chunks(n, cols[:1].nbytes, PATCH_BYTES)
    group_rows = (groups[0][1] - groups[0][0]) * hw
    kshape = p.kernel.shape
    kmat = p.kernel.data.reshape(o, -1)  # [O, K], K = kh*kw*C
    # [rows, K] @ [K, O] GEMMs per group of images into its own rows of
    # the output, GEMM_ROWS rows at a time; every group gathers into the
    # one buffer
    patches = np.empty((group_rows, kmat.shape[1]))
    out = np.empty((n * hw, o))
    for lo, hi in groups:
        rows, dst = _gather(cols, lo, hi, patches), out[lo * hw:hi * hw]
        for r in range(0, len(rows), GEMM_ROWS):
            np.matmul(rows[r:r + GEMM_ROWS], kmat.T,
                      out=dst[r:r + GEMM_ROWS])
    del patches
    out += p.bias.data
    # a graph-constant input (raw images) needs no cotangent and no fold
    need_gx = ad.tracked(x)
    ka = -(-kh // s)  # blocks of s kernel offsets along each kernel axis

    def vjp(g):
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, o)
        gb = g2.sum(axis=0)
        gk = np.empty_like(kmat)
        # gx, returned in the input's own memory order, is allocated before
        # the temporary buffers: in the other order the heap kept both, and
        # desk_train's peak RSS rose by about 2 MB
        gx = np.empty_like(x.data) if need_gx else None
        # the padded input gradient, [n, Hb, Wb, C] with Hb = s*(Ho + ka)
        # rows split as (Ho + ka, s): kernel offset u = s*a + r of output
        # row i lands in row block i + a at phase r
        gx6 = np.zeros((n, ho + ka, s, wo + ka, s, c)) if need_gx else None
        patches = np.empty((group_rows, kmat.shape[1]))
        for lo, hi in groups:
            rows = _gather(cols, lo, hi, patches)
            g_grp = g2[lo * hw:hi * hw]
            if lo == 0:
                np.matmul(g_grp.T, rows, out=gk)
            else:
                gk += g_grp.T @ rows
            if not need_gx:
                continue
            # the patch cotangent, in place of the patches
            pc = np.matmul(g_grp, kmat, out=rows).reshape(
                hi - lo, ho, wo, kh, kw, c)
            for a in range(ka):
                rl = min(s, kh - s * a)
                for b in range(ka):
                    ql = min(s, kw - s * b)
                    gx6[lo:hi, a:a + ho, :rl, b:b + wo, :ql] += \
                        pc[:, :, :, s * a:s * a + rl,
                           s * b:s * b + ql].transpose(0, 1, 3, 2, 4, 5)
        del patches
        if not need_gx:
            return (None, gk.reshape(kshape), gb)
        gxt = gx6.reshape(n, s * (ho + ka), s * (wo + ka), c)
        # the reductions of the layers below sum in memory order, so the
        # input's layout keeps their gradients independent of how gx was
        # accumulated
        gx[...] = gxt[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)
        return (gx, gk.reshape(kshape), gb)

    return ad._emit("conv2d", out.reshape(n, ho, wo, o).transpose(0, 3, 1, 2),
                    [x, p.kernel, p.bias], vjp)


class BatchNormParams:
    """Per-channel affine normalization with running statistics.

    Running stats live outside the graph (plain arrays) and use the biased
    batch variance, matching the normalization itself.
    """

    def __init__(self, ch: int, momentum: float = 0.1, eps: float = 1e-5):
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        self.gamma = ad.ones([ch], requires_grad=True)
        self.beta = ad.zeros([ch], requires_grad=True)
        self.running_mean = np.zeros(ch)
        self.running_var = np.ones(ch)
        self.momentum = momentum
        self.eps = eps

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/gamma", self.gamma), (prefix + "/beta", self.beta)]

    def named_buffers(self, prefix: str) -> list:
        return [(prefix + "/running_mean", self.running_mean),
                (prefix + "/running_var", self.running_var)]


def batchnorm_forward(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    """gamma * (x - mean) / sqrt(var + eps) + beta per channel of x
    [N, C, ...], as one tape node.

    It works on the [M, C] view of x with the channel axis moved last (M
    rows, one per image and position): a view of a channels-last input, one
    copy otherwise.  The output is channels-last.  Training normalizes with
    the batch mean and biased variance and folds them into the running
    statistics in place; eval normalizes with the running statistics, in
    place on the one output array.  The vjp is the closed form
    gx = gamma / sigma * (g - mean(g) - xhat * mean(g * xhat)), the means
    over M, and gx = gamma / sigma * g in eval, where the statistics are
    constants.
    """
    if x.data.ndim < 2:
        raise ShapeError(f"batchnorm input must be rank >= 2, got "
                         f"{list(x.shape)}")
    if x.shape[1] != p.channels:
        raise ShapeError(f"batchnorm: input has {x.shape[1]} channels, "
                         f"params have {p.channels}")
    moved = np.moveaxis(x.data, 1, -1)
    x2 = moved.reshape(-1, p.channels)
    gamma = p.gamma.data
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch too small")
        mu = x2.mean(axis=0)
        xhat = x2 - mu
        var = np.einsum("mc,mc->c", xhat, xhat) / len(x2)
        inv = 1.0 / np.sqrt(var + p.eps)
        xhat *= inv
        out = xhat * gamma
        # in place, so the arrays named_buffers hands out stay the live ones
        m = p.momentum
        for run, batch in ((p.running_mean, mu), (p.running_var, var)):
            run *= 1 - m
            run += m * batch
    else:
        shift = p.running_mean.copy()
        inv = 1.0 / np.sqrt(p.running_var + p.eps)
        out = x2 - shift
        out *= inv
        out *= gamma
    out += p.beta.data

    def vjp(g):
        gy = np.moveaxis(g, 1, -1).reshape(x2.shape)
        xh = xhat if training else (x2 - shift) * inv
        g_gamma = np.einsum("mc,mc->c", gy, xh)
        g_beta = gy.sum(axis=0)
        if training:
            k = 1.0 / len(gy)
            gx = xh * (-k * g_gamma)
            gx += gy
            gx -= k * g_beta
            gx *= gamma * inv
        else:
            gx = gy * (gamma * inv)
        return (np.moveaxis(gx.reshape(moved.shape), -1, 1), g_gamma, g_beta)

    return ad._emit("batchnorm", np.moveaxis(out.reshape(moved.shape), -1, 1),
                    [x, p.gamma, p.beta], vjp)


class DenseParams:
    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/weight", self.weight), (prefix + "/bias", self.bias)]


def dense_init(d_in: int, d_out: int, seed: int = 0) -> DenseParams:
    weight = glorot_uniform([d_in, d_out], d_in, d_out, derive_seed(seed, 1))
    bias = ad.zeros([d_out], requires_grad=True)
    return DenseParams(weight, bias)


def dense_forward(x: Tensor, p: DenseParams) -> Tensor:
    if x.data.ndim != 2 or x.shape[1] != p.weight.shape[0]:
        raise ShapeError(f"dense: input {list(x.shape)} does not match weight "
                         f"{list(p.weight.shape)}")
    out = ad.matmul(x, p.weight)
    return ad.add(out, ad.reshape(p.bias, (1, p.bias.shape[0])))
