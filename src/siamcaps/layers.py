"""Convolution, batch normalization, dense layers, and initialization.

Layers are parameter containers plus pure forward functions on the autodiff
tape.  Convolution is a single tape node over a strided patch view of the
input.  Its forward builds the patch matrix a group of images at a time,
within PATCH_BYTES, and runs one GEMM per group into its columns of a single
[O, N, Ho, Wo] output.  A GEMM split over images need not match the
whole-batch GEMM in the last bits (conv1's does not in 1-image groups), so
PATCH_BYTES is set where only the full-size primary capsules split, and
theirs match bitwise.  The kernel gradient is a tensordot over the patch
view; the input gradient is accumulated channels-last in an [N, Hp, Wp, C]
buffer, one GEMM per kernel offset, and copied out once in the input's own
memory order.  The naive nested-loop references it must match (within
1e-10) live in the test suite."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .rng import SplitMix64, derive_seed

# bytes of patch matrix that the convolution forward builds at once; it
# runs its GEMM over groups of images that fit.  At full size the primary
# capsules' patches take 10.6 MB an image, so a group is 12 images; conv1 at
# 32 images (20 MB) and every desk-size convolution are one group.  With
# 6-image groups (64 MiB) the primary GEMM ran 20% slower than with one
PATCH_BYTES = 128 << 20


def glorot_uniform(shape, fan_in: int, fan_out: int, seed: int,
                   name: str = "") -> Tensor:
    bound = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return ad.uniform(shape, -bound, bound, seed, requires_grad=True,
                      name=name)


class Conv2dParams:
    """Square-kernel 2-d convolution parameters (cross-correlation)."""

    def __init__(self, kernel: Tensor, bias: Tensor, stride: int = 1,
                 padding: int = 0):
        if kernel.data.ndim != 4:
            raise ShapeError(f"conv kernel must be rank 4, got "
                             f"{list(kernel.shape)}")
        if kernel.shape[2] != kernel.shape[3]:
            raise ShapeError(f"conv kernels must be square, got "
                             f"{kernel.shape[2]}x{kernel.shape[3]}")
        if stride < 1 or padding < 0:
            raise ValueError(f"bad stride/padding ({stride}, {padding})")
        self.kernel = kernel
        self.bias = bias
        self.stride = stride
        self.padding = padding

    def parameter_count(self) -> int:
        return self.kernel.size + self.bias.size

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/kernel", self.kernel), (prefix + "/bias", self.bias)]


def conv2d_init(in_ch: int, out_ch: int, ksize: int, stride: int = 1,
                padding: int = 0, seed: int = 0, name: str = "conv") -> Conv2dParams:
    fan_in = in_ch * ksize * ksize
    fan_out = out_ch * ksize * ksize
    kernel = glorot_uniform([out_ch, in_ch, ksize, ksize], fan_in, fan_out,
                            derive_seed(seed, 1), name=name + "/kernel")
    bias = ad.zeros([out_ch], requires_grad=True, name=name + "/bias")
    return Conv2dParams(kernel, bias, stride, padding)


def byte_chunks(n: int, item_bytes: int, budget: int) -> list:
    """Ranges [lo, hi) of n items that hold at most budget bytes each, or
    one item each when an item is larger; one empty range for n = 0."""
    size = max(1, budget // max(1, item_bytes))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)] or [(0, 0)]


def _conv_cols(xp: np.ndarray, kh: int, kw: int, stride: int,
               ho: int, wo: int) -> np.ndarray:
    """6-d view (N, C, kh, kw, Ho, Wo) over the padded input; no copy."""
    sn, sc, sh, sw = xp.strides
    shape = (xp.shape[0], xp.shape[1], kh, kw, ho, wo)
    strides = (sn, sc, sh, sw, sh * stride, sw * stride)
    return np.lib.stride_tricks.as_strided(xp, shape, strides, writeable=False)


def conv2d_forward(x: Tensor, p: Conv2dParams) -> Tensor:
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4 [N,C,H,W], got "
                         f"{list(x.shape)}")
    n, c, h, w = x.shape
    o, ck, kh, kw = p.kernel.shape
    if c != ck:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {ck}")
    s, pad = p.stride, p.padding
    ho = (h + 2 * pad - kh) // s + 1
    wo = (w + 2 * pad - kw) // s + 1
    if ho < 1 or wo < 1 or kh > h + 2 * pad or kw > w + 2 * pad:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} does not fit input "
                         f"{h}x{w} with padding {pad}")

    xp = x.data if pad == 0 else np.pad(
        x.data, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = _conv_cols(xp, kh, kw, s, ho, wo)
    # one [O, K] @ [K, images*Ho*Wo] GEMM per group of images, K = C*kh*kw,
    # each writing its own columns of the [O, N, Ho, Wo] output; every group
    # gathers its patches into the one buffer, so one group's are held
    hw = ho * wo
    groups = byte_chunks(n, cols[:1].nbytes, PATCH_BYTES)
    kmat = p.kernel.data.reshape(o, -1)
    patches = np.empty((kmat.shape[1], (groups[0][1] - groups[0][0]) * hw))
    out = np.empty((o, n, ho, wo))
    for lo, hi in groups:
        group = patches[:, :(hi - lo) * hw]
        np.copyto(group.reshape(c, kh, kw, hi - lo, ho, wo),
                  cols[lo:hi].transpose(1, 2, 3, 0, 4, 5))
        np.matmul(kmat, group, out=out.reshape(o, -1)[:, lo * hw:hi * hw])
    out += p.bias.data[:, None, None, None]
    out = out.transpose(1, 0, 2, 3)

    kdata = p.kernel.data
    # a graph-constant input (raw images) needs no cotangent and no scatter
    need_gx = ad.tracked(x)

    def vjp(g):
        gk = np.tensordot(g, cols, axes=([0, 2, 3], [0, 4, 5]))
        gb = g.sum(axis=(0, 2, 3))
        if not need_gx:
            return (None, gk, gb)
        # accumulate channels-last: each kernel offset is one BLAS GEMM of
        # [N*Ho*Wo, O] by a contiguous [O, C] slice (np.matmul skips BLAS on
        # a strided operand), added into contiguous runs of C.  For a fixed
        # offset the strided targets are disjoint.
        g2 = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(-1, o)
        # gx, returned in the input's own memory order, is allocated before
        # the temporary buffer: in the other order the heap kept both, and
        # desk_train's peak RSS rose by about 2 MB
        gx = np.empty_like(x.data)
        gxt = np.zeros((n, xp.shape[2], xp.shape[3], c))
        for ki in range(kh):
            for kj in range(kw):
                contrib = g2 @ np.ascontiguousarray(kdata[:, :, ki, kj])
                gxt[:, ki:ki + s * ho:s, kj:kj + s * wo:s, :] += \
                    contrib.reshape(n, ho, wo, c)
        # the reductions of the layers below sum in memory order, so the
        # input's layout keeps their gradients bitwise independent of how
        # gx was accumulated
        gx[...] = gxt[:, pad:pad + h, pad:pad + w, :].transpose(0, 3, 1, 2)
        return (gx, gk, gb)

    return ad._emit("conv2d", out, [x, p.kernel, p.bias], vjp)


class BatchNormParams:
    """Per-channel affine normalization with running statistics.

    Running stats live outside the graph (plain arrays) and use the biased
    batch variance, matching the normalization itself.
    """

    def __init__(self, ch: int, momentum: float = 0.1, eps: float = 1e-5,
                 name: str = "bn"):
        if eps <= 0:
            raise ValueError("epsilon must be positive")
        self.gamma = ad.ones([ch], requires_grad=True, name=name + "/gamma")
        self.beta = ad.zeros([ch], requires_grad=True, name=name + "/beta")
        self.running_mean = np.zeros(ch)
        self.running_var = np.ones(ch)
        self.momentum = momentum
        self.eps = eps

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def parameter_count(self) -> int:
        return self.gamma.size + self.beta.size

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/gamma", self.gamma), (prefix + "/beta", self.beta)]

    def named_buffers(self, prefix: str) -> list:
        return [(prefix + "/running_mean", self.running_mean),
                (prefix + "/running_var", self.running_var)]


def batchnorm_forward(x: Tensor, p: BatchNormParams, training: bool) -> Tensor:
    if x.data.ndim < 2:
        raise ShapeError(f"batchnorm input must be rank >= 2, got "
                         f"{list(x.shape)}")
    if x.shape[1] != p.channels:
        raise ShapeError(f"batchnorm: input has {x.shape[1]} channels, "
                         f"params have {p.channels}")
    stat_shape = (1, p.channels) + (1,) * (x.data.ndim - 2)
    axes = (0,) + tuple(range(2, x.data.ndim))
    if training:
        if x.shape[0] < 2:
            raise ValueError("batch too small")
        mu = ad.mean(x, axis=axes, keepdims=True)
        centered = ad.sub(x, mu)
        var = ad.mean(ad.square(centered), axis=axes, keepdims=True)
        xhat = ad.div(centered, ad.sqrt(ad.add_scalar(var, p.eps)))
        # in place, so the arrays named_buffers hands out stay the live ones
        m = p.momentum
        for run, batch in ((p.running_mean, mu), (p.running_var, var)):
            run *= 1 - m
            run += m * batch.data.reshape(-1)
    else:
        rm = Tensor(p.running_mean.reshape(stat_shape))
        rv = Tensor(p.running_var.reshape(stat_shape))
        xhat = ad.div(ad.sub(x, rm), ad.sqrt(ad.add_scalar(rv, p.eps)))
    gamma = ad.reshape(p.gamma, stat_shape)
    beta = ad.reshape(p.beta, stat_shape)
    return ad.add(ad.mul(xhat, gamma), beta)


class DenseParams:
    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    def parameter_count(self) -> int:
        return self.weight.size + self.bias.size

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/weight", self.weight), (prefix + "/bias", self.bias)]


def dense_init(d_in: int, d_out: int, seed: int = 0,
               name: str = "dense") -> DenseParams:
    weight = glorot_uniform([d_in, d_out], d_in, d_out,
                            derive_seed(seed, 1), name=name + "/weight")
    bias = ad.zeros([d_out], requires_grad=True, name=name + "/bias")
    return DenseParams(weight, bias)


def dense_forward(x: Tensor, p: DenseParams) -> Tensor:
    if x.data.ndim != 2 or x.shape[1] != p.weight.shape[0]:
        raise ShapeError(f"dense: input {list(x.shape)} does not match weight "
                         f"{list(p.weight.shape)}")
    out = ad.matmul(x, p.weight)
    return ad.add(out, ad.reshape(p.bias, (1, p.bias.shape[0])))


def dropout_mask(shape, rate: float, rng: SplitMix64) -> Tensor:
    """Inverted-dropout mask: keep with probability 1-rate, scale kept units."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    if rate == 0.0:
        return ad.ones(shape)
    n = int(np.prod(shape))
    keep = (rng.uniform(n) >= rate).astype(np.float64).reshape(shape)
    return Tensor(keep / (1.0 - rate))
