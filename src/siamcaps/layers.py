"""Convolution, batch normalization, dense layers, and initialization.

Layers are parameter containers plus pure forward functions on the autodiff
tape.  Feature maps are [N, H, W, C] tensors, and a convolution or
batchnorm returns a C-contiguous one.  Kernels are stored [O, kh, kw, C],
so a patch of a C-contiguous input is kh runs of kw*C contiguous elements
and the kernel is an [O, kh*kw*C] matrix as it lies.

Convolution has two forwards.  A convolution that makes a tape node (any
of x, kernel or bias tracked: every training step) runs im2col and GEMM
(Chellapilla, Puri & Simard 2006).  Its forward gathers the patches of a
group of images, within PATCH_BYTES, into rows of an [images*Ho*Wo,
kh*kw*C] matrix and runs GEMMs of at most GEMM_ROWS rows into its rows of a
single [N*Ho*Wo, O] output, adding the bias to each block as it lands.
Every split of the rows that the tests check, by image group or by
GEMM_ROWS, leaves each output row bitwise as the whole-batch GEMM computes
it; only the full-size primary capsules split into groups.  The vjp works
through the same image groups.  It gathers a group's whole patch matrix
into a buffer of its own when it fits VJP_PATCH_BYTES (every desk-scale
convolution and conv1), and otherwise the patch columns of one kernel row
of the group at a time (the full-size primary capsules).  It runs two
GEMMs per gather: the kernel gradient, whose columns for those rows land
in the kernel's storage order, and, for a tracked input, the patch
cotangent of those columns, in place of the patches.  Neither GEMM
reduces over the columns, so single rows leave every gradient bitwise
that of the whole matrix.  Each gather's cotangent is folded back into an
[N, H, W, C] buffer one kernel row at a time, with one add per column
block of s offsets, so every element sums its terms in the same order
however the rows are split.  Once the patch buffer is freed, the
fold buffer is copied out into gx, in the input's own memory order.

A graph-free convolution (no input tracked: every eval pass) whose kernel
spans exactly three strides (k = 3s) and whose patch row K = k*k*C is at
least WINOGRAD_K takes a Winograd F(4x4, 3x3) forward instead (Lavin &
Gray, "Fast Algorithms for Convolutional Neural Networks", CVPR 2016).
After a space-to-depth by s it is a 3x3 stride-1 convolution over s*s*C
channels, and F(4x4, 3x3) computes each 4x4 output tile with 36 multiplies
per input and output channel where im2col takes 144.  It runs in blocks of
input channels whose buffers, with its accumulator, stay within
WINOGRAD_BYTES, a budget of its own (im2col's PATCH_BYTES sets no block).
It transforms the kernel block by block on every call, so neither the
transformed kernel nor the transformed input ever exists whole, and it
adds each block's product into the accumulator one Winograd point at a
time.  At the full-size primary capsules and 32 images it takes about 170
ms against 315 ms for im2col, and its error against im2col was at most
2e-14 of the output's largest magnitude (the tests allow 1e-12).  The
rule keeps conv1 and every desk-scale and Standard convolution on im2col,
so their outputs are bitwise those of training's forward.

Convolutions are unpadded: an output pixel reads only input pixels.

Batch normalization (Ioffe & Szegedy 2015) is one tape node over the
[N*H*W, C] reshape of its input, with batch statistics and the closed-form
vjp.  Eval folds it into the convolution before it (models._conv_bn_relu):
train steps stay bitwise, eval outputs moved in their last bits once.  The
naive references that convolution must match (within 1e-10), and the chain
of tape primitives that batch normalization and the fold must match
(within 1e-12), live in the test suite."""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .rng import SplitMix64, derive_seed

# bytes of patch matrix that the im2col forward builds at once; it runs its
# GEMMs over groups of images that fit, and its vjp over the same groups
# (see VJP_PATCH_BYTES).  At full size the primary capsules' patches take
# 10.6 MB an image, so a group is 12 images; conv1 at 32 images (20 MB)
# and every desk-size convolution are one group.  With 6-image groups
# (64 MiB) the primary GEMM ran 20% slower than with one
PATCH_BYTES = 128 << 20
# bytes of patch columns that the im2col vjp gathers at once.  It works
# through the forward's image groups, and gathers a group's whole patch
# matrix when it fits, else one kernel row of the group's patches at a
# time, so a gather never holds more than VJP_PATCH_BYTES or one kernel row
# of a PATCH_BYTES group.  At 48 MiB conv1 (20 MB at 32 images) and every
# desk-scale convolution gather the whole matrix: the largest, criterion
# 7's primary capsules at 32 images, takes 42.5 MB.  The full-size primary
# capsules at 8 images (one train step at 4 pairs, one group) take 84.9 MB
# whole, 28.3 MB per offset row (s kernel rows) and 9.4 MB per kernel row;
# at 32 images (16 pairs, groups of 12, 12 and 8) a kernel row takes at
# most 14.2 MB.  Their vjp at 8 images by gather, on a 2-vCPU AVX-512
# host with 2 BLAS threads (median and range of 8 alternating runs, each
# the median of 4 scans of 10 calls; tracemalloc peak of a call above its
# start; gk, gb and gx bitwise equal throughout):
#   whole matrix, gx made at copy-out   150 ms (130-166)  145.3 MB
#   offset rows, gx held throughout     159 ms (130-179)  104.4 MB
#   kernel rows, gx made at copy-out    157 ms (142-167)   76.1 MB
# The VM's spread is wider than the gaps in time, so memory sets the rule
VJP_PATCH_BYTES = 48 << 20
# rows of the patch matrix per forward GEMM.  The more rows a tall, thin
# GEMM (conv1's, K = 81) gets, the more of its per-thread packing buffers
# OpenBLAS touches: 16 MB and 25 ms for 32 full-size images (30,752 rows)
# in one call, 0.8 MB and 21 ms in 1,024-row blocks.  The primary
# capsules' groups (768 rows at full size) stay whole: in 256-row blocks
# their GEMM ran 20% slower
GEMM_ROWS = 1024
# patch row length K = k*k*C from which a graph-free convolution with
# k = 3s takes the Winograd forward.  Winograd pays a kernel transform per
# call and im2col does not, so the crossover moves with the batch as well
# as with K.  On a 2-vCPU AVX-512 host with 2 BLAS threads, against
# im2col: the desk-scale primary capsules (K = 2,592, 16 images of
# 19x19 -> 4x4) took 2.2 ms against 1.9; on the full-size 31x31 -> 8x8
# grid at 32 images, K = 5,184 took 49 ms against 93 and K = 20,736 (the
# primary capsules) 184 against 317.  8,192 sits above every desk-scale
# convolution and conv1 and below the full-size primary capsules
WINOGRAD_K = 8192
# bytes of blocked buffers, accumulator included, that the Winograd
# forward holds at once; it sizes its blocks of input channels to fit.  At
# the full-size primary capsules and 32 images (2 BLAS threads, 2-vCPU
# host; medians of two scans of 8 calls each, tracemalloc peak of a call):
#   128 MiB  146 / 141 ms  134 MB     48 MiB  163 / 130 ms  50 MB
#    96 MiB  150 / 140 ms   99 MB     40 MiB  147 / 141 ms  41 MB
#    64 MiB  150 / 136 ms   66 MB     32 MiB  153 / 158 ms  32 MB
# Its speed is flat down to 40 MiB, and full_eval's peak RSS read 283.7
# MB at 48 MiB against 283.9 at 64, where something else sets the peak.
# im2col's GEMMs slow down below 128 MiB (see PATCH_BYTES), so each
# algorithm has a budget of its own
WINOGRAD_BYTES = 64 << 20
# batchnorm's running-statistics momentum and variance epsilon, every run's
BN_MOMENTUM = 0.1
BN_EPS = 1e-5

# Winograd F(4x4, 3x3) at the points 0, +-1, +-2 and infinity (Lavin & Gray
# 2016): a 4x4 output tile is AT [(G g G^T) * (BT d BT^T)] AT^T for a 6x6
# input tile d and a 3x3 kernel g.  As Kronecker products on row-major
# flattened tiles they are the [36, 36], [36, 9] and [16, 36] matrices
# below
_BT = np.array([[4, 0, -5, 0, 1, 0],
                [0, -4, -4, 1, 1, 0],
                [0, 4, -4, -1, 1, 0],
                [0, -2, -1, 2, 1, 0],
                [0, 2, -1, -2, 1, 0],
                [0, 4, 0, -5, 0, 1]], dtype=float)
_G = np.array([[1 / 4, 0, 0],
               [-1 / 6, -1 / 6, -1 / 6],
               [-1 / 6, 1 / 6, -1 / 6],
               [1 / 24, 1 / 12, 1 / 6],
               [1 / 24, -1 / 12, 1 / 6],
               [0, 0, 1]])
_AT = np.array([[1, 1, 1, 1, 1, 0],
                [0, 1, -1, 2, -2, 0],
                [0, 1, 1, 4, 4, 0],
                [0, 1, -1, 8, -8, 1]], dtype=float)
_BB, _GG, _AA = np.kron(_BT, _BT), np.kron(_G, _G), np.kron(_AT, _AT)


class Conv2dParams:
    """Square-kernel 2-d convolution parameters (cross-correlation).

    The kernel is [O, kh, kw, C]: output channel, kernel row, kernel column,
    input channel.
    """

    def __init__(self, kernel: Tensor, bias: Tensor, stride: int = 1):
        if kernel.data.ndim != 4:
            raise ShapeError(f"conv kernel must be rank 4, got "
                             f"{list(kernel.shape)}")
        if kernel.shape[1] != kernel.shape[2]:
            raise ShapeError(f"conv kernels must be square, got "
                             f"{kernel.shape[1]}x{kernel.shape[2]}")
        if stride < 1:
            raise ValueError(f"bad stride {stride}")
        self.kernel = kernel
        self.bias = bias
        self.stride = stride

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/kernel", self.kernel), (prefix + "/bias", self.bias)]


def conv2d_init(in_ch: int, out_ch: int, ksize: int, stride: int = 1,
                seed: int = 0) -> Conv2dParams:
    """Glorot-uniform [out_ch, ksize, ksize, in_ch] kernel and zero bias.

    The values are those of fill_glorot_kernel.
    """
    kernel = np.empty((out_ch, ksize, ksize, in_ch))
    fill_glorot_kernel(kernel, seed)
    bias = ad.zeros([out_ch], requires_grad=True)
    return Conv2dParams(Tensor(kernel, requires_grad=True), bias, stride)


def fill_glorot_kernel(kernel: np.ndarray, seed: int) -> None:
    """Overwrite an [O, k, k, C] kernel, or a block of output channels of
    one, with the Glorot-uniform SplitMix64 draw (seed derive_seed(seed, 1))
    of an [O, C, k, k] array, drawn straight into the storage order."""
    o, k, _, c = kernel.shape
    bound = float(np.sqrt(6.0 / (c * k * k + o * k * k)))
    SplitMix64(derive_seed(seed, 1)).fill_uniform(
        kernel.transpose(0, 3, 1, 2), -bound, bound)


def byte_chunks(n: int, item_bytes: int, budget: int) -> list:
    """Ranges [lo, hi) of n items that hold at most budget bytes each, or
    one item each when an item is larger; one empty range for n = 0."""
    size = max(1, budget // max(1, item_bytes))
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)] or [(0, 0)]


def _conv_cols(x: np.ndarray, kh: int, kw: int, stride: int,
               ho: int, wo: int) -> np.ndarray:
    """6-d view (N, Ho, Wo, kh, kw, C) of the patches of an [N, H, W, C]
    input; no copy."""
    sn, sh, sw, sc = x.strides
    shape = (x.shape[0], ho, wo, kh, kw, x.shape[3])
    strides = (sn, sh * stride, sw * stride, sh, sw, sc)
    return np.lib.stride_tricks.as_strided(x, shape, strides, writeable=False)


def _gather(cols: np.ndarray, lo: int, hi: int,
            buf: np.ndarray) -> np.ndarray:
    """The patches of images [lo, hi) of a 6-d patch view, or of a block
    of its kernel rows, as a matrix at the start of the flat buffer buf:
    one row (kh, kw, C) per output pixel."""
    part = cols[lo:hi]
    n, ho, wo, kh, kw, c = part.shape
    rows = buf[:part.size].reshape(n * ho * wo, kh * kw * c)
    np.copyto(rows.reshape(part.shape), part)
    return rows


def _winograd_forward(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray,
                      s: int, ho: int, wo: int) -> np.ndarray:
    """The C-contiguous [N, Ho, Wo, O] convolution, plus bias, of an input x
    [N, H, W, C] with an [O, 3s, 3s, C] kernel at stride s, by Winograd
    F(4x4, 3x3).

    Kernel offset u = s*a + r reads input row s*(i + a) + r for output row
    i, so the convolution is a 3x3 stride-1 one over the s x s
    space-to-depth of x, with C' = s*s*C channels.  Each block of input
    channels gathers its 6x6 input tiles and its kernel taps, transforms
    both, and adds the 36 GEMMs [tiles, C'_blk] @ [C'_blk, O] into one
    [36, tiles, O] accumulator.
    """
    n, h, w, c = x.shape
    o = kernel.shape[0]
    th, tw = -(-ho // 4), -(-wo // 4)  # 4x4 output tiles per column, row
    tiles = n * th * tw
    # the tiles read s*(4*th + 2) rows; zero rows past the input feed only
    # the cropped outputs of a ragged last tile
    eh = max(0, s * (4 * th + 2) - h)
    ew = max(0, s * (4 * tw + 2) - w)
    if eh or ew:
        x = np.pad(x, ((0, 0), (0, eh), (0, ew), (0, 0)))
    sn, sh, sw, sc = x.strides
    # tile[pi, pj, n, ti, tj, r, q, c]
    #     = x[n, s*(4*ti + pi) + r, s*(4*tj + pj) + q, c]
    tile = np.lib.stride_tricks.as_strided(
        x, (6, 6, n, th, tw, s, s, c),
        (s * sh, s * sw, sn, 4 * s * sh, 4 * s * sw, sh, sw, sc),
        writeable=False)
    # the accumulator and one point's product are fixed; each input channel
    # of a block adds s*s columns to its tiles (gathered and transformed)
    # and to its kernel taps (gathered and transformed)
    acc = np.empty((36, tiles, o))
    prod = np.empty((tiles, o))
    blocks = byte_chunks(c, 8 * s * s * (72 * tiles + 45 * o),
                         WINOGRAD_BYTES - acc.nbytes - prod.nbytes)
    width = s * s * (blocks[0][1] - blocks[0][0])
    tbuf, vbuf = np.empty(36 * tiles * width), np.empty(36 * tiles * width)
    gbuf, ubuf = np.empty(9 * o * width), np.empty(36 * o * width)
    for lo, hi in blocks:
        cb = s * s * (hi - lo)
        d = tbuf[:36 * tiles * cb].reshape(36, tiles * cb)
        np.copyto(d.reshape(6, 6, n, th, tw, s, s, hi - lo),
                  tile[..., lo:hi])
        v = np.matmul(_BB, d, out=vbuf[:d.size].reshape(d.shape))
        # g[a, b, o, r, q, c] = kernel[o, s*a + r, s*b + q, c]
        g = gbuf[:9 * o * cb].reshape(3, 3, o, s, s, hi - lo)
        np.copyto(g, kernel[..., lo:hi].reshape(
            o, 3, s, 3, s, hi - lo).transpose(1, 3, 0, 2, 4, 5))
        u = np.matmul(_GG, g.reshape(9, o * cb),
                      out=ubuf[:36 * o * cb].reshape(36, o * cb))
        vb = v.reshape(36, tiles, cb)
        ub = u.reshape(36, o, cb).transpose(0, 2, 1)
        if lo == 0:
            np.matmul(vb, ub, out=acc)
        else:
            for p in range(36):
                acc[p] += np.matmul(vb[p], ub[p], out=prod)
    # the last block's views hold the buffers too
    del tbuf, vbuf, gbuf, ubuf, prod, d, v, g, u, vb, ub
    # y[4*i + j] holds output pixel (4*ti + i, 4*tj + j) of every tile
    y = (_AA @ acc.reshape(36, tiles * o)).reshape(16, n, th, tw, o)
    out = np.empty((n, ho, wo, o))
    for i in range(4):
        for j in range(4):
            dst = out[:, i::4, j::4]
            np.add(y[4 * i + j, :, :dst.shape[1], :dst.shape[2]], bias,
                   out=dst)
    return out


def conv2d_forward(x: Tensor, p: Conv2dParams) -> Tensor:
    """The convolution [N, Ho, Wo, O], C-contiguous, of x [N, H, W, C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"conv2d input must be rank 4 [N,H,W,C], got "
                         f"{list(x.shape)}")
    n, h, w, c = x.shape
    o, kh, kw, ck = p.kernel.shape
    if c != ck:
        raise ShapeError(f"conv2d: input has {c} channels, kernel expects {ck}")
    s = p.stride
    if kh > h or kw > w:
        raise ShapeError(f"conv2d: kernel {kh}x{kw} does not fit input "
                         f"{h}x{w}")
    ho = (h - kh) // s + 1
    wo = (w - kw) // s + 1

    if (kh == 3 * s and kh * kw * c >= WINOGRAD_K
            and not any(ad.tracked(t) for t in (x, p.kernel, p.bias))):
        # graph-free: no vjp will read the patches, so no tape node
        return Tensor(_winograd_forward(x.data, p.kernel.data, p.bias.data,
                                        s, ho, wo))
    cols = _conv_cols(x.data, kh, kw, s, ho, wo)
    hw = ho * wo
    groups = byte_chunks(n, cols[:1].nbytes, PATCH_BYTES)
    group_rows = (groups[0][1] - groups[0][0]) * hw
    kshape = p.kernel.shape
    kmat = p.kernel.data.reshape(o, -1)  # [O, K], K = kh*kw*C
    # [rows, K] @ [K, O] GEMMs per group of images into its own rows of
    # the output, GEMM_ROWS rows at a time; every group gathers into the
    # one buffer
    patches = np.empty(group_rows * kmat.shape[1])
    out = np.empty((n * hw, o))
    for lo, hi in groups:
        rows, dst = _gather(cols, lo, hi, patches), out[lo * hw:hi * hw]
        # the bias is added to each block while it is in cache
        for r in range(0, len(rows), GEMM_ROWS):
            np.matmul(rows[r:r + GEMM_ROWS], kmat.T,
                      out=dst[r:r + GEMM_ROWS])
            dst[r:r + GEMM_ROWS] += p.bias.data
    del patches
    # a graph-constant input (raw images) needs no cotangent and no fold
    need_gx = ad.tracked(x)

    def vjp(g):
        g2 = g.reshape(-1, o)
        gb = g2.sum(axis=0)
        gk = np.empty_like(kmat)
        ka = -(-kh // s)  # blocks of s kernel offsets along each kernel axis
        # the input gradient, [n, Hb, Wb, C] with Hb = s*(Ho + ka) >= H
        # rows split as (Ho + ka, s): kernel offset u = s*a + r of output
        # row i lands in row block i + a at phase r
        gx6 = np.zeros((n, ho + ka, s, wo + ka, s, c)) if need_gx else None
        # per image group of the forward, the group's whole patch matrix
        # when it fits VJP_PATCH_BYTES, else one kernel row at a time; a
        # gather of kernel rows [u0, u1) takes those rows of every patch,
        # kw*C contiguous elements a row
        run = kw * c
        step = kh if group_rows * kh * run * 8 <= VJP_PATCH_BYTES else 1
        patches = np.empty(group_rows * step * run)
        for lo, hi in groups:
            g_grp = g2[lo * hw:hi * hw]
            for u0 in range(0, kh, step):
                u1 = u0 + step
                rows = _gather(cols[:, :, :, u0:u1], lo, hi, patches)
                # neither GEMM's reduction axis depends on the kernel rows
                # gathered, so every gather's columns are bitwise the
                # whole group's GEMM's
                k0, k1 = u0 * run, u1 * run
                if lo == 0:
                    np.matmul(g_grp.T, rows, out=gk[:, k0:k1])
                else:
                    gk[:, k0:k1] += g_grp.T @ rows
                if not need_gx:
                    continue
                # the patch cotangent of these rows, in place of the patches
                pc = np.matmul(g_grp, kmat[:, k0:k1], out=rows).reshape(
                    hi - lo, ho, wo, u1 - u0, kw, c)
                # one add per kernel row u = s*a + r and column block b:
                # an element of gx6 lies at one phase r, so it sums its
                # terms in (a, b) order however the rows are split
                for u in range(u0, u1):
                    a, r = divmod(u, s)
                    for b in range(ka):
                        ql = min(s, kw - s * b)
                        gx6[lo:hi, a:a + ho, r, b:b + wo, :ql] += pc[
                            :, :, :, u - u0, s * b:s * b + ql]
        patches = rows = pc = None  # rows and pc are views of patches
        if not need_gx:
            return (None, gk.reshape(kshape), gb)
        # allocated once the patches are freed.  The reductions of the
        # layers below sum in memory order, so the input's layout keeps
        # their gradients independent of how gx was accumulated
        gx = np.empty_like(x.data)
        gx[...] = gx6.reshape(n, s * (ho + ka), s * (wo + ka), c)[:, :h, :w]
        return (gx, gk.reshape(kshape), gb)

    return ad._emit("conv2d", out.reshape(n, ho, wo, o),
                    [x, p.kernel, p.bias], vjp)


class BatchNormParams:
    """Per-channel affine normalization with running statistics.

    Running stats live outside the graph (plain arrays), move by
    BN_MOMENTUM and use the biased batch variance, as the normalization does.
    """

    def __init__(self, ch: int):
        self.gamma = ad.ones([ch], requires_grad=True)
        self.beta = ad.zeros([ch], requires_grad=True)
        self.running_mean = np.zeros(ch)
        self.running_var = np.ones(ch)

    @property
    def channels(self) -> int:
        return self.gamma.shape[0]

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/gamma", self.gamma), (prefix + "/beta", self.beta)]

    def named_buffers(self, prefix: str) -> list:
        return [(prefix + "/running_mean", self.running_mean),
                (prefix + "/running_var", self.running_var)]


def batchnorm_forward(x: Tensor, p: BatchNormParams) -> Tensor:
    """gamma * (x - mean) / sqrt(var + BN_EPS) + beta per channel of x
    [..., C], with the batch mean and biased variance, as one tape node.

    It works on the [M, C] reshape of x (M rows, one per image and
    position): a view of a C-contiguous input.  It folds the batch
    statistics into the running statistics in place.  The vjp is the
    closed form gx = gamma / sigma * (g - mean(g) - xhat * mean(g * xhat)),
    the means over M.
    """
    if x.data.ndim < 2:
        raise ShapeError(f"batchnorm input must be rank >= 2, got "
                         f"{list(x.shape)}")
    if x.shape[-1] != p.channels:
        raise ShapeError(f"batchnorm: input has {x.shape[-1]} channels, "
                         f"params have {p.channels}")
    if x.shape[0] < 2:
        raise ValueError("batch too small")
    x2 = x.data.reshape(-1, p.channels)
    gamma = p.gamma.data
    mu = x2.mean(axis=0)
    xhat = x2 - mu
    var = np.einsum("mc,mc->c", xhat, xhat) / len(x2)
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    out = xhat * gamma
    out += p.beta.data
    # in place, so the arrays named_buffers hands out stay the live ones
    for run, batch in ((p.running_mean, mu), (p.running_var, var)):
        run *= 1 - BN_MOMENTUM
        run += BN_MOMENTUM * batch

    # the vjp needs only x's shapes, so the node keeps neither x nor x2
    shape2, shape = x2.shape, x.shape

    def vjp(g):
        gy = g.reshape(shape2)
        g_gamma = np.einsum("mc,mc->c", gy, xhat)
        g_beta = gy.sum(axis=0)
        k = 1.0 / len(gy)
        gx = xhat * (-k * g_gamma)
        gx += gy
        gx -= k * g_beta
        gx *= gamma * inv
        return (gx.reshape(shape), g_gamma, g_beta)

    return ad._emit("batchnorm", out.reshape(x.shape), [x, p.gamma, p.beta],
                    vjp)


class DenseParams:
    def __init__(self, weight: Tensor, bias: Tensor):
        self.weight = weight
        self.bias = bias

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/weight", self.weight), (prefix + "/bias", self.bias)]


def dense_init(d_in: int, d_out: int, seed: int = 0) -> DenseParams:
    """Glorot-uniform [d_in, d_out] weight, drawn in place with seed
    derive_seed(seed, 1), and zero bias."""
    weight = np.empty((d_in, d_out))
    bound = float(np.sqrt(6.0 / (d_in + d_out)))
    SplitMix64(derive_seed(seed, 1)).fill_uniform(weight, -bound, bound)
    bias = ad.zeros([d_out], requires_grad=True)
    return DenseParams(Tensor(weight, requires_grad=True), bias)


def dense_forward(x: Tensor, p: DenseParams) -> Tensor:
    if x.data.ndim != 2 or x.shape[1] != p.weight.shape[0]:
        raise ShapeError(f"dense: input {list(x.shape)} does not match weight "
                         f"{list(p.weight.shape)}")
    out = ad.matmul(x, p.weight)
    return ad.add(out, ad.reshape(p.bias, (1, p.bias.shape[0])))
