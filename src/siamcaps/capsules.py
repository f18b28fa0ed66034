"""Capsule primitives: squash, routing-by-agreement, capsule layers,
concrete dropout.

A capsule's output is a pose vector; routing decides how much each lower
capsule's prediction contributes to each parent by iterating softmaxed log
priors updated with prediction/output dot products.
"""

from __future__ import annotations

import os
from functools import cached_property

import numpy as np

from . import autodiff as ad
from .autodiff import ShapeError, Tensor
from .layers import (Conv2dParams, byte_chunks, conv2d_forward,
                     fill_glorot_kernel)
from .rng import SplitMix64, derive_seed

EPS_SQ = 1e-9
# the routing activations a capsule layer may apply
ACTIVATIONS = ("squash", "tanh")
# lower capsules per block of the capsule transform: a block's GEMM output,
# [BLOCK, N, upper*d_out] (512 KB at full size and 8 images), stays in cache
# while it is scattered into routing's layout
BLOCK = 16
# bytes of u_hat per group of samples that dynamic_route runs its recurrence
# on at once: a group is read from memory once, and its other passes hit
# cache.  At full size one sample's u_hat is 8 MiB, so a group is one sample;
# at desk size (128 KiB a sample) a train batch or an eval chunk is one group
ROUTE_BYTES = 8 << 20
# bytes of u_hat that a graph-free capsule layer holds at once: each of its
# WORKERS threads transforms and routes groups of samples whose u_hat fits
# LAYER_BYTES / WORKERS through a u_hat buffer of its own.  At full size
# (8 MiB a sample) on 2 workers a group is 2 samples, so a 32-image eval
# chunk holds 32 MiB of u_hat rather than 268 MB; a desk eval chunk (4 MiB)
# is one group.  Transform plus routing of 32 full-size images on one
# thread by group size, median ms of 7 (first row) and 9 calls on 2 BLAS
# threads:
#     group   1    2    4    8   16   32
#     ms    411  292  275  286  263  307
#     ms    328  274  231  255  239  230
# a one-sample group re-reads all of W (67 MB) per sample; from 2 samples
# up the time is flat within noise, so memory sets the budget
LAYER_BYTES = 32 << 20
# threads a graph-free capsule layer runs its sample groups on: the CPUs
# this process may use, at most 2, the only count measured.  numpy releases
# the GIL inside the transform's GEMMs and routing's batched products, so
# on 2 vCPUs transform plus routing of 32 full-size images took 180 ms on
# 2 workers against 282 ms on one (median of 15 calls)
WORKERS = min(2, len(os.sched_getaffinity(0))
              if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)


def squash_kernel(s: np.ndarray, axis: int = -1):
    """(squash of s along axis, its vjp) in plain numpy.

    squash shrinks s to norm ||s||^2/(1+||s||^2), direction preserved.  It
    is written as s * sqrt(n2 + eps^2)/(1 + n2) so the zero vector maps to
    zero exactly and the output norm matches the analytic value to ~1e-16
    even at small norms (a naive ||s||/(||s||+eps) guard costs ~1e-10 at
    ||s||=0.1).  The vjp adds its terms in the order a reverse sweep over
    the chain square, sum, add_scalar, sqrt, div, mul would, so it matches
    that chain bit for bit.
    """
    n2 = (s * s).sum(axis=axis, keepdims=True)
    norm = np.sqrt(n2 + EPS_SQ * EPS_SQ)
    inv = 1.0 / (n2 + 1.0)
    ratio = norm * inv

    def vjp(g):
        g_ratio = (g * s).sum(axis=axis, keepdims=True)
        g_n2 = -g_ratio * ratio * inv + g_ratio * inv * (0.5 / norm)
        # in C order, as the chain's sum of cotangents is: the layers below
        # reduce in memory order
        return np.add(g * ratio, g_n2 * (2.0 * s), order="C")

    return s * ratio, vjp


def squash(s: Tensor, axis: int = -1) -> Tensor:
    """squash_kernel as one tape node."""
    out, vjp = squash_kernel(s.data, axis)
    return ad._emit("squash", out, [s], lambda g: (vjp(g),))


class RoutingState:
    """Plain-numpy record of one routing pass, for auditing it.

    b [N, n_lower, n_upper] holds the final log priors and c_history the
    couplings of every iteration in order, in the same layout, so that row
    sums and agreement monotonicity can be checked; the final couplings are
    c_history[-1].  None of them is on the tape.

    Routing runs over groups of samples, and the state holds each group's
    own arrays as the recurrence made them: groups is one (b, [c per
    iteration]) per group, each [g, n_upper, n_lower].  b and c_history
    are built from them on first read: b as a [N, n_lower, n_upper] view
    of the joined groups, each c_history entry as a fresh C-contiguous
    [N, n_lower, n_upper] copy.  A pass that nothing audits copies nothing.

    steps is None unless dynamic_route was asked to keep its saved forward
    steps (keep_steps): then it holds ((lo, hi), steps) per group of
    samples, the values _route_terms reads.
    """

    def __init__(self, groups: list, steps: list | None = None):
        self.groups = groups
        self.steps = steps

    @cached_property
    def b(self) -> np.ndarray:
        return _joined([b for b, _ in self.groups]).transpose(0, 2, 1)

    @cached_property
    def c_history(self) -> list:
        steps = zip(*(cs for _, cs in self.groups))  # one tuple per iteration
        return [np.concatenate([c.transpose(0, 2, 1) for c in parts],
                               out=np.empty(self.b.shape))
                for parts in steps]


def dynamic_route(u_hat: Tensor, iterations: int, activation_kind: str,
                  keep_steps: bool = False):
    """Route predictions u_hat [N, n_lower, n_upper, d] to parent capsules.

    Log priors start at zero; each iteration softmaxes them over the parent
    axis, forms the coupled sum s_j = sum_i c_ij u_hat_ij, applies
    activation_kind ("tanh" or "squash") to it, and (except after the last
    iteration) adds the agreement v_j . u_hat_ij back onto the priors.
    Returns (v [N, n_upper, d], RoutingState).  The first couplings are
    exactly 1/n_upper, the softmax of all-zero priors, so they are filled
    in rather than computed.  The gradient flows through every iteration,
    couplings included.

    For a tracked u_hat the whole recurrence is one tape node.  Its forward
    works on the [N, n_upper, n_lower, d] view of u_hat, so the coupled sum
    and the agreement are batched matrix-vector products and no [N, lower,
    upper, d] temporary is made.  capsule_layer_forward lays u_hat out in
    that order, so there the view is contiguous memory.  Each forward step
    saves its couplings, the vjps of their softmax and of the activation,
    and its output v: the vjps are numpy closures from the kernels that the
    softmax, tanh and squash primitives wrap, so no vjp builds a graph or
    runs a backward of its own.  The vjp turns the saved steps into the
    terms of the cotangent of u_hat with _route_terms, and sums the terms
    of each group of samples with one batched matmul.

    With keep_steps the state's steps hold the saved steps of every group
    ((lo, hi), steps) even for a constant u_hat, which then makes no node:
    the tracked capsule layer routes its u_hat this way and differentiates
    routing inside its own node (capsule_layer_forward).

    Forward and vjp run the recurrence over groups of samples, each holding
    at most ROUTE_BYTES of u_hat (one sample, if a sample is larger).  So
    in the forward, and again in the vjp, a group's predictions are read
    from memory once and stay in cache for the other passes over them.
    Nothing in the recurrence mixes samples: the softmax runs over the
    parents of one lower capsule, and the coupled sum and the agreement are
    one matrix-vector product per sample and parent.  So each group
    computes exactly, bit for bit, the rows the whole batch would.
    """
    if iterations < 1:
        raise ValueError(f"routing iterations must be >= 1, got {iterations}")
    if u_hat.data.ndim != 4:
        raise ShapeError(f"u_hat must be rank 4 [N, lower, upper, d], got "
                         f"{list(u_hat.shape)}")
    n, n_lower, n_upper, d = u_hat.shape
    if activation_kind not in ACTIVATIONS:
        raise ValueError(f"unknown activation kind {activation_kind!r}")
    act = squash_kernel if activation_kind == "squash" else ad.tanh_kernel

    ut = u_hat.data.transpose(0, 2, 1, 3)  # [N, upper, lower, d] view
    tracked = ad.tracked(u_hat)
    # per group, ((lo, hi), one (c, softmax vjp, activation vjp, v) per step)
    saved = [] if tracked or keep_steps else None
    if tracked:
        # the vjp reads ut 2*(iterations-1) more times, and the products run
        # about twice as fast on contiguous memory; this copies nothing for
        # the capsule layer's u_hat, only for one laid out another way
        ut = np.ascontiguousarray(ut)
    vs, states = [], []
    for lo, hi in byte_chunks(n, ut[:1].nbytes, ROUTE_BYTES):
        u_g, steps, cs = ut[lo:hi], [], []
        b = np.zeros((hi - lo, n_upper, n_lower))
        for it in range(iterations):
            c, c_vjp = (ad.softmax_kernel(b, axis=1) if it
                        else (np.full_like(b, 1.0 / n_upper), None))
            cs.append(c)
            s = np.matmul(c[:, :, None, :], u_g)[:, :, 0, :]
            v, v_vjp = act(s)
            if saved is not None:
                steps.append((c, c_vjp, v_vjp, v))
            if it < iterations - 1:
                b = b + np.matmul(u_g, v[:, :, :, None])[:, :, :, 0]
        vs.append(v)
        states.append((b, cs))
        if saved is not None:
            saved.append(((lo, hi), steps))

    def vjp(g):
        gu = np.empty_like(u_hat.data)  # same memory order as u_hat
        terms = 2 * iterations - 1
        for (lo, hi), steps in saved:
            coefs = np.empty((hi - lo, n_upper, terms, n_lower))
            vecs = np.empty((hi - lo, n_upper, terms, d))
            _route_terms(ut[lo:hi], steps, g[lo:hi], coefs, vecs)
            np.matmul(coefs.swapaxes(2, 3), vecs,
                      out=gu[lo:hi].transpose(0, 2, 1, 3))
        return (gu,)

    out = ad._emit("dynamic_route", _joined(vs), [u_hat], vjp)
    return out, RoutingState(states, saved if keep_steps else None)


def _route_terms(u_g: np.ndarray, steps: list, gv: np.ndarray,
                 coefs: np.ndarray, vecs: np.ndarray) -> None:
    """The reverse routing recurrence of one group of samples.

    u_g [g, n_upper, n_lower, d] is the group's u_hat in routing's layout,
    steps its saved forward steps, and gv [g, n_upper, d] the cotangent of
    its v.  The cotangent of each s_j pulls back through the couplings'
    softmax into the log priors, whose cotangent is the agreement's
    cotangent one iteration earlier.  Every term of the cotangent of u_hat
    is a coupling-like coefficient [g, n_upper, n_lower] times a vector
    [g, n_upper, d]; this writes the T = 2*iterations - 1 terms, last
    iteration first, into coefs [g, n_upper, T, n_lower] and vecs [g,
    n_upper, T, d], so that the cotangent of u_hat_ij is sum_t coefs[...,
    t, i] * vecs[..., t, :], one [lower, T] @ [T, d] product per sample
    and parent.  It pops each step off steps as it reads it, so a step's
    saved arrays go as soon as its terms are written, and steps is empty
    on return.
    """
    t, gb = 0, None  # gb: cotangent of the next iteration's log priors
    for it in reversed(range(len(steps))):
        c_it, c_vjp, v_vjp, v_it = steps.pop()
        if gb is not None:
            # the agreement v . u_hat was added to b, so its cotangent is gb
            gv = np.matmul(gb[:, :, None, :], u_g)[:, :, 0, :]
            coefs[:, :, t], vecs[:, :, t] = gb, v_it
            t += 1
        gs = v_vjp(gv)
        coefs[:, :, t], vecs[:, :, t] = c_it, gs
        t += 1
        if it == 0:
            break
        gc = np.matmul(u_g, gs[:, :, :, None])[:, :, :, 0]
        gsoft = c_vjp(gc)
        gb = gsoft if gb is None else gb + gsoft


def _joined(parts: list) -> np.ndarray:
    """The per-group parts as one batch; a single group is used as it is."""
    return parts[0] if len(parts) == 1 else np.concatenate(parts)


class PrimaryCapsuleParams:
    """All pose dimensions of all capsule types as one convolution.

    The kernel is [d*n_types, k, k, in_ch], in the convolution's
    [O, kh, kw, C] storage order, and dim-major along O: output channel
    dim*n_types + type is pose dimension dim of capsule type type.  Block
    dim is drawn exactly as a standalone in_ch -> n_types conv2d_init with
    seed derive_seed(seed, dim), straight into its slice of the kernel, and
    the bias starts at zero.  Full width is 256 -> 8*32 channels, 9x9
    stride 3 (256*256*81 + 256 = 5,308,672 parameters); in_ch and n_types
    are configurable so tests can shrink it.
    """

    def __init__(self, in_ch: int = 256, n_types: int = 32, d: int = 8,
                 ksize: int = 9, stride: int = 3, seed: int = 0):
        self.in_ch = in_ch
        self.n_types = n_types
        self.d = d
        kernel = np.empty((d * n_types, ksize, ksize, in_ch))
        for dim in range(d):
            fill_glorot_kernel(kernel[dim * n_types:(dim + 1) * n_types],
                               derive_seed(seed, dim))
        self.conv = Conv2dParams(Tensor(kernel, requires_grad=True),
                                 ad.zeros([d * n_types], requires_grad=True),
                                 stride)

    def named_parameters(self, prefix: str) -> list:
        return self.conv.named_parameters(prefix)


def primary_capsules_forward(features: Tensor,
                             params: PrimaryCapsuleParams) -> Tensor:
    """Squashed poses [N, gh*gw*n_types, d] of features [N, H, W, C].

    One convolution computes every pose dimension of every capsule type.
    Capsules are ordered by grid row, grid column, then type, and capsule
    (gh, gw, type) takes pose dimension dim from output channel
    dim*n_types + type at that grid position.  The grid size follows from
    the convolution; the capsule count and pose size are the result's shape.
    """
    n, t, d = features.shape[0], params.n_types, params.d
    m = conv2d_forward(features, params.conv)  # [N, gh, gw, d*n_types]
    grid_h, grid_w = m.shape[1], m.shape[2]
    m = ad.transpose(ad.reshape(m, [n, grid_h, grid_w, d, t]),
                     (0, 1, 2, 4, 3))  # [N, gh, gw, n_types, d]
    return squash(ad.reshape(m, [n, grid_h * grid_w * t, d]), axis=2)


class CapsuleLayerParams:
    """Transformation matrices W_ij, stored in the order the GEMM reads them.

    W is one C-contiguous [lower, d_in, upper, d_out] array: W[i, :, j, :]
    is the d_in x d_out matrix W_ij, and W[i] reshaped to
    [d_in, upper*d_out] maps lower capsule i's pose to all its predictions.
    Its values are the SplitMix64 uniform draw of a [lower, upper, d_in,
    d_out] array, drawn straight into the storage order, so the draw makes
    no second full-size array.
    """

    def __init__(self, n_lower: int, n_upper: int, d_in: int, d_out: int,
                 activation_kind: str = "tanh", seed: int = 0):
        if activation_kind not in ACTIVATIONS:
            raise ValueError(f"unknown activation kind {activation_kind!r}")
        bound = float(np.sqrt(6.0 / (d_in + d_out)))
        w = np.empty((n_lower, d_in, n_upper, d_out))
        SplitMix64(derive_seed(seed, 3)).fill_uniform(w.transpose(0, 2, 1, 3),
                                                      -bound, bound)
        self.W = Tensor(w, requires_grad=True)
        self.activation_kind = activation_kind

    def named_parameters(self, prefix: str) -> list:
        return [(prefix + "/W", self.W)]


def capsule_layer_forward(poses: Tensor, p: CapsuleLayerParams,
                          iterations: int, return_state: bool = False):
    """Route lower-capsule poses [N, n_lower, d_in] to the layer's parents.

    Forms the predictions u_hat_ij = W_ij u_i for every lower capsule i and
    parent j, then runs dynamic_route with the layer's activation.  Returns
    v [N, n_upper, d_out], or (v, RoutingState) with return_state; the
    state covers all N samples.  The poses must match W: n_lower capsules
    of pose size d_in.

    The transform runs the batched GEMM [lc, g, d_in] @ [lc, d_in,
    upper*d_out] over blocks of lc = BLOCK lower capsules and scatters each
    block, while it is in cache, into one C-contiguous [g, upper, lower,
    d_out] array.  Routing gets its [g, lower, upper, d_out] view, so the
    layout its batched products read is already in memory and neither
    u_hat nor W is copied.

    A graph-free pass runs transform and routing over groups of g samples
    on WORKERS threads, the calling thread among them.  Each worker takes
    the next group not yet taken and transforms and routes it through its
    own u_hat buffer, which holds LAYER_BYTES / WORKERS, and its own block
    buffer, so the whole batch's u_hat never exists at once.  Each group
    drops its u_hat and routing state before the worker takes the next one
    (states are kept only under return_state), and the rows of v and the
    state's groups are joined in sample order, whichever worker finished
    first.  An exception in any group reaches the caller.  Nothing mixes
    samples, so the groups compute the rows the whole batch would (bit for
    bit from two samples a group up; a one-sample GEMM may round
    differently).

    A tracked pass is one group of the whole batch on the calling thread,
    and one capsule_layer tape node for transform and routing together.
    It routes u_hat as a constant with keep_steps, so routing makes no
    node of its own, and its node keeps u_hat and routing's saved steps.
    The vjp runs the reverse recurrence (_route_terms) one routing group
    at a time, each into coefficient and vector stacks of its own, and
    drops each saved step as soon as its terms exist, so the steps shrink
    while the stacks grow; then it releases u_hat.  It forms
    the cotangent of u_hat in chunks of lower capsules whose cotangent
    fits ROUTE_BYTES, each written straight into the [lc, N, upper*d_out]
    layout of the transform's GEMMs by one batched matmul per routing
    group into that group's rows of the chunk, and runs the two GEMMs on
    each block of BLOCK lower capsules of the chunk: the gradient of W,
    written in W's storage order, and the pose cotangent, returned in the
    poses' own memory order.  So the vjp never holds the whole cotangent
    of u_hat, nor u_hat once that cotangent's terms exist.  Each (sample,
    parent) product of the terms is independent of the others, so the
    per-group products are bitwise the whole batch's.  Every sum runs
    in the order of dynamic_route's own vjp followed by a separate
    transform node's GEMMs, so the gradients are bitwise those of the two
    nodes (the tests' reference).
    """
    n_lower, d_in, n_upper, d_out = p.W.shape
    if poses.data.ndim != 3 or poses.shape[1:] != (n_lower, d_in):
        raise ShapeError(f"capsule layer expects poses [N, {n_lower}, "
                         f"{d_in}], got {list(poses.shape)}")
    u, w = poses.data, p.W.data
    n, lc = u.shape[0], min(BLOCK, n_lower)
    u_t = u.transpose(1, 0, 2)  # [L, N, i] view
    w_m = w.reshape(n_lower, d_in, n_upper * d_out)
    blocks = [(lo, min(lo + lc, n_lower)) for lo in range(0, n_lower, lc)]
    sample = n_upper * n_lower * d_out * w.itemsize  # one sample's u_hat
    tracked = ad.tracked(poses) or ad.tracked(p.W)
    workers = 1 if tracked else WORKERS
    groups = byte_chunks(n, sample,
                         n * sample if tracked else LAYER_BYTES // workers)
    workers = min(workers, len(groups))
    uhs = [np.empty((groups[0][1], n_upper, n_lower, d_out))
           for _ in range(workers)]
    bufs = [np.empty((lc, groups[0][1], n_upper * d_out))  # one GEMM block
            for _ in range(workers)]
    kept = []  # tracked: [u_hat, routing's saved steps], until the vjp

    def vjp(g):  # tracked, so one group: the whole batch
        uh, steps = kept
        kept.clear()
        terms = 2 * iterations - 1
        stacks = []  # per routing group: ((s0, s1), coefs, vecs)
        for (s0, s1), group_steps in steps:
            coefs = np.empty((s1 - s0, n_upper, terms, n_lower))
            vecs = np.empty((s1 - s0, n_upper, terms, d_out))
            _route_terms(uh[s0:s1], group_steps, g[s0:s1], coefs, vecs)
            stacks.append(((s0, s1), coefs, vecs))
        del uh  # the terms replace it
        gu = np.empty_like(u)
        gw = np.empty_like(w).reshape(w_m.shape)  # C-contiguous, as w is
        gu_blk = np.empty((lc, n, d_in))
        chunks = byte_chunks(n_lower, n * n_upper * d_out * w.itemsize,
                             ROUTE_BYTES)
        chunk = np.empty((chunks[0][1], n, n_upper, d_out))
        for l0, l1 in chunks:
            # [lower, N, upper, d_out]: each block of it is a g_blk
            g_chunk = chunk[:l1 - l0]
            for (s0, s1), coefs, vecs in stacks:
                np.matmul(coefs[..., l0:l1].swapaxes(2, 3), vecs,
                          out=g_chunk[:, s0:s1].transpose(1, 2, 0, 3))
            for lo in range(l0, l1, lc):
                hi = min(lo + lc, l1)
                g_blk = g_chunk[lo - l0:hi - l0].reshape(hi - lo, n, -1)
                np.matmul(u_t[lo:hi].transpose(0, 2, 1), g_blk, out=gw[lo:hi])
                np.matmul(g_blk, w_m[lo:hi].transpose(0, 2, 1),
                          out=gu_blk[:hi - lo])
                gu[:, lo:hi] = gu_blk[:hi - lo].transpose(1, 0, 2)
        return gu, gw.reshape(w.shape)

    vs, states = [None] * len(groups), [None] * len(groups)
    todo = iter(range(len(groups)))  # each next() hands out one group

    def work(k):  # worker k, on buffers k
        for i in todo:
            s0, s1 = groups[i]
            uh_g, blk = uhs[k][:s1 - s0], bufs[k][:, :s1 - s0]
            for lo, hi in blocks:
                prod = np.matmul(u_t[lo:hi, s0:s1], w_m[lo:hi],
                                 out=blk[:hi - lo])
                uh_g[:, :, lo:hi] = prod.reshape(hi - lo, s1 - s0, n_upper,
                                                 d_out).transpose(1, 2, 0, 3)
            vs[i], state = dynamic_route(Tensor(uh_g.transpose(0, 2, 1, 3)),
                                         iterations, p.activation_kind,
                                         tracked)
            if tracked:
                kept[:] = uh_g, state.steps
            if return_state:
                states[i] = state.groups
            del state  # before this worker routes its next group

    if workers == 1:
        work(0)
    else:
        # imported here: the module adds 0.6 MB of RSS to a process whose
        # layer calls are all one group (every train step, every desk eval)
        from concurrent.futures import ThreadPoolExecutor
        with ThreadPoolExecutor(workers - 1) as pool:
            others = [pool.submit(work, k) for k in range(1, workers)]
            work(0)
        for f in others:
            f.result()  # raises what the worker raised
    if tracked:
        v = ad._emit("capsule_layer", vs[0].data, [poses, p.W], vjp)
    else:
        v = vs[0] if len(vs) == 1 else Tensor(np.concatenate(
            [v.data for v in vs]))
    if return_state:
        return v, RoutingState([grp for part in states for grp in part])
    return v


def concrete_dropout_mask(p_caps: Tensor, u: Tensor, t: float,
                          standard_concrete: bool = True) -> Tensor:
    """Continuous dropout mask from keep probabilities p_caps and noise u.

    z = sigmoid((log p - log(1-p) + log u - log(1-u)) / t): the binary
    Concrete relaxation, whose mean is p.  standard_concrete names this
    form and must be True.  p_caps is learnable; u must be clamped
    strictly inside (0, 1) by the caller.
    """
    if not standard_concrete:
        raise ValueError("only the standard Concrete form is implemented")
    if t <= 0:
        raise ValueError(f"temperature must be positive, got {t}")
    for nm, v in (("p", p_caps.data), ("u", u.data)):
        if np.any(v <= 0.0) or np.any(v >= 1.0):
            raise ValueError(f"{nm} must lie strictly inside (0, 1)")
    logit_p = ad.sub(ad.log(p_caps), ad.log(ad.add_scalar(ad.negate(p_caps),
                                                          1.0)))
    logit_u = np.log(u.data) - np.log1p(-u.data)
    return ad.sigmoid(ad.mul_scalar(ad.add(logit_p, Tensor(logit_u)), 1.0 / t))
