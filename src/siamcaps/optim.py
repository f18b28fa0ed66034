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
result is bitwise the same.

A step has one protocol, owned by OptimState: prepare(params) checks the
layout of every parameter and then makes the moments it lacks, and
begin_step advances t and returns the per-parameter update, which applies
amsgrad_update at step t's rate.  A train step (harness._train_step)
prepares before its forward and hands the update to backward as its
on_grad, so each parameter is updated as soon as its gradient is finished
and that gradient is dropped then: a step's gradients (110 MB at full
size) never exist at once.  Such a step is not all-or-nothing.  Before
its backward it checks every layout and refuses a non-finite loss, so
neither moves t, a weight or a moment; afterwards a gradient of the wrong
shape raises before its own parameter moves, but parameters updated
earlier in the sweep, and t, stay moved.  amsgrad_step applies a whole
set of populated .grad at once and is all-or-nothing: every gradient
shape and layout is checked before t or any weight moves, and a rejected
step leaves every .grad in place; each .grad it applies is then set to
None.
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

    def prepare(self, params: list) -> None:
        """Check every [(name, Tensor)] pair's layout, then make the
        moments that are missing, all zeros, in the order of params.

        Raises ValueError, before any moment is made, unless each
        parameter's weights and existing moments are C-contiguous arrays
        of its shape: the update writes through reshaped views; reshaping
        a non-contiguous array can copy it, and the update would be lost.
        """
        for name, p in params:
            arrays = [p.data] + [d[name] for d in (self.m, self.v,
                                                   self.v_hat) if name in d]
            if not all(a.flags.c_contiguous and a.shape == p.data.shape
                       for a in arrays):
                raise ValueError(f"parameter {name!r}: weights and AMSGrad "
                                 f"moments must be C-contiguous arrays of "
                                 f"shape {p.data.shape}")
        for name, p in params:
            if name not in self.m:
                for d in (self.m, self.v, self.v_hat):
                    d[name] = np.zeros(p.data.shape)

    def begin_step(self, params: list, alpha: float, flat_lr: bool = False):
        """Advance t and return update(p, grad), which applies
        amsgrad_update to parameter p of the prepared [(name, Tensor)]
        pairs at step t's rate: alpha, or alpha/sqrt(t) unless flat_lr."""
        self.t += 1
        alpha_t = alpha if flat_lr else alpha / np.sqrt(self.t)
        names = {id(p): name for name, p in params}

        def update(p, grad: np.ndarray) -> None:
            amsgrad_update(names[id(p)], p, grad, self, alpha_t)

        return update


def _check_grad(name: str, p, grad: np.ndarray) -> None:
    if grad.shape != p.data.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match "
                         f"parameter {name!r} shape {p.data.shape}")


def amsgrad_update(name: str, p, grad: np.ndarray, state: OptimState,
                   alpha_t: float) -> None:
    """Apply one AMSGrad update with gradient grad to parameter p in place.

    m <- t1*m + (1-t1)*g;  v <- t2*v + (1-t2)*g^2;  v_hat <- max(v_hat, v);
    w <- w - alpha_t * m / (sqrt(v_hat) + eps),
    with t1, t2, eps = THETA1, THETA2, EPS.  The caller has prepared p
    (OptimState.prepare) and advanced state.t (OptimState.begin_step); a
    grad of the wrong shape raises ValueError before p or its moments move.
    """
    _check_grad(name, p, grad)
    w, m, v, v_hat, g = (a.reshape(-1) for a in (
        p.data, state.m[name], state.v[name], state.v_hat[name],
        np.ascontiguousarray(grad)))
    buf = np.empty(min(BLOCK, g.size))
    buf2 = np.empty(buf.size)
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


def amsgrad_step(params: list, state: OptimState, alpha: float,
                 flat_lr: bool = False) -> None:
    """One update over [(name, Tensor)] pairs whose .grad is populated;
    each .grad it applies is set to None.

    Checks every gradient's shape and every layout before t or any weight
    moves (OptimState.prepare), then advances the step counter t
    (starting at 1) and applies each update of OptimState.begin_step.
    """
    params = [(name, p) for name, p in params if p.grad is not None]
    for name, p in params:
        _check_grad(name, p, p.grad)
    state.prepare(params)
    update = state.begin_step(params, alpha, flat_lr)
    for _, p in params:
        update(p, p.grad)
        p.grad = None
