"""AMSGrad updates.

AMSGrad keeps the running elementwise maximum of the second moment, so the
per-coordinate effective rate alpha/sqrt(v_hat) never increases.  No bias
correction is applied, and the base rate decays as alpha/sqrt(t) unless
flat_lr is set.  Updates mutate parameter data in place; state tensors are
plain numpy arrays keyed by parameter name.
"""

from __future__ import annotations

import numpy as np


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
                 theta1: float = 0.9, theta2: float = 0.999,
                 eps: float = 1e-8, flat_lr: bool = False) -> None:
    """One update over [(name, Tensor)] pairs whose .grad is populated.

    m <- t1*m + (1-t1)*g;  v <- t2*v + (1-t2)*g^2;  v_hat <- max(v_hat, v);
    w <- w - alpha_t * m / (sqrt(v_hat) + eps),  alpha_t = alpha/sqrt(t),
    with the step counter t starting at 1.
    """
    if not 0.0 <= theta1 < 1.0 or not 0.0 <= theta2 < 1.0:
        raise ValueError(f"theta1/theta2 must lie in [0, 1), got "
                         f"({theta1}, {theta2})")
    state.t += 1
    alpha_t = alpha if flat_lr else alpha / np.sqrt(state.t)
    for name, p in params:
        g = p.grad
        if g is None:
            continue
        if g.shape != p.data.shape:
            raise ValueError(f"gradient shape {g.shape} does not match "
                             f"parameter {name!r} shape {p.data.shape}")
        state.ensure(name, p.data.shape)
        m, v, v_hat = state.m[name], state.v[name], state.v_hat[name]
        m *= theta1
        m += (1.0 - theta1) * g
        v *= theta2
        v += (1.0 - theta2) * (g * g)
        np.maximum(v_hat, v, out=v_hat)
        p.data -= alpha_t * m / (np.sqrt(v_hat) + eps)

