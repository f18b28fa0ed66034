"""Reverse-mode automatic differentiation on 64-bit numpy arrays.

The graph is an append-only tape: every primitive that touches a tracked
input appends one node, so append order is already a topological order and
backward is a single reverse sweep.  The sweep consumes the tape, popping
each node as its vjp runs, so intermediates are freed by refcounting during
the step rather than left to the cyclic collector.  A fresh Graph is built
per training step.  Layers with an iterated or windowed forward
(convolution, routing-by-agreement) are single nodes with a hand-written
vjp rather than unrolled chains of primitives.  A vjp is plain numpy and
never runs backward: the derivatives that routing shares with primitives
(tanh, softmax) are kernels returning (value, vjp) that both call.

Conventions:
  - all data is float64; scalars are tensors of shape (1,)
  - broadcasting is allowed over size-1 axes only, never over missing axes
    (no implicit rank promotion), which turns most silent shape bugs into
    immediate errors
  - produced tensors are constants of any *later* graph; only tensors with
    requires_grad=True are re-adopted as leaves when a new graph sees them
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    pass


class Tensor:
    """N-dimensional float64 array, optionally tracked by the active graph."""

    __slots__ = ("data", "requires_grad", "node_id", "graph", "grad", "name")

    def __init__(self, data: np.ndarray, requires_grad: bool = False,
                 name: str = ""):
        arr = np.asarray(data, dtype=np.float64)
        if arr.ndim == 0:
            raise ShapeError("scalar must be shape [1]")
        self.data = arr
        self.requires_grad = requires_grad
        self.node_id: Optional[int] = None
        self.graph: Optional["Graph"] = None
        self.grad: Optional[np.ndarray] = None
        self.name = name

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ShapeError(f"item() on tensor of shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={list(self.shape)}{tag})"


class Graph:
    """Append-only tape of primitive applications.

    nodes[i] = (op name, output node id, input node ids, vjp callable).
    Inputs always precede their node, so reverse iteration is a valid
    backward order.  backward empties nodes and sets swept; a graph
    supports one backward.
    """

    def __init__(self):
        self.nodes: list[tuple] = []
        self.leaves: list[Tensor] = []
        self.swept = False
        self._next_id = 0

    def __enter__(self) -> "Graph":
        _STACK.append(self)
        return self

    def __exit__(self, *exc) -> None:
        popped = _STACK.pop()
        assert popped is self

    def fresh_id(self) -> int:
        nid = self._next_id
        self._next_id += 1
        return nid

    def adopt(self, t: Tensor) -> int:
        """Register a requires_grad tensor as a leaf of this graph."""
        t.graph = self
        t.node_id = self.fresh_id()
        self.leaves.append(t)
        return t.node_id


_STACK: list[Graph] = []


def active_graph() -> Optional[Graph]:
    return _STACK[-1] if _STACK else None


def tracked(t: Tensor) -> bool:
    """True if the active graph gives t a node id: the rule of _live_id."""
    g = active_graph()
    return g is not None and (
        (t.graph is g and t.node_id is not None) or t.requires_grad)


def _live_id(t: Tensor, g: Graph) -> Optional[int]:
    """Node id of t under g, adopting untracked parameters; None if constant."""
    if t.graph is g and t.node_id is not None:
        return t.node_id
    if t.requires_grad:
        return g.adopt(t)
    return None


def _emit(op: str, out_data: np.ndarray, inputs: Sequence[Tensor],
          vjp: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]]) -> Tensor:
    """Wrap a forward result, appending a tape node if any input is tracked.

    vjp maps the output cotangent to one cotangent per input (None for
    inputs that are constant by construction).
    """
    out = Tensor(out_data)
    g = active_graph()
    if g is None:
        return out
    ids = [_live_id(t, g) for t in inputs]
    if all(i is None for i in ids):
        return out
    out.graph = g
    out.node_id = g.fresh_id()
    g.nodes.append((op, out.node_id, ids, vjp))
    return out


def backward(loss: Tensor) -> None:
    """Gradients of a scalar loss w.r.t. every requires_grad leaf.

    Sets .grad (a numpy array) on each leaf; returns nothing.
    Leaves never reached by the sweep get zeros of their own shape.  Each
    node is popped as its vjp runs, so a second backward on the same graph
    raises ValueError.
    """
    if loss.shape != (1,):
        raise ShapeError(f"backward needs a scalar loss of shape [1], got "
                         f"{list(loss.shape)}")
    g = loss.graph
    if g is None or loss.node_id is None:
        raise ValueError("loss is not attached to any graph")
    if g.swept:
        raise ValueError("graph tape already consumed by backward; build a "
                         "new Graph for another pass")
    g.swept = True
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones(1)}
    while g.nodes:
        _, out_id, input_ids, vjp = g.nodes.pop()
        gout = grads.pop(out_id, None)
        if gout is None:
            continue
        for nid, ginp in zip(input_ids, vjp(gout)):
            if nid is None or ginp is None:
                continue
            acc = grads.get(nid)
            grads[nid] = ginp if acc is None else acc + ginp
    for leaf in g.leaves:
        ga = grads.get(leaf.node_id)
        leaf.grad = np.zeros_like(leaf.data) if ga is None else ga


# ---------------------------------------------------------------------------
# tensor factories

def _check_shape(shape) -> tuple:
    shape = tuple(int(s) for s in shape)
    if len(shape) == 0:
        raise ShapeError("scalar must be shape [1]")
    for s in shape:
        if s < 1:
            raise ShapeError(f"shape entries must be >= 1, got {list(shape)}")
    return shape


def zeros(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.zeros(_check_shape(shape)), requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    return Tensor(np.ones(_check_shape(shape)), requires_grad)


def full(shape, value: float, requires_grad: bool = False) -> Tensor:
    return Tensor(np.full(_check_shape(shape), float(value)), requires_grad)


# ---------------------------------------------------------------------------
# broadcasting helpers (size-1 axes only)

def _broadcast_check(op: str, a: tuple, b: tuple) -> tuple:
    if len(a) != len(b):
        raise ShapeError(f"{op}: incompatible shapes {list(a)} and {list(b)} "
                         f"(rank promotion is not allowed)")
    out = []
    for da, db in zip(a, b):
        if da == db or da == 1 or db == 1:
            out.append(max(da, db))
        else:
            raise ShapeError(f"{op}: incompatible shapes {list(a)} and "
                             f"{list(b)}")
    return tuple(out)


def _unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum the cotangent over axes the forward pass broadcast from size 1."""
    axes = tuple(i for i, (ds, dg) in enumerate(zip(shape, g.shape))
                 if ds == 1 and dg != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _norm_axes(axis, ndim: int) -> tuple:
    if axis is None:
        return tuple(range(ndim))
    if isinstance(axis, int):
        axis = (axis,)
    axes = sorted(a % ndim for a in axis)
    if len(set(axes)) != len(axes):
        raise ShapeError(f"duplicate reduction axes {list(axis)}")
    return tuple(axes)


# ---------------------------------------------------------------------------
# elementwise and scalar primitives

def add(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("add", a.shape, b.shape)
    return _emit("add", a.data + b.data, [a, b],
                 lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def sub(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("sub", a.shape, b.shape)
    return _emit("sub", a.data - b.data, [a, b],
                 lambda g: (_unbroadcast(g, a.shape),
                            _unbroadcast(-g, b.shape)))


def mul(a: Tensor, b: Tensor) -> Tensor:
    _broadcast_check("mul", a.shape, b.shape)
    return _emit("mul", a.data * b.data, [a, b],
                 lambda g: (_unbroadcast(g * b.data, a.shape),
                            _unbroadcast(g * a.data, b.shape)))


def div(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise a/b; caller guarantees b is nonzero."""
    _broadcast_check("div", a.shape, b.shape)
    inv = 1.0 / b.data
    out = a.data * inv
    return _emit("div", out, [a, b],
                 lambda g: (_unbroadcast(g * inv, a.shape),
                            _unbroadcast(-g * out * inv, b.shape)))


def add_scalar(a: Tensor, c: float) -> Tensor:
    return _emit("add_scalar", a.data + c, [a], lambda g: (g,))


def mul_scalar(a: Tensor, c: float) -> Tensor:
    return _emit("mul_scalar", a.data * c, [a], lambda g: (g * c,))


def negate(a: Tensor) -> Tensor:
    return _emit("negate", -a.data, [a], lambda g: (-g,))


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)
    return _emit("exp", out, [a], lambda g: (g * out,))


def log(a: Tensor) -> Tensor:
    """Natural log; caller guarantees strictly positive input."""
    return _emit("log", np.log(a.data), [a], lambda g: (g / a.data,))


def sqrt(a: Tensor) -> Tensor:
    """Caller guarantees input > 0 wherever gradients matter."""
    out = np.sqrt(a.data)
    return _emit("sqrt", out, [a], lambda g: (g * (0.5 / out),))


def square(a: Tensor) -> Tensor:
    return _emit("square", a.data * a.data, [a],
                 lambda g: (g * (2.0 * a.data),))


def absolute(a: Tensor) -> Tensor:
    # subgradient 0 at exactly 0
    return _emit("abs", np.abs(a.data), [a],
                 lambda g: (g * np.sign(a.data),))


def tanh_kernel(x: np.ndarray):
    """(tanh(x), its vjp) in plain numpy; the tanh primitive wraps it."""
    out = np.tanh(x)
    return out, lambda g: g * (1.0 - out * out)


def tanh(a: Tensor) -> Tensor:
    out, vjp = tanh_kernel(a.data)
    return _emit("tanh", out, [a], lambda g: (vjp(g),))


def sigmoid(a: Tensor) -> Tensor:
    # split by sign so neither branch exponentiates a large positive value
    x = a.data
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return _emit("sigmoid", out, [a], lambda g: (g * out * (1.0 - out),))


def relu(a: Tensor) -> Tensor:
    """max(a, 0) elementwise, in a's layout; a NaN passes through."""
    out = np.maximum(a.data, 0.0)
    # the mask is taken from the output, which a caller usually keeps, only
    # when the backward runs
    return _emit("relu", out, [a], lambda g: (g * (out > 0),))


# ---------------------------------------------------------------------------
# reductions

def _reduce_out(data: np.ndarray) -> np.ndarray:
    # full reductions collapse to the (1,) scalar convention
    return data.reshape(1) if data.ndim == 0 else data


def sum_(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    out = _reduce_out(a.data.sum(axis=axes, keepdims=keepdims))

    def vjp(g):
        gk = g if keepdims else np.expand_dims(g.reshape(
            tuple(d for i, d in enumerate(a.shape) if i not in axes)), axes)
        return (np.broadcast_to(gk, a.shape).copy(),)

    return _emit("sum", out, [a], vjp)


def mean(a: Tensor, axis=None, keepdims: bool = False) -> Tensor:
    axes = _norm_axes(axis, a.data.ndim)
    count = int(np.prod([a.shape[i] for i in axes]))
    out = _reduce_out(a.data.mean(axis=axes, keepdims=keepdims))

    def vjp(g):
        gk = g if keepdims else np.expand_dims(g.reshape(
            tuple(d for i, d in enumerate(a.shape) if i not in axes)), axes)
        return (np.broadcast_to(gk, a.shape) / count,)

    return _emit("mean", out, [a], vjp)


# ---------------------------------------------------------------------------
# shape primitives

def reshape(a: Tensor, shape) -> Tensor:
    shape = _check_shape(shape)
    if int(np.prod(shape)) != a.size:
        raise ShapeError(f"reshape: cannot view {list(a.shape)} as "
                         f"{list(shape)}")
    return _emit("reshape", a.data.reshape(shape), [a],
                 lambda g: (g.reshape(a.shape),))


def transpose(a: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    if sorted(axes) != list(range(a.data.ndim)):
        raise ShapeError(f"transpose: axes {list(axes)} do not permute rank "
                         f"{a.data.ndim}")
    inv = tuple(np.argsort(axes))
    return _emit("transpose", a.data.transpose(axes), [a],
                 lambda g: (g.transpose(inv),))


def slice_(a: Tensor, key: Sequence[slice]) -> Tensor:
    """Basic slicing (non-negative start/stop/step); gradient scatters back."""
    key = tuple(key)

    def vjp(g):
        full_g = np.zeros(a.shape)
        full_g[key] = g
        return (full_g,)

    out = a.data[key]
    if out.ndim == 0:
        raise ShapeError("slice: integer indexing would drop rank; use "
                         "length-1 slices")
    return _emit("slice", out.copy(), [a], vjp)


# ---------------------------------------------------------------------------
# linear algebra and normalizers

def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul: need rank >= 2, got {list(a.shape)} and "
                         f"{list(b.shape)}")
    if a.data.ndim != b.data.ndim:
        raise ShapeError(f"matmul: incompatible shapes {list(a.shape)} and "
                         f"{list(b.shape)} (rank promotion is not allowed)")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul: incompatible shapes {list(a.shape)} and "
                         f"{list(b.shape)}")
    _broadcast_check("matmul", a.shape[:-2], b.shape[:-2])
    out = np.matmul(a.data, b.data)

    def vjp(g):
        ga = np.matmul(g, np.swapaxes(b.data, -1, -2))
        gb = np.matmul(np.swapaxes(a.data, -1, -2), g)
        return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

    return _emit("matmul", out, [a, b], vjp)


def softmax_kernel(x: np.ndarray, axis: int):
    """(softmax of x along axis, its vjp) in plain numpy; the softmax
    primitive wraps it."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    out = e / e.sum(axis=axis, keepdims=True)
    return out, lambda g: out * (g - (g * out).sum(axis=axis, keepdims=True))


def softmax(a: Tensor, axis: int) -> Tensor:
    out, vjp = softmax_kernel(a.data, axis % a.data.ndim)
    return _emit("softmax", out, [a], lambda g: (vjp(g),))


def l2norm(a: Tensor, axis: int, eps: float = 1e-12) -> Tensor:
    """Unit-normalize along axis; eps keeps the zero vector finite."""
    axis = axis % a.data.ndim
    n = np.sqrt((a.data * a.data).sum(axis=axis, keepdims=True) + eps)
    out = a.data / n

    def vjp(g):
        dot = (g * out).sum(axis=axis, keepdims=True)
        return ((g - out * dot) / n,)

    return _emit("l2norm", out, [a], vjp)


# ---------------------------------------------------------------------------
# finite-difference gradient checking

def grad_check(f: Callable[..., Tensor], xs, eps: float = 1e-5) -> float:
    """Max relative error between reverse-mode and central finite differences.

    f maps the tensors in xs (a Tensor or list of Tensors) to a scalar and
    must be deterministic; freeze any stochastic masks before calling.
    Error per component is |g_ad - g_fd| / max(1, |g_ad|, |g_fd|).
    """
    if not 1e-7 <= eps <= 1e-3:
        raise ValueError(f"eps must be in [1e-7, 1e-3], got {eps}")
    single = isinstance(xs, Tensor)
    tensors = [xs] if single else list(xs)
    for t in tensors:
        t.requires_grad = True

    with Graph():
        loss = f(xs) if single else f(*tensors)
        if loss.shape != (1,):
            raise ShapeError("grad_check: f must return a scalar of shape [1]")
        backward(loss)
    ad_grads = [t.grad.copy() if t.grad is not None else np.zeros_like(t.data)
                for t in tensors]

    def eval_loss() -> float:
        out = f(xs) if single else f(*tensors)
        return out.item()

    worst = 0.0
    for t, g_ad in zip(tensors, ad_grads):
        # by index: a reshape of a non-C-contiguous array would be a copy
        for i in np.ndindex(t.data.shape):
            saved = t.data[i]
            t.data[i] = saved + eps
            fp = eval_loss()
            t.data[i] = saved - eps
            fm = eval_loss()
            t.data[i] = saved
            g_fd = (fp - fm) / (2.0 * eps)
            denom = max(1.0, abs(g_ad[i]), abs(g_fd))
            worst = max(worst, abs(g_ad[i] - g_fd) / denom)
    return worst
