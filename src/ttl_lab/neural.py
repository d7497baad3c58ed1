"""Dense ReLU network with hand-written backprop and Adam.

Everything is float64. Layers compute x @ W + b with W shaped (fan_in, fan_out);
hidden layers apply ReLU, the output layer is linear. No framework on purpose:
the gradient path has to be auditable against finite differences.

A network's parameters are one flat vector: for each layer in order, its
weight matrix in row-major order, then its bias. Gradients and Adam's moments
use the same layout, so each is one array. A stack of k networks with the
same dims is one (k, P) array, one network per row; its layer weights are
(k, fan_in, fan_out) views, so one matmul runs a layer of every network, with
the same per-matrix arithmetic as k separate calls. The NAF agent keeps its
online and target networks this way, as rows 0 and 1.

Who owns the buffers: forward, backward and adam_step allocate no arrays.
The caller builds a Workspace once for its dims and batch shape and passes it
on every call; forward and backward write into it and return views of it,
which the next call overwrites. AdamState owns Adam's moments and its scratch
arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _param_count(dims: tuple[int, ...]) -> int:
    return sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))


def _layer_views(dims: tuple[int, ...], vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into a flat vector laid out for dims,
    or into a (k, P) stack of them; a stack's biases get a row axis, to
    broadcast over each network's batch."""
    stack = vec.shape[:-1]
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(vec[..., pos : pos + fan_in * fan_out].reshape(*stack, fan_in, fan_out))
        pos += fan_in * fan_out
        bias = vec[..., pos : pos + fan_out]
        biases.append(bias[..., None, :] if stack else bias)
        pos += fan_out
    if pos != vec.shape[-1]:
        raise ValueError(f"{vec.shape[-1]} params, but dims {dims} need {pos}")
    return weights, biases


class Mlp:
    """A network over one flat float64 params vector, or a stack of networks
    over a (k, P) params array; weights and biases are views into it, so
    writing either writes params."""

    def __init__(self, dims: tuple[int, ...], params: np.ndarray):
        self.dims = tuple(dims)
        self.params = np.asarray(params, dtype=np.float64)
        self.weights, self.biases = _layer_views(self.dims, self.params)


def init_mlp(dims: tuple[int, ...], rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad layer dims {dims}")
    net = Mlp(dims, np.zeros(_param_count(dims)))
    for w in net.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


class Workspace:
    """Buffers for forward and backward at one batch shape.

    batch is (n,) for one network, or (k, n) for a stack of k networks that
    each read their own n-row batch. acts[i] holds the output of layer i;
    backward differentiates the first network of a stack only.
    """

    def __init__(self, dims: tuple[int, ...], batch: tuple[int, ...]):
        self.in_shape = (*batch, dims[0])
        self.x: np.ndarray | None = None  # the last forward's input
        self.acts = [np.empty((*batch, d)) for d in dims[1:]]
        self._stacked = len(batch) == 2
        n = batch[-1]
        # Each layer's output rows for the network backward differentiates.
        self.outs = [a[0] for a in self.acts] if self._stacked else self.acts
        self._deltas = [np.empty((n, d)) for d in dims[1:-1]]
        self._masks = [np.empty((n, d)) for d in dims[1:-1]]
        self.grad = np.empty(_param_count(dims))
        self._dws, self._dbs = _layer_views(dims, self.grad)


def forward(net: Mlp, x: np.ndarray, ws: Workspace) -> np.ndarray:
    """Run the network on a batch x of shape (n, dims[0]), one row per sample,
    or a stack of networks on x shaped (k, n, dims[0]); returns the output,
    ws.acts[-1]. ws keeps x and each layer's output for backward."""
    if x.shape != ws.in_shape:
        raise ValueError(f"input shape: need {ws.in_shape}, got {x.shape}")
    ws.x = x
    h = x
    last = len(net.weights) - 1
    for i, (w, b, z) in enumerate(zip(net.weights, net.biases, ws.acts)):
        np.matmul(h, w, out=z)
        z += b
        if i < last:
            np.maximum(z, 0.0, out=z)
        h = z
    return h


def backward(net: Mlp, ws: Workspace, dout: np.ndarray) -> np.ndarray:
    """Backprop dout, the (n, dims[-1]) gradient w.r.t. the output of the
    last forward run in ws (of its first network, for a stack).

    Returns the gradient as a flat vector in the layout of net.params: ws.grad,
    which the next call overwrites. Batch gradients are summed, so scale dout
    by 1/N upstream for a mean loss.
    """
    x = ws.x[0] if ws._stacked else ws.x
    inputs = [x, *ws.outs[:-1]]
    delta = dout
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        if i < last:
            # outs[i] holds the post-ReLU activation of layer i.
            mask = np.greater(ws.outs[i], 0.0, out=ws._masks[i])
            delta *= mask
        np.matmul(inputs[i].T, delta, out=ws._dws[i])
        np.add.reduce(delta, 0, None, ws._dbs[i])
        if i > 0:
            delta = np.matmul(delta, net.weights[i].T, out=ws._deltas[i - 1])
    return ws.grad


@dataclass
class AdamState:
    """Adam's step count and moments for `size` parameters, with the scratch
    arrays of its update."""

    size: int
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray = field(init=False, repr=False)
    v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.m = np.zeros(self.size)
        self.v = np.zeros(self.size)
        self._num = np.empty(self.size)
        self._den = np.empty(self.size)


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState, lr: float, clip: float = 0.0) -> None:
    """One Adam update in place. With clip > 0 each gradient element is first
    clipped to [-clip, clip], in grad itself, before the moment updates."""
    if grad.shape != net.params.shape:
        raise ValueError(f"gradient has shape {grad.shape}, params {net.params.shape}")
    if clip > 0.0:
        np.minimum(grad, clip, out=grad)
        np.maximum(grad, -clip, out=grad)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v, num, den = state.m, state.v, state._num, state._den
    # m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g and
    # params -= lr * (m / c1) / (sqrt(v / c2) + eps), one operation at a time
    # in left-to-right order, so the bits equal the plain expressions'.
    m *= b1
    m += np.multiply(grad, 1.0 - b1, out=num)
    v *= b2
    np.multiply(grad, 1.0 - b2, out=num)
    num *= grad
    v += num
    np.divide(m, 1.0 - b1**state.t, out=num)
    num *= lr
    np.divide(v, 1.0 - b2**state.t, out=den)
    np.sqrt(den, out=den)
    den += state.eps
    num /= den
    net.params -= num
