"""Dense ReLU network with hand-written backprop and Adam.

Everything is float64. Layers compute x @ W + b with W shaped (fan_in, fan_out);
hidden layers apply ReLU, the output layer is linear. No framework on purpose:
the gradient path has to be auditable against finite differences.

A network's parameters are one flat vector: for each layer in order, its
weight matrix in row-major order, then its bias. Gradients and Adam's moments
use the same layout, so each is one array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _layer_views(dims: tuple[int, ...], vec: np.ndarray) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer (weights, biases) views into a flat vector laid out for dims."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(vec[pos : pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(vec[pos : pos + fan_out])
        pos += fan_out
    if pos != len(vec):
        raise ValueError(f"{len(vec)} params, but dims {dims} need {pos}")
    return weights, biases


class Mlp:
    """A network over one flat float64 params vector; weights and biases are
    views into it, so writing either writes params."""

    def __init__(self, dims: tuple[int, ...], params: np.ndarray):
        self.dims = tuple(dims)
        self.params = np.asarray(params, dtype=np.float64)
        self.weights, self.biases = _layer_views(self.dims, self.params)

    def copy(self) -> "Mlp":
        return Mlp(self.dims, self.params.copy())


def init_mlp(dims: tuple[int, ...], rng: np.random.Generator) -> Mlp:
    """Glorot-uniform weights, zero biases."""
    if len(dims) < 2 or any(d < 1 for d in dims):
        raise ValueError(f"bad layer dims {dims}")
    n = sum(fan_in * fan_out + fan_out for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    net = Mlp(dims, np.zeros(n))
    for w in net.weights:
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        w[...] = rng.uniform(-bound, bound, size=w.shape)
    return net


def forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run the network on a batch x of shape (n, dims[0]), one row per sample;
    returns (output, cache) where cache holds each layer input."""
    if x.ndim != 2 or x.shape[1] != net.dims[0]:
        raise ValueError(f"input width: need shape (n, {net.dims[0]}), got {x.shape}")
    cache = [x]
    h = x
    last = len(net.weights) - 1
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < last:
            h = np.maximum(h, 0.0)
        cache.append(h)
    return h, cache


def backward(net: Mlp, cache: list[np.ndarray], dout: np.ndarray) -> np.ndarray:
    """Backprop dout, the (n, dims[-1]) gradient w.r.t. the network output,
    through the cache.

    Returns the gradient as a flat vector in the layout of net.params. Batch
    gradients are summed, so scale dout by 1/N upstream for a mean loss.
    """
    delta = dout
    grad = np.empty_like(net.params)
    dws, dbs = _layer_views(net.dims, grad)
    for i in range(len(net.weights) - 1, -1, -1):
        if i < len(net.weights) - 1:
            # cache[i+1] holds the post-ReLU activation of layer i.
            delta = delta * (cache[i + 1] > 0.0)
        dws[i][...] = cache[i].T @ delta
        dbs[i][...] = delta.sum(axis=0)
        if i > 0:
            delta = delta @ net.weights[i].T
    return grad


@dataclass
class AdamState:
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None


def adam_step(net: Mlp, grad: np.ndarray, state: AdamState, lr: float, clip: float = 0.0) -> None:
    """One Adam update in place. With clip > 0 each gradient element is first
    clipped to [-clip, clip], before the moment updates."""
    if grad.shape != net.params.shape:
        raise ValueError(f"gradient has shape {grad.shape}, params {net.params.shape}")
    if state.m is None:
        state.m = np.zeros_like(net.params)
        state.v = np.zeros_like(net.params)
    if clip > 0.0:
        grad = np.clip(grad, -clip, clip)
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    net.params -= lr * (m / (1.0 - b1**state.t)) / (np.sqrt(v / (1.0 - b2**state.t)) + state.eps)
