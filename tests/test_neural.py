"""MLP parameter layout, forward/backward, Adam and gradient clipping."""

from __future__ import annotations

import numpy as np
import pytest

from ttl_lab.nafagent import HEAD_WIDTH, naf_head
from ttl_lab.neural import AdamState, Mlp, Workspace, adam_step, backward, forward, init_mlp


def _reference_forward(net: Mlp, x: np.ndarray) -> np.ndarray:
    """Plain-loop reimplementation used as the oracle."""
    h = np.array(x, dtype=np.float64)
    for i, (w, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ w + b
        if i < len(net.weights) - 1:
            h = np.where(h > 0.0, h, 0.0)
    return h


def _forward(net: Mlp, x: np.ndarray) -> tuple[np.ndarray, Workspace]:
    """forward on a fresh workspace sized for x; returns (output, workspace)."""
    ws = Workspace(net.dims, x.shape[:-1])
    return forward(net, x, ws), ws


# ---------------------------------------------------------------------------
# structure


def test_dims_and_copy_independence():
    net = init_mlp((3, 5, 2), np.random.default_rng(0))
    assert net.dims == (3, 5, 2)
    twin = Mlp(net.dims, net.params.copy())  # a net over a copy of the params
    twin.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != twin.weights[0][0, 0]


def test_flat_load_flat_roundtrip():
    net = init_mlp((4, 6, 3), np.random.default_rng(1))
    vec = net.params
    assert vec.size == 4 * 6 + 6 + 6 * 3 + 3
    # each layer's row-major weight, then its bias
    expect = np.concatenate([np.r_[w.ravel(), b] for w, b in zip(net.weights, net.biases)])
    assert np.array_equal(vec, expect)
    other = init_mlp((4, 6, 3), np.random.default_rng(2))
    np.copyto(other.params, vec)
    assert np.array_equal(other.params, vec)
    x = np.random.default_rng(3).normal(size=(2, 4))
    assert np.array_equal(_forward(other, x)[0], _forward(net, x)[0])


def test_weights_and_biases_are_views_of_params():
    net = Mlp((2, 3, 1), np.arange(13, dtype=np.float64))
    assert net.weights[0].tolist() == [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]
    assert net.biases[0].tolist() == [6.0, 7.0, 8.0]
    assert net.weights[1].tolist() == [[9.0], [10.0], [11.0]]
    assert net.biases[1].tolist() == [12.0]
    net.weights[1][2, 0] = -1.0
    net.biases[0][1] = -2.0
    assert net.params[11] == -1.0 and net.params[7] == -2.0
    net.params[0] = 100.0
    assert net.weights[0][0, 0] == 100.0
    twin = Mlp(net.dims, net.params.copy())
    twin.params[:] = 0.0
    assert net.params[0] == 100.0 and net.biases[1][0] == 12.0
    assert twin.weights[0][0, 0] == 0.0  # the twin's views follow its own params
    for n in (12, 14):
        with pytest.raises(ValueError, match="params"):
            Mlp((2, 3, 1), np.zeros(n))


def test_init_mlp_glorot_bounds_and_zero_biases():
    net = init_mlp((10, 20, 5), np.random.default_rng(3))
    for w, b in zip(net.weights, net.biases):
        bound = np.sqrt(6.0 / (w.shape[0] + w.shape[1]))
        assert np.all(np.abs(w) <= bound)
        assert np.all(b == 0.0)


def test_init_mlp_rejects_bad_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="dims"):
        init_mlp((5,), rng)
    with pytest.raises(ValueError, match="dims"):
        init_mlp((5, 0, 3), rng)


# ---------------------------------------------------------------------------
# forward


def test_forward_matches_reference_loop():
    rng = np.random.default_rng(4)
    net = init_mlp((6, 9, 9, 4), rng)
    x = rng.normal(size=(12, 6))
    out, _ = _forward(net, x)
    assert np.allclose(out, _reference_forward(net, x), atol=1e-14, rtol=0.0)


def test_stacked_forward_is_each_networks_forward():
    # A (k, P) params array is k networks; one forward on a (k, n, d) batch
    # gives each network's output on its own rows, bit for bit.
    rng = np.random.default_rng(11)
    nets = [init_mlp((6, 9, 9, 4), rng) for _ in range(3)]
    stack = Mlp((6, 9, 9, 4), np.stack([net.params for net in nets]))
    assert stack.weights[1].shape == (3, 9, 9) and stack.biases[1].shape == (3, 1, 9)
    x = rng.normal(size=(3, 10, 6))
    out, ws = _forward(stack, x)
    assert out.shape == (3, 10, 4)
    for k, net in enumerate(nets):
        assert np.array_equal(out[k], _forward(net, x[k])[0])
    # backward differentiates the first network of the stack
    dout = rng.normal(size=(10, 4))
    single = Workspace(nets[0].dims, (10,))
    forward(nets[0], x[0], single)
    assert np.array_equal(backward(nets[0], ws, dout), backward(nets[0], single, dout))


def test_forward_single_sample_matches_batch_row():
    # One state goes through forward as a batch of one row, via naf_head.
    rng = np.random.default_rng(5)
    net = init_mlp((5, 7, HEAD_WIDTH), rng)
    x = rng.normal(size=(4, 5))
    batch_out, _ = _forward(net, x)
    ws = Workspace(net.dims, (1,))
    for i in range(4):
        # BLAS may order the sums differently for one row and a batch
        np.testing.assert_allclose(naf_head(net, x[i], ws), batch_out[i], rtol=1e-13, atol=0.0)


def test_forward_hand_computed_example():
    # One hidden unit, all weights explicit; ReLU kills the negative path.
    # layout: W0 (2x1) = [1, -2], b0 = 0.5, W1 (1x1) = 3, b1 = -1
    net = Mlp((2, 1, 1), np.array([1.0, -2.0, 0.5, 3.0, -1.0]))
    ws = Workspace(net.dims, (1,))
    out = forward(net, np.array([[1.0, 1.0]]), ws)  # pre-act -0.5 -> ReLU 0
    assert out[0, 0] == pytest.approx(-1.0)
    out = forward(net, np.array([[2.0, 0.0]]), ws)  # pre-act 2.5 -> 3*2.5 - 1
    assert out[0, 0] == pytest.approx(6.5)
    assert len(ws.acts) == 2  # hidden activation, output
    assert out is ws.acts[-1] and ws.acts[0].tolist() == [[2.5]]


def test_forward_rejects_wrong_width():
    net = init_mlp((4, 3, 2), np.random.default_rng(6))
    ws = Workspace(net.dims, (2,))
    with pytest.raises(ValueError, match="input shape"):
        forward(net, np.zeros((2, 5)), ws)
    with pytest.raises(ValueError, match="input shape"):
        forward(net, np.zeros(5), ws)
    # A single state of the right width is not a batch either.
    with pytest.raises(ValueError, match="input shape"):
        forward(net, np.zeros(4), ws)
    # The workspace fixes the batch size too.
    with pytest.raises(ValueError, match="input shape"):
        forward(net, np.zeros((3, 4)), ws)


# ---------------------------------------------------------------------------
# backward


def test_backward_matches_finite_differences():
    # Loss = 0.5 * sum((out - y)^2) summed over the batch, so dout = out - y.
    rng = np.random.default_rng(7)
    net = init_mlp((3, 8, 2), rng)
    x = rng.normal(size=(5, 3))
    y = rng.normal(size=(5, 2))

    out, ws = _forward(net, x)
    flat_g = backward(net, ws, out - y).copy()

    params = net.params
    eps = 1e-6
    num = np.empty_like(params)
    for i in range(params.size):
        base = params[i]
        params[i] = base + eps
        f_plus = 0.5 * float(((forward(net, x, ws) - y) ** 2).sum())
        params[i] = base - eps
        f_minus = 0.5 * float(((forward(net, x, ws) - y) ** 2).sum())
        params[i] = base
        num[i] = (f_plus - f_minus) / (2 * eps)

    denom = np.maximum(np.abs(flat_g) + np.abs(num), 1e-8)
    assert float(np.max(np.abs(flat_g - num) / denom)) < 1e-6


def test_backward_dead_relu_gets_zero_gradient():
    # Drive the single hidden unit negative: its incoming weights get no signal.
    # layout: W0 = 1, b0 = -5, W1 = 2, b1 = 0
    net = Mlp((1, 1, 1), np.array([1.0, -5.0, 2.0, 0.0]))
    _, ws = _forward(net, np.array([[1.0]]))
    grad = backward(net, ws, np.array([[1.0]]))
    assert grad[0] == 0.0  # W0
    assert grad[1] == 0.0  # b0
    assert grad[2] == 0.0  # W1: its layer input (post-ReLU) is 0
    assert grad[3] == 1.0  # b1: the output bias still sees dout


def test_backward_sums_over_batch():
    rng = np.random.default_rng(8)
    net = init_mlp((3, 4, 2), rng)
    x = rng.normal(size=(6, 3))
    dout = rng.normal(size=(6, 2))
    _, ws = _forward(net, x)
    full = backward(net, ws, dout)
    acc = np.zeros_like(full)
    for i in range(6):
        _, wi = _forward(net, x[i : i + 1])
        acc += backward(net, wi, dout[i : i + 1])
    assert np.allclose(full, acc, atol=1e-12)


# ---------------------------------------------------------------------------
# clipping and Adam


def _moment_sees(grad, clip):
    """The gradient Adam's first moment saw in one step from zero: that moment
    is exactly (1 - beta1) times it."""
    net = Mlp((1, 2), np.zeros(4))
    state = AdamState(4)
    adam_step(net, np.array(grad), state, lr=0.1, clip=clip)
    return state.m


def test_clip_element_mode():
    expect = (1.0 - AdamState.beta1) * np.array([1.0, -0.2, 1.0, -1.0])
    assert np.array_equal(_moment_sees([5.0, -0.2, 40.0, -1e9], clip=1.0), expect)


def test_clip_disabled_and_unknown_mode():
    grad = [9.0, -9.0, 1e9, 0.5]
    assert np.array_equal(_moment_sees(grad, clip=0.0), (1.0 - AdamState.beta1) * np.array(grad))


def _reference_adam(params, m, v, g, t, lr, clip, b1=0.9, b2=0.999, eps=1e-8):
    """Adam one parameter array at a time, as a per-layer implementation would."""
    g = np.clip(g, -clip, clip)
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    params -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + eps)


def test_adam_step_matches_reference_update():
    rng = np.random.default_rng(9)
    net = init_mlp((2, 3, 1), rng)
    ref = [p.copy() for pair in zip(net.weights, net.biases) for p in pair]
    ms = [np.zeros_like(p) for p in ref]
    vs = [np.zeros_like(p) for p in ref]
    state = AdamState(net.params.size)
    lr, clip = 0.01, 1.5
    clipped = 0

    for t in range(1, 251):
        grad = rng.normal(size=net.params.size)
        clipped += int((np.abs(grad) > clip).sum())
        adam_step(net, grad.copy(), state, lr, clip)  # it clips its argument in place
        pos = 0
        for p, m, v in zip(ref, ms, vs):
            g = grad[pos : pos + p.size].reshape(p.shape)
            pos += p.size
            _reference_adam(p, m, v, g, t, lr, clip)
        flat_ref = np.concatenate([p.ravel() for p in ref])
        assert np.array_equal(net.params, flat_ref), f"step {t}"
    assert state.t == 250
    assert clipped > 100  # the clip was exercised


def test_adam_step_applies_clip_before_moments():
    net = Mlp((1, 1), np.zeros(2))
    state = AdamState(2)
    grad = np.array([1000.0, 1000.0])
    adam_step(net, grad, state, lr=0.1, clip=1.0)
    assert grad.tolist() == [1.0, 1.0]  # clipped in place
    # with g clipped to 1: m/bc1 = 1, v/bc2 = 1 -> step = lr * 1/(1+eps)
    assert net.weights[0][0, 0] == pytest.approx(-0.1, rel=1e-6)
    assert state.m[0] == pytest.approx(0.1)  # moments saw the clipped value


def test_adam_step_rejects_layer_mismatch():
    net = init_mlp((2, 2), np.random.default_rng(10))
    with pytest.raises(ValueError, match="gradient"):
        adam_step(net, np.zeros(net.params.size + 1), AdamState(net.params.size), 0.01)
