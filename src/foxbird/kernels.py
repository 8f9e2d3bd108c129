"""Forward-only neural kernels: attention, recurrent steps, activations,
graph blocks, a transformer encoder layer, and straight-through
Gumbel-Softmax sampling.

Everything here is a pure function over numpy arrays; no training, no
gradients. Matrices are dense row-major 2-D arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import make_rng

__all__ = [
    "AttentionWeights",
    "GruWeights",
    "LstmWeights",
    "GnnWeights",
    "softmax_rows",
    "attention",
    "multi_head_attention",
    "gru_step",
    "sigmoid",
    "gelu",
    "relu",
    "leaky_relu",
    "lstm_step",
    "bilstm_step",
    "gnn_block",
    "gnn_forward",
    "encoder_layer",
    "gumbel_softmax_st",
]


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=float)))


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax, stabilized by subtracting each row's max."""
    m = np.asarray(m, dtype=float)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite input to softmax")
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def attention(qu: np.ndarray, ke: np.ndarray, va: np.ndarray) -> np.ndarray:
    """Scaled dot-product attention: softmax(qu @ ke.T / sqrt(d_ke)) @ va."""
    qu = np.atleast_2d(np.asarray(qu, dtype=float))
    ke = np.atleast_2d(np.asarray(ke, dtype=float))
    va = np.atleast_2d(np.asarray(va, dtype=float))
    if qu.shape[1] != ke.shape[1]:
        raise ValueError(f"query/key dim mismatch: {qu.shape[1]} vs {ke.shape[1]}")
    if ke.shape[0] != va.shape[0]:
        raise ValueError(f"key/value row mismatch: {ke.shape[0]} vs {va.shape[0]}")
    d_ke = ke.shape[1]
    scores = qu @ ke.T / math.sqrt(d_ke)
    return softmax_rows(scores) @ va


@dataclass
class AttentionWeights:
    """Per-head projections (each d x d/p) plus the output matrix (d x d)."""

    wq: list  # p matrices, d x d/p
    wk: list
    wv: list
    wo: np.ndarray  # d x d

    @property
    def heads(self) -> int:
        return len(self.wq)

    @classmethod
    def identity(cls, d: int) -> "AttentionWeights":
        eye = np.eye(d)
        return cls([eye.copy()], [eye.copy()], [eye.copy()], eye.copy())

    @classmethod
    def random(cls, d: int, p: int, rng, scale: float = 0.5) -> "AttentionWeights":
        if d % p != 0:
            raise ValueError(f"model dim {d} not divisible by head count {p}")
        rng = make_rng(rng)
        dk = d // p
        mk = lambda: scale * rng.standard_normal((d, dk))
        return cls([mk() for _ in range(p)], [mk() for _ in range(p)],
                   [mk() for _ in range(p)], scale * rng.standard_normal((d, d)))


def multi_head_attention(x: np.ndarray, w: AttentionWeights) -> np.ndarray:
    """Concatenated per-head attention on x (self-attention), times wo."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    d = x.shape[1]
    if w.wo.shape[0] != w.heads * w.wq[0].shape[1]:
        raise ValueError("output matrix rows must equal concatenated head width")
    heads = [attention(x @ w.wq[i], x @ w.wk[i], x @ w.wv[i]) for i in range(w.heads)]
    return np.concatenate(heads, axis=1) @ w.wo


@dataclass
class GruWeights:
    """Reset/update/candidate weights; each bias defaults to the scalar 0.0,
    which broadcasts over the hidden units."""

    G_r: np.ndarray
    W_r: np.ndarray
    G_z: np.ndarray
    W_z: np.ndarray
    G_h: np.ndarray
    W: np.ndarray
    b_r: np.ndarray | float = 0.0
    b_z: np.ndarray | float = 0.0
    b_h: np.ndarray | float = 0.0

    @classmethod
    def zeros(cls, n_in: int, n_hidden: int) -> "GruWeights":
        return cls(np.zeros((n_hidden, n_in)), np.zeros((n_hidden, n_hidden)),
                   np.zeros((n_hidden, n_in)), np.zeros((n_hidden, n_hidden)),
                   np.zeros((n_hidden, n_in)), np.zeros((n_hidden, n_hidden)))


def gru_step(x_t: np.ndarray, h_prev: np.ndarray, w: GruWeights) -> np.ndarray:
    """One GRU step: h = (1 - z) * h_prev + z * tanh(G_h x + W(r * h_prev))."""
    x_t = np.asarray(x_t, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    r = sigmoid(w.G_r @ x_t + w.W_r @ h_prev + w.b_r)
    z = sigmoid(w.G_z @ x_t + w.W_z @ h_prev + w.b_z)
    h_tilde = np.tanh(w.G_h @ x_t + w.W @ (r * h_prev) + w.b_h)
    return (1 - z) * h_prev + z * h_tilde


def gelu(a):
    """Gaussian error linear unit, exact erf form: 0.5 a (1 + erf(a / sqrt 2)).

    Uses numpy/math erf (abs error well below 1e-7)."""
    a = np.asarray(a, dtype=float)
    erf = np.vectorize(math.erf, otypes=[float])(a / math.sqrt(2.0))
    out = 0.5 * a * (1.0 + erf)
    return float(out) if out.ndim == 0 else out


def relu(a):
    a = np.asarray(a, dtype=float)
    out = np.maximum(0.0, a)
    return float(out) if out.ndim == 0 else out


def leaky_relu(a, slope: float = 0.01):
    if not 0 < slope < 1:
        raise ValueError(f"slope must be in (0, 1), got {slope}")
    a = np.asarray(a, dtype=float)
    out = np.maximum(slope * a, a)
    return float(out) if out.ndim == 0 else out


@dataclass
class LstmWeights:
    """Gate weights with peephole terms on the previous cell state."""

    WE_xf: np.ndarray
    WE_hf: np.ndarray
    WE_gf: np.ndarray
    de_f: np.ndarray
    WE_xi: np.ndarray
    WE_hi: np.ndarray
    WE_gi: np.ndarray
    de_i: np.ndarray
    WE_xo: np.ndarray
    WE_ho: np.ndarray
    WE_go: np.ndarray
    de_o: np.ndarray
    WE_xm: np.ndarray
    WE_xh: np.ndarray
    de_g: np.ndarray

    @classmethod
    def zeros(cls, n_in: int, n_hidden: int) -> "LstmWeights":
        zi = lambda: np.zeros((n_hidden, n_in))
        zh = lambda: np.zeros((n_hidden, n_hidden))
        zb = lambda: np.zeros(n_hidden)
        return cls(zi(), zh(), zh(), zb(), zi(), zh(), zh(), zb(),
                   zi(), zh(), zh(), zb(), zi(), zh(), zb())


def lstm_step(x_t, h_prev, s_prev, w: LstmWeights):
    """One LSTM step with peephole gates; returns (h, s)."""
    x_t = np.asarray(x_t, dtype=float)
    h_prev = np.asarray(h_prev, dtype=float)
    s_prev = np.asarray(s_prev, dtype=float)
    f = sigmoid(w.WE_xf @ x_t + w.WE_hf @ h_prev + w.WE_gf @ s_prev + w.de_f)
    i = sigmoid(w.WE_xi @ x_t + w.WE_hi @ h_prev + w.WE_gi @ s_prev + w.de_i)
    o = sigmoid(w.WE_xo @ x_t + w.WE_ho @ h_prev + w.WE_go @ s_prev + w.de_o)
    s_cand = np.tanh(w.WE_xm @ x_t + w.WE_xh @ h_prev + w.de_g)
    s = f * s_prev + i * s_cand
    h = o * np.tanh(s)
    return h, s


def bilstm_step(x_t, h_fwd_prev, s_fwd_prev, h_bwd_prev, s_bwd_prev,
                w_fwd: LstmWeights, w_bwd: LstmWeights):
    """One step of both directions; returns (h_fwd, s_fwd, h_bwd, s_bwd,
    h_concat) with concatenation order (forward, backward)."""
    h_f, s_f = lstm_step(x_t, h_fwd_prev, s_fwd_prev, w_fwd)
    h_b, s_b = lstm_step(x_t, h_bwd_prev, s_bwd_prev, w_bwd)
    return h_f, s_f, h_b, s_b, np.concatenate([h_f, h_b])


@dataclass
class GnnWeights:
    """Combine-step parameters: one affine map followed by leaky ReLU."""

    weight: np.ndarray  # e_in x e_out
    bias: np.ndarray  # e_out
    slope: float = 0.01


def gnn_block(adj: np.ndarray, d_prev: np.ndarray, w: GnnWeights) -> np.ndarray:
    """Aggregate (adj @ d_prev) then combine (affine + leaky ReLU per node).

    adj should already include self-connections."""
    adj = np.asarray(adj, dtype=float)
    d_prev = np.asarray(d_prev, dtype=float)
    if adj.shape[0] != adj.shape[1]:
        raise ValueError("adjacency must be square")
    if adj.shape[1] != d_prev.shape[0]:
        raise ValueError("adjacency and node features disagree on node count")
    g = adj @ d_prev
    return leaky_relu(g @ w.weight + w.bias, w.slope)


def gnn_forward(adj, d0, blocks, readout: str = "mean") -> np.ndarray:
    """Stacked blocks from d0, then a row-wise mean or sum readout."""
    if readout not in ("mean", "sum"):
        raise ValueError(f"readout must be 'mean' or 'sum', got {readout!r}")
    d = np.asarray(d0, dtype=float)
    for w in blocks:
        d = gnn_block(adj, d, w)
    return d.mean(axis=0) if readout == "mean" else d.sum(axis=0)


def encoder_layer(x: np.ndarray, attn: AttentionWeights,
                  w1: np.ndarray, b1: np.ndarray,
                  w2: np.ndarray, b2: np.ndarray) -> np.ndarray:
    """Transformer encoder layer: residual self-attention, then a residual
    per-position feed-forward with GELU."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = x + multi_head_attention(x, attn)
    return y + gelu(y @ w1 + b1) @ w2 + b2


def gumbel_softmax_st(logits, tau: float, rng):
    """Straight-through Gumbel-Softmax sample.

    Returns (soft, hard), both along the last axis: soft is
    softmax((logits + gumbel)/tau), hard is one-hot at soft's argmax (ties
    break to the lowest index).
    """
    if tau <= 0:
        raise ValueError(f"tau must be > 0, got {tau}")
    rng = make_rng(rng)
    logits = np.asarray(logits, dtype=float)
    u = rng.random(logits.shape)
    g = -np.log(-np.log(u))
    soft = softmax_rows((logits + g) / tau)
    hard = np.zeros_like(soft)
    np.put_along_axis(hard, np.argmax(soft, axis=-1)[..., None], 1.0, axis=-1)
    return soft, hard
