import math

import numpy as np
import pytest

from foxbird import kernels
from foxbird.core import make_rng
from foxbird.kernels import (
    AttentionWeights,
    GnnWeights,
    GruWeights,
    LstmWeights,
    attention,
    bilstm_step,
    encoder_layer,
    gelu,
    gnn_block,
    gnn_forward,
    gru_step,
    gumbel_softmax_st,
    leaky_relu,
    lstm_step,
    multi_head_attention,
    relu,
    sigmoid,
    softmax_rows,
)


# ---------------------------------------------------------------------------
# Explicit-loop oracles
# ---------------------------------------------------------------------------

def softmax_rows_oracle(m):
    out = np.empty_like(m, dtype=float)
    for i in range(m.shape[0]):
        mx = max(m[i])
        es = [math.exp(v - mx) for v in m[i]]
        s = sum(es)
        out[i] = [e / s for e in es]
    return out


def attention_oracle(qu, ke, va):
    d_ke = ke.shape[1]
    scores = np.empty((qu.shape[0], ke.shape[0]))
    for i in range(qu.shape[0]):
        for j in range(ke.shape[0]):
            scores[i, j] = sum(qu[i, k] * ke[j, k] for k in range(d_ke)) / math.sqrt(d_ke)
    w = softmax_rows_oracle(scores)
    out = np.zeros((qu.shape[0], va.shape[1]))
    for i in range(qu.shape[0]):
        for j in range(ke.shape[0]):
            for k in range(va.shape[1]):
                out[i, k] += w[i, j] * va[j, k]
    return out


def mhsa_oracle(x, w):
    heads = []
    for i in range(w.heads):
        heads.append(attention_oracle(x @ w.wq[i], x @ w.wk[i], x @ w.wv[i]))
    return np.concatenate(heads, axis=1) @ w.wo


def gru_oracle(x, h, w):
    r = sigmoid(w.G_r @ x + w.W_r @ h)
    z = sigmoid(w.G_z @ x + w.W_z @ h)
    h_tilde = np.tanh(w.G_h @ x + w.W @ (r * h))
    return (1 - z) * h + z * h_tilde, r, z, h_tilde


def lstm_oracle(x, h, s, w):
    f = sigmoid(w.WE_xf @ x + w.WE_hf @ h + w.WE_gf @ s + w.de_f)
    i = sigmoid(w.WE_xi @ x + w.WE_hi @ h + w.WE_gi @ s + w.de_i)
    o = sigmoid(w.WE_xo @ x + w.WE_ho @ h + w.WE_go @ s + w.de_o)
    s_cand = np.tanh(w.WE_xm @ x + w.WE_xh @ h + w.de_g)
    s_new = f * s + i * s_cand
    return o * np.tanh(s_new), s_new, f, i, o


def gnn_block_oracle(adj, d_prev, w):
    n, e_in = d_prev.shape
    g = np.zeros((n, e_in))
    for i in range(n):
        for j in range(n):
            for k in range(e_in):
                g[i, k] += adj[i, j] * d_prev[j, k]
    out = g @ w.weight + w.bias
    return np.where(out >= 0, out, w.slope * out)


def random_lstm_weights(rng, n_in, n_h):
    r = lambda *s: rng.standard_normal(s)
    return LstmWeights(r(n_h, n_in), r(n_h, n_h), r(n_h, n_h), r(n_h),
                       r(n_h, n_in), r(n_h, n_h), r(n_h, n_h), r(n_h),
                       r(n_h, n_in), r(n_h, n_h), r(n_h, n_h), r(n_h),
                       r(n_h, n_in), r(n_h, n_h), r(n_h))


def random_gru_weights(rng, n_in, n_h):
    r = lambda *s: rng.standard_normal(s)
    return GruWeights(r(n_h, n_in), r(n_h, n_h), r(n_h, n_in), r(n_h, n_h),
                      r(n_h, n_in), r(n_h, n_h))


# ---------------------------------------------------------------------------
# Softmax / attention
# ---------------------------------------------------------------------------

class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([[0.0, 0.0]])),
                                   [[0.5, 0.5]])

    def test_no_overflow(self):
        out = softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)

    def test_ln2(self):
        out = softmax_rows(np.array([[math.log(2), 0.0]]))
        np.testing.assert_allclose(out, [[2 / 3, 1 / 3]], atol=1e-15)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            softmax_rows(np.array([[np.inf, 0.0]]))


class TestAttention:
    def test_single_key_degenerate(self):
        qu = np.array([[1.0, 2.0]])
        va = np.array([[7.0, 8.0, 9.0]])
        np.testing.assert_allclose(attention(qu, qu, va), va)

    def test_identical_keys_average_values(self):
        ke = np.array([[1.0, 0.0], [1.0, 0.0]])
        va = np.array([[2.0], [6.0]])
        np.testing.assert_allclose(attention(np.array([[3.0, 1.0]]), ke, va), [[4.0]])

    def test_one_by_one(self):
        assert attention([[1.0]], [[1.0]], [[3.0]])[0, 0] == pytest.approx(3.0)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            attention(np.ones((2, 3)), np.ones((2, 4)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="key/value row mismatch"):
            attention(np.ones((2, 3)), np.ones((2, 3)), np.ones((3, 2)))

    def test_weight_rows_sum_to_one(self):
        rng = make_rng(0)
        qu, ke = rng.standard_normal((4, 3)), rng.standard_normal((5, 3))
        w = softmax_rows(qu @ ke.T / math.sqrt(3))
        np.testing.assert_allclose(w.sum(axis=1), np.ones(4), atol=1e-9)

    def test_key_value_row_permutation_invariance(self):
        rng = make_rng(1)
        qu = rng.standard_normal((3, 4))
        ke = rng.standard_normal((5, 4))
        va = rng.standard_normal((5, 2))
        perm = rng.permutation(5)
        np.testing.assert_allclose(attention(qu, ke, va),
                                   attention(qu, ke[perm], va[perm]), atol=1e-12)


class TestMultiHeadAttention:
    def test_single_head_identity_collapse(self):
        rng = make_rng(2)
        x = rng.standard_normal((3, 4))
        w = AttentionWeights.identity(4)
        np.testing.assert_allclose(multi_head_attention(x, w),
                                   attention(x, x, x), atol=1e-12)

    def test_zero_output_matrix(self):
        rng = make_rng(3)
        x = rng.standard_normal((3, 4))
        w = AttentionWeights.identity(4)
        w.wo = np.zeros((4, 4))
        assert np.all(multi_head_attention(x, w) == 0)

    def test_two_heads_vs_oracle(self):
        rng = make_rng(4)
        x = rng.standard_normal((2, 4))
        w = AttentionWeights.random(4, 2, rng)
        np.testing.assert_allclose(multi_head_attention(x, w),
                                   mhsa_oracle(x, w), atol=1e-12)

    def test_output_matrix_of_the_wrong_height_rejected(self):
        w = AttentionWeights.identity(4)
        w.wo = np.zeros((3, 4))
        with pytest.raises(ValueError, match="concatenated head width"):
            multi_head_attention(np.ones((2, 4)), w)

    def test_indivisible_heads_rejected(self):
        with pytest.raises(ValueError):
            AttentionWeights.random(5, 2, make_rng(0))


# ---------------------------------------------------------------------------
# Recurrent steps
# ---------------------------------------------------------------------------

class TestGru:
    def test_update_gate_zero_keeps_state(self):
        w = GruWeights.zeros(2, 3)
        w.b_z = np.full(3, -50.0)  # z ~ 0
        h_prev = np.array([0.3, -0.2, 0.9])
        np.testing.assert_allclose(gru_step(np.ones(2), h_prev, w), h_prev, atol=1e-12)

    def test_update_gate_one_gives_candidate(self):
        rng = make_rng(5)
        w = random_gru_weights(rng, 2, 3)
        w.b_z = np.full(3, 50.0)  # z ~ 1
        x, h = rng.standard_normal(2), rng.standard_normal(3)
        _, _, _, h_tilde = gru_oracle_with_bias(x, h, w)
        np.testing.assert_allclose(gru_step(x, h, w), h_tilde, atol=1e-12)

    def test_all_zero(self):
        w = GruWeights.zeros(2, 3)
        h_prev = np.array([1.0, 2.0, -1.0])
        # r = z = 0.5, h_tilde = 0 -> h = 0.5 h_prev
        np.testing.assert_allclose(gru_step(np.zeros(2), h_prev, w),
                                   0.5 * h_prev, atol=1e-12)

    def test_output_bracketed_by_prev_and_candidate(self):
        rng = make_rng(6)
        for _ in range(20):
            w = random_gru_weights(rng, 3, 4)
            x, h_prev = rng.standard_normal(3), rng.standard_normal(4)
            h, r, z, h_tilde = gru_oracle(x, h_prev, w)
            assert np.all(r > 0) and np.all(r < 1)
            assert np.all(z > 0) and np.all(z < 1)
            lo = np.minimum(h_prev, h_tilde)
            hi = np.maximum(h_prev, h_tilde)
            got = gru_step(x, h_prev, w)
            assert np.all(got >= lo - 1e-12) and np.all(got <= hi + 1e-12)
            np.testing.assert_allclose(got, h, atol=1e-12)


def gru_oracle_with_bias(x, h, w):
    b_r = 0.0 if w.b_r is None else w.b_r
    b_z = 0.0 if w.b_z is None else w.b_z
    b_h = 0.0 if w.b_h is None else w.b_h
    r = sigmoid(w.G_r @ x + w.W_r @ h + b_r)
    z = sigmoid(w.G_z @ x + w.W_z @ h + b_z)
    h_tilde = np.tanh(w.G_h @ x + w.W @ (r * h) + b_h)
    return (1 - z) * h + z * h_tilde, r, z, h_tilde


class TestLstm:
    def test_perfect_memory(self):
        w = LstmWeights.zeros(2, 3)
        w.de_f = np.full(3, 50.0)   # f ~ 1
        w.de_i = np.full(3, -50.0)  # i ~ 0
        s_prev = np.array([0.1, -0.4, 0.8])
        _, s = lstm_step(np.ones(2), np.zeros(3), s_prev, w)
        np.testing.assert_allclose(s, s_prev, atol=1e-12)

    def test_closed_output_gate(self):
        w = LstmWeights.zeros(2, 3)
        w.de_o = np.full(3, -50.0)  # o ~ 0
        h, _ = lstm_step(np.ones(2), np.ones(3), np.ones(3), w)
        np.testing.assert_allclose(h, np.zeros(3), atol=1e-12)

    def test_all_zero_hand_case(self):
        w = LstmWeights.zeros(2, 3)
        s_prev = np.array([1.0, -2.0, 0.5])
        h, s = lstm_step(np.zeros(2), np.zeros(3), s_prev, w)
        np.testing.assert_allclose(s, 0.5 * s_prev, atol=1e-12)
        np.testing.assert_allclose(h, 0.5 * np.tanh(0.5 * s_prev), atol=1e-12)

    def test_gates_strictly_in_unit_interval(self):
        rng = make_rng(7)
        for _ in range(10):
            w = random_lstm_weights(rng, 3, 4)
            x, h, s = rng.standard_normal(3), rng.standard_normal(4), rng.standard_normal(4)
            _, _, f, i, o = lstm_oracle(x, h, s, w)
            for gate in (f, i, o):
                assert np.all(gate > 0) and np.all(gate < 1)

    def test_bilstm_concat_order(self):
        rng = make_rng(8)
        wf = random_lstm_weights(rng, 2, 3)
        wb = random_lstm_weights(rng, 2, 3)
        x = rng.standard_normal(2)
        h_f, s_f, h_b, s_b, cat = bilstm_step(x, np.zeros(3), np.zeros(3),
                                              np.zeros(3), np.zeros(3), wf, wb)
        np.testing.assert_array_equal(cat, np.concatenate([h_f, h_b]))
        oh, os = lstm_oracle(x, np.zeros(3), np.zeros(3), wf)[:2]
        np.testing.assert_allclose(h_f, oh, atol=1e-12)
        np.testing.assert_allclose(s_f, os, atol=1e-12)


# ---------------------------------------------------------------------------
# Activations
# ---------------------------------------------------------------------------

class TestActivations:
    def test_gelu_zero(self):
        assert gelu(0.0) == 0.0

    def test_gelu_antisymmetric_identity(self):
        for a in np.linspace(-10, 10, 201):
            assert abs((gelu(a) - gelu(-a)) - a) <= 1e-6

    def test_gelu_large(self):
        assert gelu(10.0) == pytest.approx(10.0, abs=1e-6)

    def test_gelu_empty(self):
        out = gelu(np.array([]))
        assert out.shape == (0,) and out.dtype == float

    def test_relu(self):
        assert relu(-1.0) == 0.0
        assert relu(2.0) == 2.0
        for a in np.linspace(-10, 10, 41):
            assert relu(a) - relu(-a) == pytest.approx(a)

    def test_leaky_relu(self):
        assert leaky_relu(-1.0, 0.01) == pytest.approx(-0.01)
        assert leaky_relu(3.0, 0.01) == 3.0

    def test_leaky_relu_slope_out_of_range(self):
        with pytest.raises(ValueError):
            leaky_relu(1.0, 1.5)


# ---------------------------------------------------------------------------
# GNN
# ---------------------------------------------------------------------------

class TestGnn:
    def test_identity_adjacency(self):
        rng = make_rng(9)
        d = rng.standard_normal((4, 3))
        w = GnnWeights(rng.standard_normal((3, 2)), rng.standard_normal(2))
        got = gnn_block(np.eye(4), d, w)
        want = np.maximum(d @ w.weight + w.bias, 0.01 * (d @ w.weight + w.bias))
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_zero_features(self):
        w = GnnWeights(np.ones((3, 2)), np.array([1.0, -1.0]))
        got = gnn_block(np.eye(2) + np.ones((2, 2)), np.zeros((2, 3)), w)
        np.testing.assert_allclose(got, np.tile(leaky_relu(w.bias), (2, 1)))

    def test_path_graph_vs_oracle(self):
        # 3-node path with self loops, one feature dim
        adj = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
        d = np.array([[1.0], [2.0], [3.0]])
        w = GnnWeights(np.array([[2.0]]), np.array([-5.0]))
        np.testing.assert_allclose(gnn_block(adj, d, w),
                                   gnn_block_oracle(adj, d, w), atol=1e-12)

    def test_forward_zero_blocks(self):
        d = np.array([[1.0, 3.0], [5.0, 7.0]])
        np.testing.assert_allclose(gnn_forward(np.eye(2), d, []), [3.0, 5.0])
        np.testing.assert_allclose(gnn_forward(np.eye(2), d, [], readout="sum"),
                                   [6.0, 10.0])

    def test_mean_readout_identical_rows(self):
        rng = make_rng(10)
        row = rng.standard_normal(3)
        d = np.tile(row, (4, 1))
        np.testing.assert_allclose(gnn_forward(np.eye(4), d, []), row)

    def test_two_blocks_vs_oracle(self):
        rng = make_rng(11)
        adj = (rng.random((3, 3)) < 0.5).astype(float) + np.eye(3)
        d0 = rng.standard_normal((3, 2))
        blocks = [GnnWeights(rng.standard_normal((2, 4)), rng.standard_normal(4)),
                  GnnWeights(rng.standard_normal((4, 2)), rng.standard_normal(2))]
        mid = gnn_block_oracle(adj, d0, blocks[0])
        want = gnn_block_oracle(adj, mid, blocks[1]).mean(axis=0)
        np.testing.assert_allclose(gnn_forward(adj, d0, blocks), want, atol=1e-12)

    def test_shape_errors(self):
        w = GnnWeights(np.ones((2, 2)), np.zeros(2))
        with pytest.raises(ValueError):
            gnn_block(np.ones((2, 3)), np.ones((2, 2)), w)
        with pytest.raises(ValueError, match="node count"):
            gnn_block(np.eye(3), np.ones((2, 2)), w)
        with pytest.raises(ValueError):
            gnn_forward(np.eye(2), np.ones((2, 2)), [], readout="max")


# ---------------------------------------------------------------------------
# Encoder layer
# ---------------------------------------------------------------------------

class TestEncoderLayer:
    def test_all_zero_weights_pass_through(self):
        rng = make_rng(12)
        x = rng.standard_normal((3, 4))
        attn = AttentionWeights.identity(4)
        attn.wo = np.zeros((4, 4))
        out = encoder_layer(x, attn, np.zeros((4, 8)), np.zeros(8),
                            np.zeros((8, 4)), np.zeros(4))
        np.testing.assert_allclose(out, x, atol=1e-12)

    def test_shape_preserved(self):
        rng = make_rng(13)
        x = rng.standard_normal((5, 8))
        attn = AttentionWeights.random(8, 2, rng)
        out = encoder_layer(x, attn, rng.standard_normal((8, 16)),
                            rng.standard_normal(16), rng.standard_normal((16, 8)),
                            rng.standard_normal(8))
        assert out.shape == x.shape

    def test_identity_attention_zero_ffn(self):
        rng = make_rng(14)
        x = rng.standard_normal((3, 4))
        attn = AttentionWeights.identity(4)
        out = encoder_layer(x, attn, np.zeros((4, 4)), np.zeros(4),
                            np.zeros((4, 4)), np.zeros(4))
        np.testing.assert_allclose(out, x + attention_oracle(x, x, x), atol=1e-12)


# ---------------------------------------------------------------------------
# Gumbel-Softmax
# ---------------------------------------------------------------------------

class TestGumbelSoftmaxSt:
    def test_hard_one_hot_soft_simplex(self):
        rng = make_rng(15)
        logits = np.array([0.5, -1.0, 2.0])
        for _ in range(200):
            soft, hard = gumbel_softmax_st(logits, 1.0, rng)
            assert soft.sum() == pytest.approx(1.0)
            assert np.all(soft >= 0)
            assert np.count_nonzero(hard) == 1
            assert hard.max() == 1.0

    def test_high_tau_near_uniform(self):
        rng = make_rng(16)
        acc = np.zeros(3)
        for _ in range(10_000):
            soft, _ = gumbel_softmax_st(np.zeros(3), 100.0, rng)
            acc += soft
        np.testing.assert_allclose(acc / 10_000, np.full(3, 1 / 3), atol=0.05)

    def test_low_tau_wide_gap(self):
        rng = make_rng(17)
        hits = 0
        for _ in range(10_000):
            _, hard = gumbel_softmax_st(np.array([10.0, -10.0]), 0.1, rng)
            hits += hard[0] == 1.0
        assert hits >= 9_999

    def test_bad_tau(self):
        with pytest.raises(ValueError):
            gumbel_softmax_st(np.zeros(2), 0.0, make_rng(0))

    def test_two_dimensional_logits_are_one_hot_per_row(self):
        logits = make_rng(18).standard_normal((3, 4))
        soft, hard = gumbel_softmax_st(logits, 0.5, make_rng(19))
        gumbel = -np.log(-np.log(make_rng(19).random((3, 4))))
        assert np.array_equal(soft, softmax_rows((logits + gumbel) / 0.5))
        assert np.array_equal(hard, np.eye(4)[np.argmax(soft, axis=1)])

    def test_two_dimensional_ties_break_to_the_lowest_index(self, monkeypatch):
        monkeypatch.setattr(kernels, "softmax_rows",
                            lambda m: np.array([[0.5, 0.5, 0.0], [0.2, 0.4, 0.4]]))
        _, hard = gumbel_softmax_st(np.zeros((2, 3)), 1.0, make_rng(0))
        assert np.array_equal(hard, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


# ---------------------------------------------------------------------------
# Random-shape oracle sweep
# ---------------------------------------------------------------------------

def test_kernels_match_oracles_on_random_shapes():
    rng = make_rng(99)
    for _ in range(50):
        rows = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        m = rng.standard_normal((rows, d))
        np.testing.assert_allclose(softmax_rows(m), softmax_rows_oracle(m), atol=1e-12)

        ke_rows = int(rng.integers(1, 6))
        qu = rng.standard_normal((rows, d))
        ke = rng.standard_normal((ke_rows, d))
        va = rng.standard_normal((ke_rows, int(rng.integers(1, 5))))
        np.testing.assert_allclose(attention(qu, ke, va),
                                   attention_oracle(qu, ke, va), atol=1e-12)

        n_in, n_h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        gw = random_gru_weights(rng, n_in, n_h)
        x, h = rng.standard_normal(n_in), rng.standard_normal(n_h)
        np.testing.assert_allclose(gru_step(x, h, gw), gru_oracle(x, h, gw)[0],
                                   atol=1e-12)

        lw = random_lstm_weights(rng, n_in, n_h)
        s = rng.standard_normal(n_h)
        got_h, got_s = lstm_step(x, h, s, lw)
        want_h, want_s = lstm_oracle(x, h, s, lw)[:2]
        np.testing.assert_allclose(got_h, want_h, atol=1e-12)
        np.testing.assert_allclose(got_s, want_s, atol=1e-12)

        nodes = int(rng.integers(1, 5))
        adj = (rng.random((nodes, nodes)) < 0.5).astype(float) + np.eye(nodes)
        feats = rng.standard_normal((nodes, d))
        w = GnnWeights(rng.standard_normal((d, 3)), rng.standard_normal(3))
        np.testing.assert_allclose(gnn_block(adj, feats, w),
                                   gnn_block_oracle(adj, feats, w), atol=1e-12)
