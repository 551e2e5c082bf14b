import warnings

import numpy as np
import pytest

from offlang.nn import (
    AdditiveAttention,
    AvgOverTime,
    BiGRU,
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    MaxOverTime,
    ParallelConcat,
    Parameter,
    ShapeError,
)
from offlang.nn.layers import sigmoid


def rng(seed=0):
    return np.random.default_rng(seed)


def test_conv_output_length():
    layer = Conv1D(5, 4, 3, rng=rng(1))
    x = rng().normal(size=(2, 200, 5)).astype(np.float32)
    y, lengths = layer.forward(x, np.array([200, 10]))
    assert y.shape == (2, 198, 4)
    assert lengths.tolist() == [198, 8]


def test_conv_rejects_short_input():
    layer = Conv1D(5, 4, 3, rng=rng(1))
    with pytest.raises(ShapeError):
        layer.forward(rng().normal(size=(1, 2, 5)), None)


def test_conv_parameter_count_full_size():
    # width 2, 200-dim embeddings, 256 filters.
    layer = Conv1D(200, 256, 2, rng=rng(0))
    assert sum(p.value.size for p in layer.parameters()) == 2 * 200 * 256 + 256 == 102_656


def test_max_over_time_masks_padding():
    layer = MaxOverTime()
    x = np.zeros((1, 4, 2), dtype=np.float32)
    x[0, :, 0] = [1.0, 5.0, 99.0, 99.0]
    x[0, :, 1] = [-1.0, -2.0, 99.0, 99.0]
    y, _ = layer.forward(x, np.array([2]))
    assert y[0].tolist() == [5.0, -1.0]


def test_avg_over_time_masks_padding_and_constant_sequence():
    layer = AvgOverTime()
    x = np.zeros((2, 3, 2), dtype=np.float32)
    x[0] = [[2.0, 4.0], [4.0, 0.0], [99.0, 99.0]]
    x[1] = [[7.0, 3.0]] * 3
    y, _ = layer.forward(x, np.array([2, 3]))
    assert y[0].tolist() == [3.0, 2.0]
    assert y[1].tolist() == [7.0, 3.0]  # mean of a constant sequence is that constant


def test_fully_padded_row_falls_back_to_position_zero():
    x = np.array([[[3.0, 1.0], [9.0, 9.0]]], dtype=np.float32)
    y, _ = MaxOverTime().forward(x, np.array([0]))
    assert y[0].tolist() == [3.0, 1.0]
    y, _ = AvgOverTime().forward(x, np.array([0]))
    assert y[0].tolist() == [3.0, 1.0]


def test_attention_weights_sum_to_one_and_mask_padding():
    layer = AdditiveAttention(3, 4, rng=rng(2), dtype=np.float64)
    x = rng(3).normal(size=(5, 6, 3))
    x[4] = [0.5, -2.0, 3.0]  # constant over time
    lengths = np.array([6, 3, 1, 0, 4])
    y, _ = layer.forward(x, lengths)
    # padded positions get zero weight: changing them leaves the output as is
    x_noisy = x.copy()
    x_noisy[1, 3:] = rng(4).normal(size=(3, 3)) * 100.0
    x_noisy[2, 1:] = rng(5).normal(size=(5, 3)) * 100.0
    x_noisy[3, 1:] = 123.0
    y_noisy, _ = layer.forward(x_noisy, lengths)
    assert np.array_equal(y, y_noisy)
    # non-negative weights summing to one map a constant row to that constant
    assert np.allclose(y[4], [0.5, -2.0, 3.0], atol=1e-12)
    # a single valid position takes all the weight
    assert np.array_equal(y[2], x[2, 0])
    # fully padded row: all attention on the fallback position 0
    assert np.array_equal(y[3], x[3, 0])


def test_dense_sigmoid_strictly_inside_unit_interval():
    layer = Dense(1, 1, "sigmoid", rng=rng(0), dtype=np.float32)
    layer.weights.value[...] = 100.0
    layer.bias.value[...] = 0.0
    x = np.array([[5.0], [-5.0]], dtype=np.float32)
    y, _ = layer.forward(x, None)
    assert np.all(y > 0.0) and np.all(y < 1.0)


def two_branch_sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_equals_the_two_branch_formula_bit_for_bit(dtype):
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                         1e4, -1e4, 88.8, -88.8, 710.0, -746.0, 1e-30, -1e-30])
    r = rng(11)
    for batch in (1, 5, 32, 128):
        scale = np.array([1.0, 10.0, 100.0, 1e4])[r.integers(0, 4, size=(batch, 1))]
        gates = (r.normal(size=(batch, 4 * 16)) * scale).astype(dtype)
        gates.flat[: specials.size] = specials
        # strided column slices, as the LSTM and GRU steps pass their gates
        for k in range(4):
            z = gates[:, 16 * k : 16 * (k + 1)]
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = sigmoid(z)
            want = two_branch_sigmoid(z)
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got.view(np.uint8), want.view(np.uint8)), (batch, k)


def test_one_unit_dense_row_does_not_depend_on_the_other_rows():
    layer = Dense(256, 1, "sigmoid", rng=rng(0), dtype=np.float32)
    x = rng(1).normal(size=(130, 256)).astype(np.float32)
    whole, _ = layer.forward(x, None)
    for start, stop in ((0, 1), (3, 5), (7, 10), (64, 130)):
        part, _ = layer.forward(x[start:stop], None)
        assert np.array_equal(part, whole[start:stop]), (start, stop)


def test_word_dropout_identity_cases():
    matrix = rng(1).normal(size=(4, 3))
    idx = rng(2).integers(0, 4, size=(2, 5))
    y, _ = Embedding(matrix, word_dropout_rate=0.0).forward(idx, None, train=True, rng=rng(0))
    assert np.array_equal(y, matrix[idx])
    y, _ = Embedding(matrix, word_dropout_rate=0.5).forward(idx, None, train=False, rng=rng(0))
    assert np.array_equal(y, matrix[idx])


def test_word_dropout_zeroes_whole_timesteps_at_expected_rate():
    layer = Embedding(np.ones((3, 2)), word_dropout_rate=0.3)
    out, _ = layer.forward(np.zeros((100, 1000), dtype=np.int64), None, train=True, rng=rng(7))
    per_step = out.sum(axis=2)
    zeroed = per_step == 0.0
    # whole vectors go together
    assert np.array_equal(zeroed, out[:, :, 0] == 0.0)
    rate = zeroed.mean()
    assert abs(rate - 0.3) < 0.01
    survivors = out[~zeroed]
    assert np.allclose(survivors, 1.0 / 0.7)


def test_embedding_lookup_and_masked_rows():
    matrix = np.arange(12, dtype=np.float32).reshape(6, 2)
    layer = Embedding(matrix)
    idx = np.array([[1, 3, 0]])
    y, lengths = layer.forward(idx, np.array([2]))
    assert np.array_equal(y[0, 0], matrix[1])
    assert np.array_equal(y[0, 1], matrix[3])
    assert lengths.tolist() == [2]


def test_embedding_rejects_out_of_range():
    layer = Embedding(np.zeros((4, 2), dtype=np.float32))
    with pytest.raises(ShapeError):
        layer.forward(np.array([[9]]), None)
    with pytest.raises(ShapeError):  # would otherwise wrap around to the last row
        layer.forward(np.array([[2, -1]]), None)


def test_dropout_infer_is_identity_and_backward_needs_cache():
    layer = Dropout(0.5)
    x = rng(0).normal(size=(3, 4)).astype(np.float32)
    y, _ = layer.forward(x, None, train=False)
    assert np.array_equal(y, x)
    with pytest.raises(RuntimeError):
        layer.backward(np.ones_like(x))


def test_recurrent_outputs_zero_on_padding():
    for layer in (
        BiLSTM(3, 2, rng=rng(4), dtype=np.float64),
        BiGRU(3, 2, rng=rng(5), dtype=np.float64),
    ):
        x = rng(6).normal(size=(2, 5, 3))
        y, _ = layer.forward(x, np.array([5, 2]))
        assert y.shape == (2, 5, 4)
        assert np.all(y[1, 2:] == 0.0)
        assert np.any(y[1, :2] != 0.0)


RECURRENT = pytest.mark.parametrize("make", [
    lambda: BiLSTM(3, 2, 0.25, rng=rng(8), dtype=np.float64),
    lambda: BiLSTM(3, 2, 0.25, return_sequences=False, rng=rng(8), dtype=np.float64),
    lambda: BiGRU(3, 2, 0.25, rng=rng(8), dtype=np.float64),
], ids=["bilstm", "bilstm_final", "bigru"])


@RECURRENT
def test_recurrent_output_independent_of_padding_amount(make):
    # The same tokens padded to different widths give the same outputs and
    # gradients bit for bit in training: padded steps carry every state and
    # its gradient through unchanged.
    x_short = rng(9).normal(size=(4, 5, 3))
    x_long = np.concatenate([x_short, np.full((4, 3, 3), 123.0)], axis=1)
    lengths = np.array([5, 3, 1, 0])
    runs = []
    for x in (x_short, x_long):
        layer = make()
        y, _ = layer.forward(x, lengths, train=True, rng=rng(10))
        grad = rng(11).normal(size=(4, 5, 4) if y.ndim == 3 else y.shape)
        if y.ndim == 3:  # zero upstream gradient on the appended columns
            grad = np.concatenate([grad, np.zeros((4, y.shape[1] - 5, 4))], axis=1)
        dx = layer.backward(grad)
        runs.append((y, dx, {p.name: p.grad for p in layer.parameters()}))
    (y_short, dx_short, g_short), (y_long, dx_long, g_long) = runs
    assert np.array_equal(y_short, y_long[:, :5] if y_long.ndim == 3 else y_long)
    assert np.array_equal(dx_short, dx_long[:, :5])
    # W is left out: the x.T @ dxp GEMM of its gradient is blocked by the
    # padded width (ROADMAP open item 4)
    for name in g_short:
        if not name.endswith("_W"):
            assert np.array_equal(g_short[name], g_long[name]), name


def count_steps(monkeypatch, cls):
    """Counts of the cell's ``step`` and ``step_backward`` calls."""
    counts = {"step": 0, "step_backward": 0}
    for name in counts:
        def counted(*args, _inner=getattr(cls, name), _name=name):
            counts[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(cls, name, staticmethod(counted))
    return counts


@pytest.mark.parametrize("cls", [BiLSTM, BiGRU])
def test_recurrent_loop_stops_at_the_longest_row(cls, monkeypatch):
    counts = count_steps(monkeypatch, cls)
    layer = cls(3, 2, rng=rng(12), dtype=np.float64)
    x = rng(13).normal(size=(4, 8, 3))
    for lengths, live in ((np.array([5, 3, 1, 0]), 5), (None, 8)):
        counts.update(step=0, step_backward=0)
        y, _ = layer.forward(x, lengths, train=True, rng=rng(14))
        layer.backward(np.ones_like(y))
        assert counts == {"step": 2 * live, "step_backward": 2 * live}
        layer.forward(x, lengths)
        assert counts["step"] == 4 * live


@RECURRENT
def test_all_padding_batch_runs_no_step(make, monkeypatch):
    layer = make()
    counts = count_steps(monkeypatch, type(layer))
    x = rng(15).normal(size=(3, 6, 3))
    y, _ = layer.forward(x, np.zeros(3, dtype=int), train=True, rng=rng(16))
    dx = layer.backward(rng(17).normal(size=y.shape))
    assert counts == {"step": 0, "step_backward": 0}
    assert y.shape == ((3, 6, 4) if layer.return_sequences else (3, 4))
    assert not np.any(y) and not np.any(dx)
    for p in layer.parameters():
        assert np.all(np.isfinite(p.grad)) and not np.any(p.grad), p.name


def test_bilstm_final_state_matches_last_valid_sequence_output():
    layer_seq = BiLSTM(3, 2, rng=rng(10), dtype=np.float64)
    layer_fin = BiLSTM(3, 2, return_sequences=False, rng=rng(10), dtype=np.float64)
    x = rng(11).normal(size=(1, 5, 3))
    lengths = np.array([3])
    y_seq, _ = layer_seq.forward(x, lengths)
    y_fin, out_lengths = layer_fin.forward(x, lengths)
    assert out_lengths is None
    # forward direction: state at t=2; backward direction: state at t=0
    assert np.allclose(y_fin[0, :2], y_seq[0, 2, :2])
    assert np.allclose(y_fin[0, 2:], y_seq[0, 0, 2:])


def _state(value):
    """Comparable snapshot of a layer attribute, arrays and parameters included."""
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, Parameter):
        return (value.name, _state(value.value), _state(value.grad))
    if isinstance(value, dict):
        return {k: _state(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_state(v) for v in value]
    if hasattr(value, "__dict__"):
        return _state(vars(value))
    return value


def _seq(dim, seed=12):
    return rng(seed).normal(size=(3, 6, dim)), np.array([6, 2, 0])


INFERENCE_CASES = {
    "embedding": lambda: (Embedding(rng(1).normal(size=(7, 4)), 0.3),
                          rng(2).integers(0, 7, size=(3, 6)), np.array([6, 2, 0])),
    "dropout": lambda: (Dropout(0.5), *_seq(4)),
    "dense": lambda: (Dense(4, 3, "relu", rng=rng(1)), rng(2).normal(size=(3, 4)), None),
    "conv1d": lambda: (Conv1D(4, 3, 2, rng=rng(1)), *_seq(4)),
    "max_over_time": lambda: (MaxOverTime(), *_seq(4)),
    "avg_over_time": lambda: (AvgOverTime(), *_seq(4)),
    "attention": lambda: (AdditiveAttention(4, 3, rng=rng(1)), *_seq(4)),
    "bilstm": lambda: (BiLSTM(4, 2, 0.3, rng=rng(1)), *_seq(4)),
    "bilstm_final": lambda: (BiLSTM(4, 2, 0.3, return_sequences=False, rng=rng(1)), *_seq(4)),
    "bigru": lambda: (BiGRU(4, 2, 0.3, rng=rng(1)), *_seq(4)),
    "parallel": lambda: (ParallelConcat([[Conv1D(4, 3, 2, rng=rng(1)), MaxOverTime()],
                                         [AdditiveAttention(4, 3, rng=rng(2))]]), *_seq(4)),
}


@pytest.mark.parametrize("case", sorted(INFERENCE_CASES))
def test_inference_forward_leaves_layer_state_unchanged(case):
    layer, x, lengths = INFERENCE_CASES[case]()
    before = _state(vars(layer))
    layer.forward(x, lengths, train=False, rng=rng(3))
    assert _state(vars(layer)) == before


@pytest.mark.parametrize("layer", [
    Conv1D(5, 4, 3, rng=rng(1), dtype=np.float32),
    BiLSTM(5, 3, rng=rng(2), dtype=np.float32),
    BiGRU(5, 3, rng=rng(3), dtype=np.float32),
], ids=["conv1d", "bilstm", "bigru"])
def test_inference_forward_equals_train_forward_bit_for_bit(layer):
    # inference skips the backward caches and, in Conv1D, works in row blocks
    x = rng(4).normal(size=(19, 7, 5)).astype(np.float32)
    lengths = rng(5).integers(0, 8, size=19)
    y_train, len_train = layer.forward(x, lengths, train=True)
    y_infer, len_infer = layer.forward(x, lengths, train=False)
    assert np.array_equal(y_infer, y_train)
    assert np.array_equal(len_infer, len_train)
