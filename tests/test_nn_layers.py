import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from offlang.nn.layers import ROW_BLOCK, gate_sigmoid, sigmoid


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gate_sigmoid_is_within_one_float32_step_of_the_logistic(dtype):
    # the specials of the two-branch test above
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
                         1e4, -1e4, 88.8, -88.8, 710.0, -746.0, 1e-30, -1e-30])
    r = rng(12)
    cases = [np.linspace(-40.0, 40.0, 200_001).astype(dtype)]
    for batch in (1, 5, 32, 128):
        scale = np.array([1.0, 10.0, 100.0, 1e4])[r.integers(0, 4, size=(batch, 1))]
        gates = (r.normal(size=(batch, 4 * 16)) * scale).astype(dtype)
        gates.flat[: specials.size] = specials
        # strided column slices, as the LSTM and GRU steps pass their gates
        cases += [gates[:, 16 * k : 16 * (k + 1)] for k in range(4)]
    for z in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = gate_sigmoid(z)
        assert got.dtype == dtype and got.shape == z.shape
        nan = np.isnan(z)
        assert np.array_equal(np.isnan(got), nan)
        got, want = got[~nan].astype(np.float64), two_branch_sigmoid(z[~nan].astype(np.float64))
        assert np.all((got >= 0.0) & (got <= 1.0))
        assert np.max(np.abs(got - want)) <= 2.0**-23


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
    for name in g_short:
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
    # inference skips the backward caches
    x = rng(4).normal(size=(19, 7, 5)).astype(np.float32)
    lengths = rng(5).integers(0, 8, size=19)
    y_train, len_train = layer.forward(x, lengths, train=True)
    y_infer, len_infer = layer.forward(x, lengths, train=False)
    assert np.array_equal(y_infer, y_train)
    assert np.array_equal(len_infer, len_train)


# Shapes at which OpenBLAS sums each output of a product in one order at any
# number of rows (a one-row product runs doubled, `flat_matmul`): flattened
# products of 12 to 64 columns (as at the paper's 192 and 256), recurrent
# steps of 4 units, and recurrent input gradients over 12 or 16 gate columns.
ROW_CASES = {
    **{f"conv1d_w{w}": (lambda w=w: Conv1D(64, 16, w, rng=rng(30 + w))) for w in (1, 2, 3, 4)},
    "max_over_time": MaxOverTime,
    "bilstm": lambda: BiLSTM(64, 4, rng=rng(35)),
    "bigru": lambda: BiGRU(64, 4, rng=rng(36)),
}


def _bits(a):
    return a.dtype.str, a.shape, a.tobytes()


def _assert_row(alone, row):
    """``alone`` equals the start of ``row``, bit for bit."""
    assert _bits(alone) == _bits(row[: len(alone)])


def _assert_each_row_alone(layer, data, max_rows, max_steps):
    # a row's outputs and input gradient, in a batch of 1 to max_rows rows,
    # are those of the row run alone at its own minimal width, bit for bit,
    # the padding of a recurrent layer (+0.0) included
    width = getattr(layer, "width", 1)
    rows = data.draw(st.integers(1, max_rows), label="rows")
    steps = data.draw(st.integers(width, max_steps), label="steps")
    lengths = np.array(data.draw(st.lists(st.integers(0, steps), min_size=rows, max_size=rows),
                                 label="lengths"))
    gen = rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    x = gen.normal(size=(rows, steps, getattr(layer, "in_dim", 64))).astype(np.float32)
    y_infer, _ = layer.forward(x, lengths)
    y_train, _ = layer.forward(x, lengths, train=True)
    grad = gen.normal(size=y_train.shape).astype(np.float32)
    dx = layer.backward(grad)
    for r in range(rows):
        own = max(int(lengths[r]), width)  # the row's own minimal width
        alone = (x[r : r + 1, :own], lengths[r : r + 1])
        _assert_row(layer.forward(*alone)[0][0], y_infer[r])
        y_alone, _ = layer.forward(*alone, train=True)
        _assert_row(y_alone[0], y_train[r])
        cut = slice(None) if y_train.ndim == 2 else slice(own - width + 1)
        _assert_row(layer.backward(grad[r : r + 1, cut])[0], dx[r])


@pytest.mark.parametrize("case", sorted(ROW_CASES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_each_row_has_the_bytes_it_has_alone(case, data):
    _assert_each_row_alone(ROW_CASES[case](), data, max_rows=20, max_steps=12)


@pytest.mark.parametrize("make", [lambda: BiLSTM(200, 64, rng=rng(37)),
                                  lambda: BiGRU(128, 64, rng=rng(38))], ids=["bilstm", "bigru"])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_each_row_at_paper_size_has_the_bytes_it_has_alone(make, data):
    # at paper size the steps backward multiply by U's transpose and the
    # input gradient by W's, where OpenBLAS takes another kernel at a few rows
    _assert_each_row_alone(make(), data, max_rows=40, max_steps=30)


@pytest.mark.parametrize("make", [lambda g: BiLSTM(200, 64, rng=g),
                                  lambda g: BiGRU(128, 64, rng=g),
                                  lambda g: Dense(128, 128, "relu", rng=g)],
                         ids=["bilstm", "bigru", "dense"])
def test_one_row_batch_at_paper_size_has_the_bytes_of_a_row_among_others(make):
    # one row, repeated in batches of 1, 6, 19 and 32 rows (a last training
    # batch can have any size): its inference output, train-mode output and
    # input gradient are the same bit for bit in each
    for seed in range(10):
        gen = rng(seed)
        layer = make(gen)
        if isinstance(layer, Dense):
            x, lengths = gen.normal(size=(1, layer.in_dim)).astype(np.float32), None
        else:
            x = gen.normal(size=(1, 16, layer.in_dim)).astype(np.float32)
            lengths = gen.integers(1, 17, size=1)
        grad = None
        runs = []
        for batch in (1, 6, 19, 32):
            rows = [0] * batch
            many = (x[rows], None if lengths is None else lengths[rows])
            y_infer = layer.forward(*many)[0]
            y_train = layer.forward(*many, train=True)[0]
            if grad is None:
                grad = gen.normal(size=y_train.shape).astype(np.float32)
            dx = layer.backward(grad[[0] * batch])
            runs.append([_bits(a[0]) for a in (y_infer, y_train, dx)])
        assert all(run == runs[0] for run in runs), seed


@pytest.mark.parametrize("make", [lambda: BiLSTM(200, 64, 0.2, rng=rng(44)),
                                  lambda: BiGRU(128, 64, 0.3, rng=rng(45))], ids=["bilstm", "bigru"])
def test_recurrent_layers_read_no_padding(make):
    # NaN past each row's length changes no byte of the outputs, the input
    # gradient or any parameter gradient: a padded position is never read
    layer = make()
    lengths = np.array([12, 5, 9, 0, 3, 12, 7, 1])
    clean = rng(46).normal(size=(8, 15, layer.in_dim)).astype(np.float32)
    dirty = clean.copy()
    dirty[np.arange(15)[None, :] >= lengths[:, None]] = np.nan
    grad = rng(47).normal(size=(8, 15, 2 * layer.units)).astype(np.float32)
    runs = []
    for x in (clean, dirty):
        for p in layer.parameters():
            p.zero_grad()
        y_infer, _ = layer.forward(x, lengths)
        y_train, _ = layer.forward(x, lengths, train=True, rng=rng(48))
        dx = layer.backward(grad)
        runs.append((y_infer, y_train, dx, *(p.grad.copy() for p in layer.parameters())))
    for clean_out, dirty_out in zip(*runs):
        assert np.all(np.isfinite(dirty_out))
        assert _bits(dirty_out) == _bits(clean_out)


@pytest.mark.parametrize("width", [1, 2, 3, 4])
def test_conv_reads_no_column_past_its_block_span(width):
    # every block reads only the columns its longest window spans
    layer = Conv1D(16, 16, width, rng=rng(40))
    lengths = rng(41).integers(0, 9, size=19)
    lengths[[3, 12]] = [25, 0]
    clean = rng(42).normal(size=(19, 30, 16)).astype(np.float32)
    dirty = clean.copy()
    for start in range(0, 19, ROW_BLOCK):
        windows = max(1, int(lengths[start : start + ROW_BLOCK].max()) - width + 1)
        dirty[start : start + ROW_BLOCK, windows + width - 1 :] = np.nan
    assert np.isnan(dirty).any()
    grad = rng(43).normal(size=(19, 30 - width + 1, 16)).astype(np.float32)
    runs = []
    for x in (clean, dirty):
        y_infer, _ = layer.forward(x, lengths)
        y_train, _ = layer.forward(x, lengths, train=True)
        runs.append((y_infer, y_train, layer.backward(grad)))
    for (clean_out, dirty_out) in zip(*runs):
        assert np.all(np.isfinite(dirty_out))
        assert _bits(dirty_out) == _bits(clean_out)
