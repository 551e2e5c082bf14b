"""Neural layers with hand-derived backward passes, on plain numpy arrays.

Conventions:
  * batch data is (batch, time, features); dense data is (batch, features);
  * sequence layers carry a `lengths` vector; positions t >= lengths[b] are
    padding and are excluded from pooling and attention;
  * a fully padded row falls back to position 0 so reductions never see an
    empty window;
  * recurrent layers read and step only the valid positions, packed: the
    one time loop of `Bidirectional`, for both the LSTM and the GRU cell,
    orders the rows longest first and runs step t on the rows still inside
    their sequence, so a row's state ends at its last step, padding is never
    read, and outputs do not depend on the amount of padding; the input
    projection and the input gradient cover the packed positions only, each
    as one flattened GEMM; `Conv1D` and `MaxOverTime` work in blocks of
    `ROW_BLOCK` rows, each cut to its own longest row, so their cost follows
    each block and a convolution reads no column past its block's windows;
  * OpenBLAS multiplies one row, and a few rows by a transposed (or, at some
    shapes, a contiguous) matrix, with other kernels than more rows, which
    sum in another order; so no product runs on one row (`flat_matmul`), the
    backward products multiply by contiguous copies of the transposes, and
    an input gradient runs on at least `GRAD_ROWS` rows: with the SkylakeX
    kernels, a row of a recurrent layer or of a paper-size `Dense` gets the
    same bytes in a batch of any size (other cores have other bounds);
  * the recurrent gates use `gate_sigmoid`, 1/2 tanh(z/2) + 1/2, which needs
    no branch; the output `Dense` keeps the exact two-branch `sigmoid`, since
    the tanh form is off by up to about 6e-8 near 0 and is exactly 0 below
    z of about -20, which would spoil small probabilities and the log loss;
  * a padded step of a recurrent output is +0.0, never -0.0, so a row's
    padding bytes do not depend on the other rows of its batch;
  * word dropout draws its mask at the shape of the indices the `Embedding`
    gets, so a training batch cut to its longest row draws no mask for
    columns that nothing reads;
  * `forward(..., train=True)` caches activations for one `backward` call;
    inference-mode forwards cache nothing and are pure;
  * sums over time add one step after another, so the zeros of padding come
    last and change no bit, and a one-unit `Dense` and the attention scores
    sum each row or position on its own: a row's inference output depends
    neither on its padded width nor on the other rows of its batch (of at
    least 8 rows, below which BLAS takes other kernels; see `predict_proba`);
  * weight-gradient and bias sums over positions (`position_sums`) take only
    the valid positions, in (row, step) order, in fixed chunks added in
    order: trained weights depend neither on the padded width of a batch nor
    on the BLAS thread count;
  * each layer class states its `type`, its config `keys` and its
    `parameter_shapes`, and the loader builds from that one table
    (`LAYER_TYPES`, `build_layer`).
"""
from __future__ import annotations

import numpy as np

# Rows per block of Conv1D and MaxOverTime. A block is cut to its own longest
# window: Conv1D multiplies the block's columns as one flattened GEMM per
# offset, and MaxOverTime masks a copy of only those columns, so the work and
# the temporaries follow each block's longest row at any padded width. With
# the paper's 256 filters (or 192 and 256 gate columns), OpenBLAS's GEMM sums
# each output over its inner dimension in one order whatever its number of
# rows but one, so a row's bytes depend neither on its block nor on the cut.
# (At some other column counts, 100 or 200 among them, a product of a few
# rows takes OpenBLAS's small-matrix kernel, which sums in another order.)
ROW_BLOCK = 8
# Rows below which OpenBLAS multiplies by some contiguous matrices with another
# kernel than by the same matrix in a product of more rows: an input gradient
# (`Dense`, `Bidirectional`) runs on at least this many rows. At 256 -> 200,
# the BiLSTM's input gradient, that kernel takes products of up to 19 rows.
GRAD_ROWS = 20
# Rows per partial sum in `position_sums`. OpenBLAS (SkylakeX AVX-512
# kernels) sums a GEMM's inner dimension in an order that depends on the
# thread count for some lengths above 448; at 256 and below it does not.
SUM_ROWS = 256


class ShapeError(ValueError):
    """Input does not fit the layer configuration."""


class Parameter:
    """A trainable array paired with its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value)
        self.grad = np.zeros_like(self.value)

    def zero_grad(self):
        self.grad[...] = 0


def glorot_uniform(rng, shape, fan_in, fan_out, dtype):
    if rng is None:
        return np.zeros(shape, dtype=dtype)  # loader will fill the values
    limit = float(np.sqrt(6.0 / (fan_in + fan_out)))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


def sigmoid(z):
    # 1 / (1 + e^-z) for z >= 0, e^z / (1 + e^z) below: exp never overflows.
    # min(z, -z) is -|z| that keeps a NaN's sign, as e^z of a NaN z does.
    e = np.exp(np.minimum(z, -z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def gate_sigmoid(z):
    """The logistic of a recurrent gate, as 1/2 tanh(z/2) + 1/2.

    One ufunc pass and two in-place ones: no overflow branch and no select.
    Its absolute error is at most 2**-23 in float32, but it returns exactly 0
    below z of about -20, so only the gates use it, not output probabilities.
    """
    y = np.tanh(z * 0.5)
    y *= 0.5
    y += 0.5
    return y


def length_mask(lengths, batch, steps, min_one=False):
    """Boolean (batch, steps) mask of valid positions.

    ``lengths=None`` treats every position as valid. With ``min_one`` a
    zero-length row keeps position 0, the degenerate-input fallback.
    """
    if lengths is None:
        return np.ones((batch, steps), dtype=bool)
    lengths = np.asarray(lengths)
    if min_one:
        lengths = np.maximum(lengths, 1)
    return np.arange(steps)[None, :] < lengths[:, None]


def position_sums(grad, x=None):
    """Sums over the positions (rows) of ``grad``, (positions, features).

    Returns ``(x.T @ grad, grad summed over rows)``, the weight and bias
    gradients, with None for the first when ``x`` (positions, inputs) is
    None. Callers pass the valid positions only, as ``a[valid]`` in (row,
    step) order. The rows are summed in ``SUM_ROWS``-row chunks added in
    order, so the bytes depend neither on the padding around those positions
    nor on the BLAS thread count.
    """
    weight = None if x is None else np.zeros((x.shape[1], grad.shape[1]), dtype=grad.dtype)
    total = np.zeros(grad.shape[1:], dtype=grad.dtype)
    for start in range(0, grad.shape[0], SUM_ROWS):
        part = slice(start, start + SUM_ROWS)
        total += grad[part].sum(axis=0)
        if x is not None:
            weight += x[part].T @ grad[part]
    return weight, total


def flat_matmul(a, b, min_rows=2):
    """``a @ b`` for a 2-D ``a``, run as a product of at least ``min_rows`` rows.

    OpenBLAS multiplies one row with its matrix-vector kernel, and a few rows
    by some matrices with a small-matrix kernel, and both sum in another order
    than its GEMM kernel. So a shorter ``a`` runs padded with zero rows, which
    are dropped: each row gets the bytes it gets in a product of more rows.
    """
    if 0 < len(a) < min_rows:
        pad = np.zeros((min_rows - len(a), a.shape[1]), dtype=a.dtype)
        return (np.concatenate([a, pad]) @ b)[: len(a)]
    return a @ b


def packed_layout(valid):
    """The packed layout of the valid positions of a (batch, steps) mask.

    Returns ``(rows, active, starts, r_idx, t_idx)``: ``rows`` orders the rows
    longest first, so the rows inside their sequence at step t are
    ``rows[:active[t]]``, for each step up to the longest row. The valid
    positions are packed step by step, each step's rows in ``rows`` order:
    step t's positions are ``starts[t]`` to ``starts[t] + active[t]``, and
    packed position i is (``r_idx[i]``, ``t_idx[i]``) of the batch.
    """
    counts = valid.sum(axis=1)
    rows = np.argsort(-counts, kind="stable")
    active = valid[:, : counts.max(initial=0)].sum(axis=0)
    starts = np.cumsum(active) - active
    t_idx, j_idx = np.nonzero(valid[rows, : len(active)].T)
    return rows, active, starts, rows[j_idx], t_idx


def dropout_mask(rng, shape, rate, dtype):
    """Inverted-dropout keep mask: 0 with probability rate, else 1/(1-rate)."""
    keep = (rng.random(size=shape) >= rate).astype(dtype)
    return keep / (1.0 - rate)


class Layer:
    """Base of every layer. ``type`` names the layer in a saved config, and
    ``keys`` lists its other config keys in saved order: the attributes that
    ``config()`` writes, and the constructor arguments of ``from_config``."""

    type: str
    keys: tuple[str, ...] = ()

    def __init__(self):
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x, lengths, train=False, rng=None):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def config(self) -> dict:
        return {"type": self.type, **{key: getattr(self, key) for key in self.keys}}

    @classmethod
    def from_config(cls, config: dict) -> Layer:
        """The layer ``config`` describes, with zero parameters for a loader to fill."""
        return cls(*(config[key] for key in cls.keys))

    @classmethod
    def parameter_shapes(cls, config: dict) -> list[tuple]:
        """Shapes of ``from_config(config).parameters()``, found without allocating."""
        return []

    def _take_cache(self):
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called without a cached train-mode forward"
            )
        cache, self._cache = self._cache, None
        return cache


class Embedding(Layer):
    """Trainable lookup table with word-level dropout on its output."""

    type, keys = "embedding", ("vocab_size", "dim", "word_dropout")

    def __init__(self, matrix, word_dropout_rate=0.0):
        super().__init__()
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ShapeError("embedding matrix must be 2-D")
        if not 0.0 <= word_dropout_rate < 1.0:
            raise ValueError("word dropout rate must lie in [0, 1)")
        self.weights = Parameter("embedding", matrix)
        self.vocab_size, self.dim = matrix.shape
        self.word_dropout = float(word_dropout_rate)

    @classmethod
    def from_config(cls, config):
        (shape,) = cls.parameter_shapes(config)
        return cls(np.zeros(shape, dtype=np.float32), config["word_dropout"])

    @classmethod
    def parameter_shapes(cls, config):
        return [(config["vocab_size"], config["dim"])]

    def parameters(self):
        return [self.weights]

    def forward(self, indices, lengths, train=False, rng=None):
        indices = np.asarray(indices)
        if indices.min(initial=0) < 0 or indices.max(initial=0) >= self.weights.value.shape[0]:
            raise ShapeError("token index out of vocabulary range")
        out = self.weights.value[indices]
        mask = None
        if train and self.word_dropout > 0.0:
            mask = dropout_mask(rng, indices.shape, self.word_dropout, out.dtype)
            out = out * mask[..., None]
        if train:
            self._cache = (indices, mask)
        return out, lengths

    def backward(self, grad):
        indices, mask = self._take_cache()
        if mask is not None:
            grad = grad * mask[..., None]
        np.add.at(self.weights.grad, indices, grad)
        return None  # integer input has no gradient


class Dropout(Layer):
    """Standard inverted dropout on every element."""

    type, keys = "dropout", ("rate",)

    def __init__(self, rate):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = float(rate)

    def forward(self, x, lengths, train=False, rng=None):
        if not train:
            return x, lengths
        if self.rate == 0.0:
            self._cache = (None,)
            return x, lengths
        mask = dropout_mask(rng, x.shape, self.rate, x.dtype)
        self._cache = (mask,)
        return x * mask, lengths

    def backward(self, grad):
        (mask,) = self._take_cache()
        return grad if mask is None else grad * mask


class Dense(Layer):
    """y = activation(x @ W + b); activation in {identity, relu, sigmoid}.

    Sigmoid outputs are clipped into (0, 1) open bounds so downstream log
    losses stay finite.
    """

    SIGMOID_EPS = 1e-7
    type, keys = "dense", ("in_dim", "units", "activation")

    def __init__(self, in_dim, units, activation="identity", rng=None, dtype=np.float32):
        super().__init__()
        if activation not in ("identity", "relu", "sigmoid"):
            raise ValueError(f"unknown activation: {activation!r}")
        self.in_dim = int(in_dim)
        self.units = int(units)
        self.activation = activation
        self.weights = Parameter(
            "dense_W", glorot_uniform(rng, (in_dim, units), in_dim, units, dtype)
        )
        self.bias = Parameter("dense_b", np.zeros(units, dtype=dtype))

    @classmethod
    def parameter_shapes(cls, config):
        return [(config["in_dim"], config["units"]), (config["units"],)]

    def parameters(self):
        return [self.weights, self.bias]

    def forward(self, x, lengths, train=False, rng=None):
        if x.shape[-1] != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input features, got {x.shape[-1]}")
        if self.units == 1:
            # a matrix-vector product sums a row in groups that depend on the
            # other rows of the batch; an elementwise row sum does not
            z = (x * self.weights.value[:, 0]).sum(axis=-1, keepdims=True) + self.bias.value
        else:
            z = flat_matmul(x.reshape(-1, self.in_dim), self.weights.value)
            z = z.reshape(*x.shape[:-1], self.units) + self.bias.value
        if self.activation == "relu":
            y = np.maximum(z, 0)
        elif self.activation == "sigmoid":
            s = sigmoid(z)
            y = np.clip(s, self.SIGMOID_EPS, 1.0 - self.SIGMOID_EPS)
        else:
            y = z
        if train:
            self._cache = (x, z, y)
        return y, lengths

    def backward(self, grad):
        x, z, y = self._take_cache()
        if self.activation == "relu":
            dz = grad * (z > 0)
        elif self.activation == "sigmoid":
            s = sigmoid(z)
            dz = grad * s * (1.0 - s) * (y == s)  # zero where the clip bound is active
        else:
            dz = grad
        flat_x = x.reshape(-1, self.in_dim)
        flat_dz = dz.reshape(-1, self.units)
        self.weights.grad += flat_x.T @ flat_dz
        self.bias.grad += flat_dz.sum(axis=0)
        dx = flat_matmul(flat_dz, np.ascontiguousarray(self.weights.value.T), GRAD_ROWS)
        return dx.reshape(*dz.shape[:-1], self.in_dim)


class Conv1D(Layer):
    """Valid 1-D convolution over time with a rectifier activation.

    Kernel shape (width, in_dim, filters); output length L - width + 1. The
    output at position t is valid only if the whole window lies inside the
    true (unpadded) input, so conveyed lengths shrink by width - 1. Outputs
    at the other positions are 0, except at position 0, which pooling's
    fallback reads for a row too short for one window.
    """

    type, keys = "conv1d", ("in_dim", "filters", "width")

    def __init__(self, in_dim, filters, width, rng=None, dtype=np.float32):
        super().__init__()
        self.in_dim = int(in_dim)
        self.filters = int(filters)
        self.width = int(width)
        fan_in = self.width * self.in_dim
        self.weights = Parameter(
            "conv_W",
            glorot_uniform(rng, (self.width, self.in_dim, self.filters), fan_in, filters, dtype),
        )
        self.bias = Parameter("conv_b", np.zeros(self.filters, dtype=dtype))

    @classmethod
    def parameter_shapes(cls, config):
        return [(config["width"], config["in_dim"], config["filters"]), (config["filters"],)]

    def parameters(self):
        return [self.weights, self.bias]

    def forward(self, x, lengths, train=False, rng=None):
        batch, steps, dim = x.shape
        if dim != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input features, got {dim}")
        if steps < self.width:
            raise ShapeError(f"sequence length {steps} shorter than filter width {self.width}")
        out_lengths = None if lengths is None else np.maximum(lengths - (self.width - 1), 0)
        out_steps = steps - self.width + 1
        valid = length_mask(out_lengths, batch, out_steps, min_one=True)
        W = self.weights.value
        # A block computes only its first `need` positions, up to its longest
        # row's windows, from the `span` columns they read, as one flattened
        # (rows * span, in_dim) product per offset i. z at t is the sum over i
        # of the i-th product at t + i, added in offset order: each product
        # sums over in_dim only, in one order whatever the BLAS thread count,
        # where one im2col product over width * in_dim does not for some
        # widths. Positions past `need` stay 0.
        y = np.zeros((batch, out_steps, self.filters), dtype=x.dtype)
        for start in range(0, batch, ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            need = out_steps
            if out_lengths is not None:
                need = min(out_steps, max(1, int(out_lengths[block].max())))
            span = need + self.width - 1
            cols = x[block, :span]
            flat = cols.reshape(-1, dim)
            shape = (len(cols), span, self.filters)
            z = flat_matmul(flat, W[0]).reshape(shape)[:, :need]
            for i in range(1, self.width):
                z += flat_matmul(flat, W[i]).reshape(shape)[:, i : i + need]
            z += self.bias.value
            np.maximum(z, 0, out=z)
            z *= valid[block, :need, None]
            y[block, :need] = z
        if train:
            self._cache = (x, y > 0, valid)
        return y, out_lengths

    def backward(self, grad):
        x, relu_mask, valid = self._take_cache()
        dz = (grad * relu_mask)[valid]  # 0 at the other positions
        rows, starts = np.nonzero(valid)  # (row, window start) in (row, step) order
        cols = np.concatenate([x[rows, starts + i] for i in range(self.width)], axis=1)
        dW, db = position_sums(dz, cols)
        self.weights.grad += dW.reshape(self.weights.value.shape)
        self.bias.grad += db
        dcols = flat_matmul(dz, self.weights.value.reshape(-1, self.filters).T)
        dx = np.zeros(x.shape, dtype=grad.dtype)
        for i in range(self.width):  # no position repeats within one offset
            dx[rows, starts + i] += dcols[:, i * self.in_dim : (i + 1) * self.in_dim]
        return dx


class MaxOverTime(Layer):
    """Elementwise max over valid time positions (first max wins ties)."""

    type = "max_over_time"

    def forward(self, x, lengths, train=False, rng=None):
        batch, steps, dim = x.shape
        valid = length_mask(lengths, batch, steps, min_one=True)
        out = np.empty((batch, dim), dtype=x.dtype)
        arg = np.empty((batch, dim), dtype=np.intp) if train else None
        for start in range(0, batch, ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            need = steps if lengths is None else min(steps, max(1, int(np.max(lengths[block]))))
            masked = np.where(valid[block, :need, None], x[block, :need], -np.inf)
            out[block] = masked.max(axis=1)
            if train:  # only backward reads the position of the max
                arg[block] = masked.argmax(axis=1)
        if train:
            self._cache = (arg, x.shape)
        return out, None

    def backward(self, grad):
        arg, x_shape = self._take_cache()
        batch, _, dim = x_shape
        dx = np.zeros(x_shape, dtype=grad.dtype)
        rows = np.arange(batch)[:, None]
        cols = np.arange(dim)[None, :]
        np.add.at(dx, (rows, arg, cols), grad)
        return dx


class AvgOverTime(Layer):
    """Elementwise mean over valid time positions."""

    type = "avg_over_time"

    def forward(self, x, lengths, train=False, rng=None):
        batch, steps, dim = x.shape
        valid = length_mask(lengths, batch, steps, min_one=True).astype(x.dtype)
        counts = valid.sum(axis=1)  # >= 1 by the fallback rule
        out = (x * valid[:, :, None]).sum(axis=1) / counts[:, None]
        if train:
            self._cache = (valid, counts, x.shape)
        return out, None

    def backward(self, grad):
        valid, counts, x_shape = self._take_cache()
        return grad[:, None, :] * valid[:, :, None] / counts[:, None, None]


class AdditiveAttention(Layer):
    """Feed-forward scored attention pooling over a sequence.

    score_t = v . tanh(h_t W + b); weights are a masked softmax over valid
    positions (padding gets exactly zero weight) and the output is the
    weighted sum of the inputs.
    """

    type, keys = "attention", ("in_dim", "units")

    def __init__(self, in_dim, units, rng=None, dtype=np.float32):
        super().__init__()
        self.in_dim = int(in_dim)
        self.units = int(units)
        self.weights = Parameter(
            "attn_W", glorot_uniform(rng, (in_dim, units), in_dim, units, dtype)
        )
        self.bias = Parameter("attn_b", np.zeros(units, dtype=dtype))
        self.score = Parameter("attn_v", glorot_uniform(rng, (units,), units, 1, dtype))

    @classmethod
    def parameter_shapes(cls, config):
        return [(config["in_dim"], config["units"]), (config["units"],), (config["units"],)]

    def parameters(self):
        return [self.weights, self.bias, self.score]

    def forward(self, x, lengths, train=False, rng=None):
        batch, steps, dim = x.shape
        if dim != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input features, got {dim}")
        u = np.tanh(x @ self.weights.value + self.bias.value)  # (B, L, A)
        # einsum sums each position on its own; a matrix-vector product sums
        # its matrix's last few rows in another order, so a score's bits would
        # depend on the padded width
        scores = np.einsum("bla,a->bl", u, self.score.value)
        valid = length_mask(lengths, batch, steps, min_one=True)
        scores = np.where(valid, scores, -np.inf)
        scores = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        # a running sum adds the padding's zero weights last, exactly; numpy's
        # pairwise row sum would regroup the valid terms with the padded width
        weights = weights / np.cumsum(weights, axis=1)[:, -1:]
        context = (weights[:, :, None] * x).sum(axis=1)
        if train:
            self._cache = (x, u, weights, valid)
        return context, None

    def backward(self, grad):
        x, u, weights, valid = self._take_cache()
        dweights = np.einsum("bf,blf->bl", grad, x)
        dx = weights[:, :, None] * grad[:, None, :]
        # a running sum, as the forward's softmax denominator
        dscores = weights * (dweights - np.cumsum(weights * dweights, axis=1)[:, -1:])
        du = dscores[:, :, None] * self.score.value
        self.score.grad += position_sums((dscores[:, :, None] * u)[valid])[1]
        dpre = du * (1.0 - u * u)
        dW, db = position_sums(dpre[valid], x[valid])
        self.weights.grad += dW
        self.bias.grad += db
        dx += dpre @ self.weights.value.T
        return dx


def _lstm_step(xp_t, state, U):
    """One LSTM step. Gate order: input, forget, cell candidate, output."""
    h, c = state
    units = U.shape[0]
    a = xp_t + flat_matmul(h, U)
    i = gate_sigmoid(a[:, :units])
    f = gate_sigmoid(a[:, units : 2 * units])
    g = np.tanh(a[:, 2 * units : 3 * units])
    o = gate_sigmoid(a[:, 3 * units :])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return (o * tc, c_new), (i, f, g, o, tc, h, c)


def _lstm_step_backward(d_new, saved, UT, dU):
    dh_new, dc_new = d_new
    i, f, g, o, tc, h_prev, c_prev = saved
    do = dh_new * tc
    dc_total = dc_new + dh_new * o * (1.0 - tc * tc)
    di = dc_total * g
    dg = dc_total * i
    df = dc_total * c_prev
    da = np.concatenate(
        [di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g * g), do * o * (1.0 - o)],
        axis=1,
    )
    dU += h_prev.T @ da
    return da, (flat_matmul(da, UT), dc_total * f)


def _gru_step(xp_t, state, U):
    """One GRU step. Gate order: update, reset, candidate.

    h_t = z * h_{t-1} + (1 - z) * tanh(x W_n + (r * h_{t-1}) U_n + b_n)
    """
    (h,) = state
    units = U.shape[0]
    z = gate_sigmoid(xp_t[:, :units] + flat_matmul(h, U[:, :units]))
    r = gate_sigmoid(xp_t[:, units : 2 * units] + flat_matmul(h, U[:, units : 2 * units]))
    n = np.tanh(xp_t[:, 2 * units :] + flat_matmul(r * h, U[:, 2 * units :]))
    return (z * h + (1.0 - z) * n,), (z, r, n, h)


def _gru_step_backward(d_new, saved, UT, dU):
    (dh_new,) = d_new
    z, r, n, h_prev = saved
    units = UT.shape[1]
    dz = dh_new * (h_prev - n)
    dn = dh_new * (1.0 - z)
    dhp = dh_new * z
    dan = dn * (1.0 - n * n)
    drh = flat_matmul(dan, UT[2 * units :])
    dU[:, 2 * units :] += (r * h_prev).T @ dan
    dr = drh * h_prev
    dhp = dhp + drh * r
    daz = dz * z * (1.0 - z)
    dar = dr * r * (1.0 - r)
    dU[:, :units] += h_prev.T @ daz
    dU[:, units : 2 * units] += h_prev.T @ dar
    dhp = dhp + flat_matmul(daz, UT[:units]) + flat_matmul(dar, UT[units : 2 * units])
    return np.concatenate([daz, dar, dan], axis=1), (dhp,)


class Bidirectional(Layer):
    """A recurrent cell run forward and backward in time, states concatenated.

    Subclasses give the cell: ``type``, ``prefix`` (parameter names
    ``<prefix>_fw_W`` ...), ``gates`` (gate blocks per weight matrix),
    ``states`` (state arrays, the output state first), ``saved`` (per-step
    arrays the backward pass reads), ``initial_bias``, and the
    gate math: ``step(xp_t, state, U)`` returns the new state and the saved
    arrays, and ``step_backward(d_new, saved, UT, dU)``, with ``UT`` a
    contiguous copy of ``U.T``, returns the gradient of the gate
    pre-activations and of the previous state, adding into ``dU``.
    Everything else is written once here, for both cells: the input
    projection, the packed layout, the step order and the weight-gradient
    sums.

    A direction touches only the valid (row, step) positions, in the packed
    layout of cuDNN and ``torch.nn.utils.rnn.pack_padded_sequence``
    (``packed_layout``): the rows are ordered longest first, and step t runs
    on the first ``active[t]`` of them, the rows still inside their
    sequence. A row that has ended is never stepped again, which carries its
    state (and, backward, its state's gradient) unchanged; the input
    projection, the saved values and the input gradient cover the packed
    positions only, and the outputs are scattered back once, with padding
    left at +0.0. Backward, each step runs its rows in the batch's order, so
    ``dU`` adds them as a step over every row would, and the input weight
    and bias gradients sum over the valid positions in (row, step) order
    (``position_sums``): every gradient has the bytes of the same batch at
    any padded width, and padding, NaN or not, changes no byte.

    Both cells take their gates through ``gate_sigmoid``. Every step product
    runs through ``flat_matmul``, and the backward ones multiply by the
    contiguous ``UT``: OpenBLAS multiplies up to 18 rows by a transposed
    view with another kernel, so a step's bytes would depend on how many
    rows are still active. The input gradient runs on at least
    ``GRAD_ROWS`` rows. So, with the SkylakeX kernels, a row gets the same
    bytes in a batch of any size.

    ``dropout`` zeroes input connections with one mask per direction shared
    across timesteps (training only). ``return_sequences`` selects the full
    (B, L, 2u) output or the final states (B, 2u).
    """

    keys = ("in_dim", "units", "dropout")
    prefix: str
    gates: int
    states: int
    saved: int

    def __init__(self, in_dim, units, dropout=0.0, return_sequences=True, rng=None,
                 dtype=np.float32):
        super().__init__()
        if not 0.0 <= dropout < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.in_dim = int(in_dim)
        self.units = int(units)
        self.dropout = float(dropout)
        self.return_sequences = bool(return_sequences)
        width = self.gates * units
        self.params = {}
        for tag in ("fw", "bw"):
            W = glorot_uniform(rng, (in_dim, width), in_dim, width, dtype)
            U = glorot_uniform(rng, (units, width), units, width, dtype)
            self.params[tag] = (
                Parameter(f"{self.prefix}_{tag}_W", W),
                Parameter(f"{self.prefix}_{tag}_U", U),
                Parameter(f"{self.prefix}_{tag}_b", self.initial_bias(dtype)),
            )

    @classmethod
    def parameter_shapes(cls, config):
        in_dim, units = config["in_dim"], config["units"]
        width = cls.gates * units
        return [(in_dim, width), (units, width), (width,)] * 2  # fw, then bw

    def initial_bias(self, dtype):
        return np.zeros(self.gates * self.units, dtype=dtype)

    def parameters(self):
        return [p for tag in ("fw", "bw") for p in self.params[tag]]

    def _direction_forward(self, x, lengths, W, U, b, reverse, train):
        """(outputs, final output state, cache) of one direction; only a
        train-mode call fills the packed (saved, positions, units) buffer that
        ``_direction_backward`` reads, otherwise the cache is None."""
        batch, steps, _ = x.shape
        valid = length_mask(lengths, batch, steps)
        rows, active, starts, r_idx, t_idx = packed_layout(valid)
        xp = flat_matmul(x[r_idx, t_idx], W) + b
        # the states are kept in `rows` order: step t runs on their first
        # active[t] rows, and a row that has ended is never stepped again
        state = tuple(np.zeros((batch, self.units), dtype=x.dtype) for _ in range(self.states))
        order = range(len(active) - 1, -1, -1) if reverse else range(len(active))
        out = np.empty((len(xp), self.units), dtype=x.dtype)
        if train:
            saved = np.empty((self.saved, len(xp), self.units), dtype=x.dtype)
        for t in order:
            k = active[t]
            at = slice(starts[t], starts[t] + k)
            new, values = self.step(xp[at], tuple(h[:k] for h in state), U)
            if train:  # before the new state overwrites the previous one
                saved[:, at] = values
            for h, n in zip(state, new):
                h[:k] = n
            out[at] = new[0]
        outputs = np.zeros((batch, steps, self.units), dtype=x.dtype)
        outputs[r_idx, t_idx] = out
        final = np.empty_like(state[0])
        final[rows] = state[0]
        return outputs, final, ((saved, valid, order) if train else None)

    def _direction_backward(self, douts, dh_final, cache, x, W, U):
        """(dx, dW, dU, db) of one direction, from the upstream gradients of
        its outputs (``douts``) and of its final output state."""
        saved, valid, order = cache
        rows, active, starts, r_idx, t_idx = packed_layout(valid)
        dout = douts[r_idx, t_idx]
        dxp = np.empty((len(dout), W.shape[1]), dtype=x.dtype)
        dU = np.zeros_like(U)
        UT = np.ascontiguousarray(U.T)
        d = [np.zeros((len(rows), self.units), dtype=x.dtype) for _ in range(self.states)]
        if dh_final is not None:
            d[0] = dh_final[rows]
        # a step runs its rows in the batch's order, so dU adds them in the
        # order of a step over every row, where the ended rows add exact zeros
        perms = {}
        for t in reversed(order):
            k = active[t]
            if k not in perms:
                perms[k] = np.argsort(rows[:k])
            perm = perms[k]
            at = starts[t] + perm
            d_new = (dout[at] + d[0][perm], *(ds[perm] for ds in d[1:]))
            da, d_prev = self.step_backward(d_new, saved[:, at], UT, dU)
            dxp[at] = da
            for ds, p in zip(d, d_prev):
                ds[perm] = p
        dW, db = position_sums(dxp[np.lexsort((t_idx, r_idx))], x[valid])
        dx = np.zeros(x.shape, dtype=x.dtype)
        dx[r_idx, t_idx] = flat_matmul(dxp, np.ascontiguousarray(W.T), GRAD_ROWS)
        return dx, dW, dU, db

    def forward(self, x, lengths, train=False, rng=None):
        if x.shape[2] != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input features, got {x.shape[2]}")
        masks, inputs, caches, outs, finals = {}, {}, {}, {}, {}
        for tag in ("fw", "bw"):  # draw both masks first: trained weights depend on the order
            masks[tag] = None
            if train and self.dropout > 0.0:
                masks[tag] = dropout_mask(rng, (x.shape[0], 1, x.shape[2]), self.dropout, x.dtype)
            inputs[tag] = x if masks[tag] is None else x * masks[tag]
        for tag, reverse in (("fw", False), ("bw", True)):
            W, U, b = (p.value for p in self.params[tag])
            outs[tag], finals[tag], caches[tag] = self._direction_forward(
                inputs[tag], lengths, W, U, b, reverse, train
            )
        if self.return_sequences:
            y, out_lengths = np.concatenate([outs["fw"], outs["bw"]], axis=2), lengths
        else:
            y, out_lengths = np.concatenate([finals["fw"], finals["bw"]], axis=1), None
        if train:
            self._cache = (inputs, masks, caches, x.shape)
        return y, out_lengths

    def backward(self, grad):
        inputs, masks, caches, x_shape = self._take_cache()
        batch, steps, _ = x_shape
        dx = np.zeros(x_shape, dtype=grad.dtype)
        for k, tag in enumerate(("fw", "bw")):
            if self.return_sequences:
                douts = grad[:, :, k * self.units : (k + 1) * self.units]
                dh_final = None
            else:
                douts = np.zeros((batch, steps, self.units), dtype=grad.dtype)
                dh_final = grad[:, k * self.units : (k + 1) * self.units]
            W, U, _ = (p.value for p in self.params[tag])
            dxi, *grads = self._direction_backward(douts, dh_final, caches[tag], inputs[tag], W, U)
            for p, g in zip(self.params[tag], grads):
                p.grad += g
            dx += dxi if masks[tag] is None else dxi * masks[tag]
        return dx


class BiLSTM(Bidirectional):
    """Bidirectional LSTM; forget-gate bias starts at 1."""

    type, keys = "bilstm", (*Bidirectional.keys, "return_sequences")
    prefix, gates, states, saved = "lstm", 4, 2, 7
    step = staticmethod(_lstm_step)
    step_backward = staticmethod(_lstm_step_backward)

    def initial_bias(self, dtype):
        b = super().initial_bias(dtype)
        b[self.units : 2 * self.units] = 1.0
        return b


class BiGRU(Bidirectional):
    """Bidirectional GRU returning the full output sequence."""

    type = "bigru"
    prefix, gates, states, saved = "gru", 3, 1, 4
    step = staticmethod(_gru_step)
    step_backward = staticmethod(_gru_step_backward)

    def __init__(self, in_dim, units, dropout=0.0, rng=None, dtype=np.float32):
        super().__init__(in_dim, units, dropout, True, rng, dtype)


class ParallelConcat(Layer):
    """Runs branches on the same input and concatenates their features."""

    type, keys = "parallel", ("branches",)

    def __init__(self, branches):
        super().__init__()
        self.branches = [list(branch) for branch in branches]
        if not self.branches:
            raise ValueError("ParallelConcat needs at least one branch")

    def parameters(self):
        return [p for branch in self.branches for layer in branch for p in layer.parameters()]

    def forward(self, x, lengths, train=False, rng=None):
        outs = []
        widths = []
        for branch in self.branches:
            y, ylen = x, lengths
            for layer in branch:
                y, ylen = layer.forward(y, ylen, train, rng)
            outs.append(y)
            widths.append(y.shape[-1])
        if train:
            self._cache = (widths,)
        return np.concatenate(outs, axis=-1), None

    def backward(self, grad):
        (widths,) = self._take_cache()
        dx = None
        offset = 0
        for branch, width in zip(self.branches, widths):
            piece = grad[..., offset : offset + width]
            offset += width
            for layer in reversed(branch):
                piece = layer.backward(piece)
            if piece is not None:
                dx = piece if dx is None else dx + piece
        return dx

    def config(self):
        branches = [[layer.config() for layer in branch] for branch in self.branches]
        return {"type": self.type, "branches": branches}

    @classmethod
    def from_config(cls, config):
        return cls([[build_layer(c) for c in branch] for branch in config["branches"]])

    @classmethod
    def parameter_shapes(cls, config):
        return [shape for branch in config["branches"] for c in branch
                for shape in layer_class(c).parameter_shapes(c)]


# The one table of saved layer types: every layer class, by its ``type``.
LAYER_TYPES = {cls.type: cls for cls in (Embedding, Dropout, Dense, Conv1D, MaxOverTime,
                                         AvgOverTime, AdditiveAttention, BiLSTM, BiGRU,
                                         ParallelConcat)}


def layer_class(config: dict) -> type[Layer]:
    """The class of the layer a ``Layer.config()`` dict describes."""
    kind = config.get("type")
    if kind not in LAYER_TYPES:
        raise ValueError(f"unknown layer type: {kind!r}")
    return LAYER_TYPES[kind]


def build_layer(config: dict) -> Layer:
    """The layer a ``Layer.config()`` dict describes, its parameters zero."""
    return layer_class(config).from_config(config)


class ModelGraph:
    """A sequential layer stack mapping index sequences to probabilities."""

    def __init__(self, architecture: str, layers: list[Layer]):
        self.architecture = architecture
        self.layers = list(layers)

    def parameters(self) -> list[Parameter]:
        return [p for layer in self.layers for p in layer.parameters()]

    def zero_grad(self):
        for p in self.parameters():
            p.zero_grad()

    def forward(self, indices, lengths, train=False, rng=None) -> np.ndarray:
        """Probabilities in (0, 1), one per row of ``indices``."""
        indices = np.asarray(indices)
        if indices.ndim != 2 or 0 in indices.shape:
            raise ShapeError(f"expected non-empty (batch, steps) indices, got shape {indices.shape}")
        x = indices
        for i, layer in enumerate(self.layers):
            try:
                x, lengths = layer.forward(x, lengths, train, rng)
            except ShapeError as exc:
                raise ShapeError(f"layer {i} ({type(layer).__name__}): {exc}") from None
        if x.ndim != 2 or x.shape[1] != 1:
            raise ShapeError(f"model output has shape {x.shape}, expected (batch, 1)")
        return x[:, 0]

    def backward(self, dprob: np.ndarray):
        grad = np.asarray(dprob)[:, None]
        for layer in reversed(self.layers):
            grad = layer.backward(grad)
        return grad

    def get_weights(self) -> list[np.ndarray]:
        return [p.value.copy() for p in self.parameters()]

    def set_weights(self, weights):
        params = self.parameters()
        if len(weights) != len(params):
            raise ValueError("weight list does not match parameter list")
        for p, w in zip(params, weights):
            if p.value.shape != w.shape:
                raise ValueError(f"shape mismatch for {p.name}: {p.value.shape} vs {w.shape}")
            p.value[...] = w
