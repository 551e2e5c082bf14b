"""Neural layers with hand-derived backward passes, on plain numpy arrays.

Conventions:
  * batch data is (batch, time, features); dense data is (batch, features);
  * sequence layers carry a `lengths` vector; positions t >= lengths[b] are
    padding and are excluded from pooling and attention;
  * a fully padded row falls back to position 0 so reductions never see an
    empty window;
  * recurrent layers carry state through padded steps unchanged, so outputs
    do not depend on the amount of padding; the one masked time loop of
    `Bidirectional` does this for both the LSTM and the GRU cell, and stops
    at the batch's longest row, since the steps after it are padding in
    every row;
  * `forward(..., train=True)` caches activations for one `backward` call;
    inference-mode forwards cache nothing and are pure;
  * sums over time add one step after another, so the zeros of padding come
    last and change no bit, and a one-unit `Dense` sums each row on its own:
    a row's inference output depends neither on its padded width nor on the
    other rows of its batch (of at least 8 rows, below which BLAS takes
    other kernels; see `predict_proba`).
"""
from __future__ import annotations

import numpy as np

# Rows per block where a layer would otherwise copy a whole (batch, time,
# features) array: Conv1D's inference windows and MaxOverTime's masked copy.
# Both work one row at a time (numpy multiplies a stack of matrices one
# matrix at a time), so blocks give the same bytes as the whole batch while
# the copies stay small at any padded width.
ROW_BLOCK = 8


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


def dropout_mask(rng, shape, rate, dtype):
    """Inverted-dropout keep mask: 0 with probability rate, else 1/(1-rate)."""
    keep = (rng.random(size=shape) >= rate).astype(dtype)
    return keep / (1.0 - rate)


class Layer:
    def __init__(self):
        self._cache = None

    def parameters(self) -> list[Parameter]:
        return []

    def forward(self, x, lengths, train=False, rng=None):
        raise NotImplementedError

    def backward(self, grad):
        raise NotImplementedError

    def config(self) -> dict:
        raise NotImplementedError

    def _take_cache(self):
        if self._cache is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called without a cached train-mode forward"
            )
        cache, self._cache = self._cache, None
        return cache


class Embedding(Layer):
    """Trainable lookup table with word-level dropout on its output."""

    def __init__(self, matrix, word_dropout_rate=0.0):
        super().__init__()
        matrix = np.asarray(matrix)
        if matrix.ndim != 2:
            raise ShapeError("embedding matrix must be 2-D")
        if not 0.0 <= word_dropout_rate < 1.0:
            raise ValueError("word dropout rate must lie in [0, 1)")
        self.weights = Parameter("embedding", matrix)
        self.word_dropout_rate = float(word_dropout_rate)

    def parameters(self):
        return [self.weights]

    def forward(self, indices, lengths, train=False, rng=None):
        indices = np.asarray(indices)
        if indices.min(initial=0) < 0 or indices.max(initial=0) >= self.weights.value.shape[0]:
            raise ShapeError("token index out of vocabulary range")
        out = self.weights.value[indices]
        mask = None
        if train and self.word_dropout_rate > 0.0:
            mask = dropout_mask(rng, indices.shape, self.word_dropout_rate, out.dtype)
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

    def config(self):
        return {
            "type": "embedding",
            "vocab_size": int(self.weights.value.shape[0]),
            "dim": int(self.weights.value.shape[1]),
            "word_dropout": self.word_dropout_rate,
        }


class Dropout(Layer):
    """Standard inverted dropout on every element."""

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

    def config(self):
        return {"type": "dropout", "rate": self.rate}


class Dense(Layer):
    """y = activation(x @ W + b); activation in {identity, relu, sigmoid}.

    Sigmoid outputs are clipped into (0, 1) open bounds so downstream log
    losses stay finite.
    """

    SIGMOID_EPS = 1e-7

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
            z = x @ self.weights.value + self.bias.value
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
        return dz @ self.weights.value.T

    def config(self):
        return {
            "type": "dense",
            "in_dim": self.in_dim,
            "units": self.units,
            "activation": self.activation,
        }


class Conv1D(Layer):
    """Valid 1-D convolution over time with a rectifier activation.

    Kernel shape (width, in_dim, filters); output length L - width + 1. The
    output at position t is valid only if the whole window lies inside the
    true (unpadded) input, so conveyed lengths shrink by width - 1.
    """

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

    def parameters(self):
        return [self.weights, self.bias]

    def forward(self, x, lengths, train=False, rng=None):
        batch, steps, dim = x.shape
        if dim != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input features, got {dim}")
        if steps < self.width:
            raise ShapeError(f"sequence length {steps} shorter than filter width {self.width}")
        out_lengths = None if lengths is None else np.maximum(lengths - (self.width - 1), 0)
        if train:
            cols, z = self._convolve(x)
            self._cache = (cols, z > 0, x.shape)
            return np.maximum(z, 0), out_lengths
        y = np.empty((batch, steps - self.width + 1, self.filters), dtype=x.dtype)
        for start in range(0, batch, ROW_BLOCK):
            _, z = self._convolve(x[start : start + ROW_BLOCK])
            np.maximum(z, 0, out=y[start : start + ROW_BLOCK])
        return y, out_lengths

    def _convolve(self, x):
        """(window columns, pre-activation) of the valid convolution of x."""
        batch, steps, _ = x.shape
        out_steps = steps - self.width + 1
        windows = np.stack([x[:, i : i + out_steps, :] for i in range(self.width)], axis=2)
        cols = windows.reshape(batch, out_steps, self.width * self.in_dim)
        z = cols @ self.weights.value.reshape(-1, self.filters)
        z += self.bias.value
        return cols, z

    def backward(self, grad):
        cols, relu_mask, x_shape = self._take_cache()
        batch, out_steps, _ = cols.shape
        dz = grad * relu_mask
        flat_cols = cols.reshape(-1, self.width * self.in_dim)
        flat_dz = dz.reshape(-1, self.filters)
        self.weights.grad += (flat_cols.T @ flat_dz).reshape(self.weights.value.shape)
        self.bias.grad += flat_dz.sum(axis=0)
        dcols = (flat_dz @ self.weights.value.reshape(-1, self.filters).T).reshape(
            batch, out_steps, self.width, self.in_dim
        )
        dx = np.zeros(x_shape, dtype=grad.dtype)
        for i in range(self.width):
            dx[:, i : i + out_steps, :] += dcols[:, :, i, :]
        return dx

    def config(self):
        return {
            "type": "conv1d",
            "in_dim": self.in_dim,
            "filters": self.filters,
            "width": self.width,
        }


class MaxOverTime(Layer):
    """Elementwise max over valid time positions (first max wins ties)."""

    def forward(self, x, lengths, train=False, rng=None):
        batch, steps, dim = x.shape
        valid = length_mask(lengths, batch, steps, min_one=True)
        arg = np.empty((batch, dim), dtype=np.intp)
        for start in range(0, batch, ROW_BLOCK):
            block = slice(start, start + ROW_BLOCK)
            arg[block] = np.where(valid[block, :, None], x[block], -np.inf).argmax(axis=1)
        out = np.take_along_axis(x, arg[:, None, :], axis=1)[:, 0, :]
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

    def config(self):
        return {"type": "max_over_time"}


class AvgOverTime(Layer):
    """Elementwise mean over valid time positions."""

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

    def config(self):
        return {"type": "avg_over_time"}


class AdditiveAttention(Layer):
    """Feed-forward scored attention pooling over a sequence.

    score_t = v . tanh(h_t W + b); weights are a masked softmax over valid
    positions (padding gets exactly zero weight) and the output is the
    weighted sum of the inputs.
    """

    def __init__(self, in_dim, units, rng=None, dtype=np.float32):
        super().__init__()
        self.in_dim = int(in_dim)
        self.units = int(units)
        self.weights = Parameter(
            "attn_W", glorot_uniform(rng, (in_dim, units), in_dim, units, dtype)
        )
        self.bias = Parameter("attn_b", np.zeros(units, dtype=dtype))
        self.score = Parameter("attn_v", glorot_uniform(rng, (units,), units, 1, dtype))

    def parameters(self):
        return [self.weights, self.bias, self.score]

    def forward(self, x, lengths, train=False, rng=None):
        batch, steps, dim = x.shape
        if dim != self.in_dim:
            raise ShapeError(f"expected {self.in_dim} input features, got {dim}")
        u = np.tanh(x @ self.weights.value + self.bias.value)  # (B, L, A)
        scores = u @ self.score.value  # (B, L)
        valid = length_mask(lengths, batch, steps, min_one=True)
        scores = np.where(valid, scores, -np.inf)
        scores = scores - scores.max(axis=1, keepdims=True)
        weights = np.exp(scores)
        # a running sum adds the padding's zero weights last, exactly; numpy's
        # pairwise row sum would regroup the valid terms with the padded width
        weights = weights / np.cumsum(weights, axis=1)[:, -1:]
        context = (weights[:, :, None] * x).sum(axis=1)
        if train:
            self._cache = (x, u, weights)
        return context, None

    def backward(self, grad):
        x, u, weights = self._take_cache()
        dweights = np.einsum("bf,blf->bl", grad, x)
        dx = weights[:, :, None] * grad[:, None, :]
        dscores = weights * (dweights - (weights * dweights).sum(axis=1, keepdims=True))
        du = dscores[:, :, None] * self.score.value
        self.score.grad += (dscores[:, :, None] * u).sum(axis=(0, 1))
        dpre = du * (1.0 - u * u)
        self.weights.grad += np.einsum("bld,bla->da", x, dpre)
        self.bias.grad += dpre.sum(axis=(0, 1))
        dx += dpre @ self.weights.value.T
        return dx

    def config(self):
        return {"type": "attention", "in_dim": self.in_dim, "units": self.units}


def _lstm_step(xp_t, state, U):
    """One LSTM step. Gate order: input, forget, cell candidate, output."""
    h, c = state
    units = U.shape[0]
    a = xp_t + h @ U
    i = sigmoid(a[:, :units])
    f = sigmoid(a[:, units : 2 * units])
    g = np.tanh(a[:, 2 * units : 3 * units])
    o = sigmoid(a[:, 3 * units :])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return (o * tc, c_new), (i, f, g, o, tc, h, c)


def _lstm_step_backward(d_new, saved, U, dU):
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
    return da, (da @ U.T, dc_total * f)


def _gru_step(xp_t, state, U):
    """One GRU step. Gate order: update, reset, candidate.

    h_t = z * h_{t-1} + (1 - z) * tanh(x W_n + (r * h_{t-1}) U_n + b_n)
    """
    (h,) = state
    units = U.shape[0]
    z = sigmoid(xp_t[:, :units] + h @ U[:, :units])
    r = sigmoid(xp_t[:, units : 2 * units] + h @ U[:, units : 2 * units])
    n = np.tanh(xp_t[:, 2 * units :] + (r * h) @ U[:, 2 * units :])
    return (z * h + (1.0 - z) * n,), (z, r, n, h)


def _gru_step_backward(d_new, saved, U, dU):
    (dh_new,) = d_new
    z, r, n, h_prev = saved
    units = U.shape[0]
    dz = dh_new * (h_prev - n)
    dn = dh_new * (1.0 - z)
    dhp = dh_new * z
    dan = dn * (1.0 - n * n)
    drh = dan @ U[:, 2 * units :].T
    dU[:, 2 * units :] += (r * h_prev).T @ dan
    dr = drh * h_prev
    dhp = dhp + drh * r
    daz = dz * z * (1.0 - z)
    dar = dr * r * (1.0 - r)
    dU[:, :units] += h_prev.T @ daz
    dU[:, units : 2 * units] += h_prev.T @ dar
    dhp = dhp + daz @ U[:, :units].T + dar @ U[:, units : 2 * units].T
    return np.concatenate([daz, dar, dan], axis=1), (dhp,)


class Bidirectional(Layer):
    """A recurrent cell run forward and backward in time, states concatenated.

    Subclasses give the cell: ``prefix`` (parameter names ``<prefix>_fw_W``
    ... and config type ``bi<prefix>``), ``gates`` (gate blocks per weight
    matrix), ``states`` (state arrays, the output state first), ``saved``
    (per-step arrays the backward pass reads), ``initial_bias``, and the
    gate math: ``step(xp_t, state, U)`` returns the new state and the saved
    arrays, and ``step_backward(d_new, saved, U, dU)`` returns the gradient
    of the gate pre-activations and of the previous state, adding into
    ``dU``. Everything else is written once here, for both cells: the input
    projection, the length mask, the step order, the weight-gradient GEMMs,
    and the carry of every state (and its gradient) unchanged through padded
    steps, so outputs do not depend on the amount of padding.

    The time loop runs only over the batch's first ``max(lengths)`` steps:
    after them every row is padding, and a step would only carry the states
    and their gradients through and add zeros. Inside the loop, a row shorter
    than the longest still steps through its padding with the carry. The
    input projection, the weight-gradient GEMMs, the per-step saved buffer
    and the outputs keep the full padded width: the GEMMs' sums then group
    their terms as before, and buffers of one size from batch to batch keep
    training's peak memory where it was (buffers cut to the longest row
    raised it on some seeds).

    ``dropout`` zeroes input connections with one mask per direction shared
    across timesteps (training only). ``return_sequences`` selects the full
    (B, L, 2u) output or the final states (B, 2u).
    """

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

    def initial_bias(self, dtype):
        return np.zeros(self.gates * self.units, dtype=dtype)

    def parameters(self):
        return [p for tag in ("fw", "bw") for p in self.params[tag]]

    def _direction_forward(self, x, lengths, W, U, b, reverse, train):
        """(outputs, final output state, cache) of one direction; only a
        train-mode call fills the (steps, saved, batch, units) buffer that
        ``_direction_backward`` reads, otherwise the cache is None."""
        batch, steps, _ = x.shape
        xp = x @ W  # (B, L, gates * u)
        xp += b
        mask = length_mask(lengths, batch, steps).astype(x.dtype)
        state = tuple(np.zeros((batch, self.units), dtype=x.dtype) for _ in range(self.states))
        live = steps if lengths is None else min(steps, int(np.max(lengths, initial=0)))
        order = range(live - 1, -1, -1) if reverse else range(live)
        outputs = np.zeros((batch, steps, self.units), dtype=x.dtype)
        if train:
            saved = np.empty((steps, self.saved, batch, self.units), dtype=x.dtype)
        for t in order:
            m = mask[:, t : t + 1]
            new, values = self.step(xp[:, t], state, U)
            if train:
                saved[t] = values
            state = tuple(m * n + (1.0 - m) * s for n, s in zip(new, state))
            outputs[:, t] = m * new[0]
        return outputs, state[0], ((saved, mask, order) if train else None)

    def _direction_backward(self, douts, dh_final, cache, x, W, U):
        """(dx, dW, dU, db) of one direction, from the upstream gradients of
        its outputs (``douts``) and of its final output state."""
        saved, mask, order = cache
        batch, steps, _ = x.shape
        dxp = np.zeros((batch, steps, W.shape[1]), dtype=x.dtype)
        dU = np.zeros_like(U)
        d = [np.zeros((batch, self.units), dtype=x.dtype) for _ in range(self.states)]
        if dh_final is not None:
            d[0] = dh_final
        for t in reversed(order):
            m = mask[:, t : t + 1]
            d_new = (m * (douts[:, t] + d[0]), *(m * ds for ds in d[1:]))
            da, d_prev = self.step_backward(d_new, saved[t], U, dU)
            dxp[:, t] = da
            d = [p + (1.0 - m) * q for p, q in zip(d_prev, d)]
        dW = x.reshape(-1, x.shape[2]).T @ dxp.reshape(-1, W.shape[1])
        db = dxp.sum(axis=(0, 1))
        dx = dxp @ W.T
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

    def config(self):
        return {
            "type": f"bi{self.prefix}",
            "in_dim": self.in_dim,
            "units": self.units,
            "dropout": self.dropout,
        }


class BiLSTM(Bidirectional):
    """Bidirectional LSTM; forget-gate bias starts at 1."""

    prefix, gates, states, saved = "lstm", 4, 2, 7
    step = staticmethod(_lstm_step)
    step_backward = staticmethod(_lstm_step_backward)

    def initial_bias(self, dtype):
        b = super().initial_bias(dtype)
        b[self.units : 2 * self.units] = 1.0
        return b

    def config(self):
        return {**super().config(), "return_sequences": self.return_sequences}


class BiGRU(Bidirectional):
    """Bidirectional GRU returning the full output sequence."""

    prefix, gates, states, saved = "gru", 3, 1, 4
    step = staticmethod(_gru_step)
    step_backward = staticmethod(_gru_step_backward)

    def __init__(self, in_dim, units, dropout=0.0, rng=None, dtype=np.float32):
        super().__init__(in_dim, units, dropout, True, rng, dtype)


class ParallelConcat(Layer):
    """Runs branches on the same input and concatenates their features."""

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
        return {
            "type": "parallel",
            "branches": [[layer.config() for layer in branch] for branch in self.branches],
        }


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
