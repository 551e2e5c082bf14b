import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offlang.data import Dataset, DatasetRecord, stratified_split
from offlang.embeddings import OOV_INDEX, Vocabulary, build_vocabulary
from offlang.models import (
    PredictionResult,
    build_blstm_attention,
    build_blstm_bgru,
    build_cnn,
    encode_dataset,
    encode_split,
    ensemble_predict,
    ensemble_proba,
    label_for,
)
from offlang.nn import AdditiveAttention, Dense, ParallelConcat, predict_proba
from offlang.preprocess import preprocess_pipeline


def test_builders_reject_wrong_dim(tiny_matrix):
    for builder in (build_cnn, build_blstm_attention, build_blstm_bgru):
        with pytest.raises(ValueError):
            builder(tiny_matrix)  # default expected_dim is 200, matrix is 16-wide


def test_cnn_feature_widths(tiny_matrix):
    model = build_cnn(tiny_matrix, expected_dim=16)
    concat = next(l for l in model.layers if isinstance(l, ParallelConcat))
    assert len(concat.branches) == 3
    dense = next(l for l in model.layers if isinstance(l, Dense))
    assert dense.in_dim == 3 * 256 == 768
    assert dense.units == 256


def test_blstm_attention_widths(tiny_matrix):
    model = build_blstm_attention(tiny_matrix, expected_dim=16)
    attention = next(l for l in model.layers if isinstance(l, AdditiveAttention))
    assert attention.in_dim == 2 * 64 == 128
    dense = next(l for l in model.layers if isinstance(l, Dense))
    assert dense.in_dim == 128 and dense.units == 128


def test_blstm_bgru_pooled_width(tiny_matrix):
    model = build_blstm_bgru(tiny_matrix, expected_dim=16)
    dense = next(l for l in model.layers if isinstance(l, Dense))
    assert dense.in_dim == 128 + 128 == 256


def test_forward_probabilities_and_determinism(tiny_matrix):
    model = build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=0)
    X = np.random.default_rng(1).integers(0, 20, size=(6, 12)).astype(np.int32)
    lengths = np.array([12, 9, 5, 3, 1, 0], dtype=np.int32)
    p1 = predict_proba(model, X, lengths)
    p2 = predict_proba(model, X, lengths)
    assert np.array_equal(p1, p2)
    assert np.all((p1 > 0.0) & (p1 < 1.0))


@pytest.mark.parametrize("builder", [build_cnn, build_blstm_attention, build_blstm_bgru])
def test_extra_padding_never_changes_inference(tiny_matrix, builder):
    model = builder(tiny_matrix, expected_dim=16, seed=4)
    rng = np.random.default_rng(9)
    for _ in range(3):
        # length 0, and lengths 1-3 below the widest (width-4) convolution
        lengths = np.concatenate([[0, 1, 2, 3], rng.integers(0, 13, size=4)]).astype(np.int32)
        X = rng.integers(2, 20, size=(8, 12)).astype(np.int32)
        X[np.arange(12) >= lengths[:, None]] = 0
        reference = predict_proba(model, X, lengths)
        for extra in (1, 5, 40):
            padded = np.pad(X, ((0, 0), (0, extra)))
            assert np.array_equal(predict_proba(model, padded, lengths), reference)


# longest row of a batch: ranges, and single values that are not multiples of 8
WIDTH_CLASSES = [(4, 8), (9, 16), (41, 48), (89, 96), (97, 200),
                 (5, 5), (13, 13), (45, 45), (97, 97), (131, 131), (199, 199)]


def paper_model(builder, rng, seed):
    matrix = rng.uniform(-0.5, 0.5, size=(40, 200)).astype(np.float32)
    return builder(matrix, seed=seed)


def padded_rows(rng, lengths):
    X = rng.integers(2, 40, size=(len(lengths), 200)).astype(np.int32)
    X[np.arange(200) >= np.asarray(lengths)[:, None]] = 0
    return X


@pytest.mark.parametrize("builder", [build_cnn, build_blstm_attention, build_blstm_bgru])
def test_predict_proba_equals_full_width_forward(builder):
    # paper dimensions: the trim must not move a bit, not even in the attention sum
    rng = np.random.default_rng(21)
    model = paper_model(builder, rng, 6)
    for low, high in WIDTH_CLASSES:
        longest = int(rng.integers(low, high + 1))
        lengths = np.array([0, 1, 2, 3, longest, *rng.integers(0, longest + 1, size=3)])
        X = padded_rows(rng, lengths)
        full = model.forward(X, lengths, train=False)
        assert np.array_equal(predict_proba(model, X, lengths), full), (low, high)


@pytest.mark.parametrize("builder", [build_cnn, build_blstm_attention, build_blstm_bgru])
def test_full_width_batches_in_row_blocks_equal_whole_batch_forward(builder):
    # a long tweet sends its 128-row batch through in 61-row blocks
    rng = np.random.default_rng(22)
    model = paper_model(builder, rng, 7)
    lengths = rng.integers(0, 97, size=222)
    lengths[[5, 130]] = [150, 200]
    X = padded_rows(rng, lengths)
    whole = [model.forward(X[s : s + 128], lengths[s : s + 128], train=False) for s in (0, 128)]
    assert np.array_equal(predict_proba(model, X, lengths), np.concatenate(whole))


@pytest.mark.parametrize("builder", [build_cnn, build_blstm_attention, build_blstm_bgru])
def test_probabilities_do_not_depend_on_the_rest_of_the_batch(builder):
    rng = np.random.default_rng(23)
    model = paper_model(builder, rng, 8)
    lengths = rng.integers(0, 200, size=200)
    X = padded_rows(rng, lengths)
    reference = predict_proba(model, X, lengths)
    order = rng.permutation(200)
    assert np.array_equal(predict_proba(model, X[order], lengths[order]), reference[order])
    for size in (1, 2, 5, 7, 61):
        rows = rng.choice(200, size=size, replace=False)
        assert np.array_equal(predict_proba(model, X[rows], lengths[rows]), reference[rows]), size


def test_inference_rows_bound_the_cells_of_a_forward(tiny_matrix, monkeypatch):
    model = build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=0)
    embedding = model.layers[0]
    shapes = []
    forward = embedding.forward

    def spy(indices, lengths, train=False, rng=None):
        shapes.append(indices.shape)
        return forward(indices, lengths, train, rng)

    monkeypatch.setattr(embedding, "forward", spy)
    rng = np.random.default_rng(24)
    for n in (1, 7, 8, 130, 300):
        for longest in (3, 50, 97, 200):
            # random lengths, and every row as long as the longest
            for lengths in (rng.integers(0, longest + 1, size=n), np.full(n, longest)):
                lengths[n // 2] = longest
                X = np.where(np.arange(200) < lengths[:, None], 2, 0).astype(np.int32)
                assert predict_proba(model, X, lengths).shape == (n,)
    assert (61, 200) in shapes  # 12,200 cells against 128 x 96
    for rows, width in shapes:
        assert rows >= 8
        assert rows == 8 or rows * width <= 128 * 96, (rows, width)


@pytest.mark.parametrize("builder", [build_cnn, build_blstm_attention, build_blstm_bgru])
def test_predict_proba_runs_rows_in_length_order(builder, monkeypatch):
    rng = np.random.default_rng(25)
    model = paper_model(builder, rng, 9)
    lengths = np.tile([5, 150], 128)
    X = padded_rows(rng, lengths)
    whole = [model.forward(X[s : s + 128], lengths[s : s + 128], train=False) for s in (0, 128)]
    embedding = model.layers[0]
    shapes = []
    forward = embedding.forward

    def spy(indices, lengths, train=False, rng=None):
        shapes.append(indices.shape)
        return forward(indices, lengths, train, rng)

    monkeypatch.setattr(embedding, "forward", spy)
    probs = predict_proba(model, X, lengths)
    # one batch of the 128 short rows at 16 columns, then the long ones in
    # row blocks; in input order both batches would need all 150 columns
    assert shapes == [(128, 16), (81, 150), (47, 150)]
    assert np.array_equal(probs, np.concatenate(whole))


def test_attention_unchanged_at_inference_width():
    attention = AdditiveAttention(128, 128, rng=np.random.default_rng(2))
    rng = np.random.default_rng(3)
    for _ in range(30):
        longest = int(rng.integers(1, 200))
        width = int(rng.integers(longest, 201))
        batch = int(rng.choice([1, 3, 32]))
        lengths = np.append(rng.integers(0, longest + 1, size=batch - 1), longest)
        x = rng.normal(size=(batch, 200, 128)).astype(np.float32)
        full, _ = attention.forward(x, lengths)
        trimmed, _ = attention.forward(x[:, :width], lengths)
        assert np.array_equal(trimmed, full), (longest, width, batch)


def test_predict_proba_trims_batches_to_their_longest_row(tiny_matrix, monkeypatch):
    model = build_blstm_attention(tiny_matrix, units=3, hidden=4, expected_dim=16, seed=0)
    embedding = model.layers[0]
    seen = []
    forward = embedding.forward

    def spy(indices, lengths, train=False, rng=None):
        seen.append(indices.shape[1])
        return forward(indices, lengths, train, rng)

    monkeypatch.setattr(embedding, "forward", spy)
    X = np.ones((10, 200), dtype=np.int32)
    predict_proba(model, X, np.full(10, 90))
    predict_proba(model, X, np.array([150] + [20] * 9))
    assert seen == [90, 150]


def test_attention_model_handles_fully_padded_input(tiny_matrix):
    model = build_blstm_attention(tiny_matrix, units=3, hidden=4, expected_dim=16, seed=0)
    X = np.zeros((1, 12), dtype=np.int32)
    p = predict_proba(model, X, np.array([0], dtype=np.int32))
    assert 0.0 < p[0] < 1.0


def test_forward_shape_errors_name_the_layer(tiny_matrix):
    from offlang.nn import ShapeError

    model = build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=0)
    with pytest.raises(ShapeError, match=r"layer 0 \(Embedding\)"):
        model.forward(np.array([[999]]), np.array([1]))
    with pytest.raises(ShapeError, match=r"layer 1 \(ParallelConcat\)"):
        # two timesteps cannot host a width-3 convolution window
        model.forward(np.array([[2, 3]]), np.array([2]))


@pytest.mark.parametrize("builder", [build_cnn, build_blstm_attention, build_blstm_bgru])
def test_empty_index_arrays_raise_shape_error(tiny_matrix, builder):
    from offlang.nn import ShapeError

    model = builder(tiny_matrix, hidden=4, expected_dim=16, seed=0)
    for rows, steps in ((0, 12), (3, 0)):
        with pytest.raises(ShapeError, match="non-empty"):
            model.forward(np.zeros((rows, steps), np.int32), np.zeros(rows, np.int32))
    with pytest.raises(ShapeError, match="non-empty"):
        predict_proba(model, np.zeros((3, 0), np.int32), np.zeros(3, np.int32))


def test_label_threshold():
    assert label_for(0.73) == "OFF"
    assert label_for(0.5) == "OFF"  # boundary belongs to OFF
    assert label_for(0.49) == "NOT"


def test_prediction_result_validation():
    with pytest.raises(ValueError):
        PredictionResult("1", 0.5, "MAYBE")
    with pytest.raises(ValueError):
        PredictionResult("1", 1.5, "OFF")


def records(texts):
    return Dataset(tuple(DatasetRecord(str(i), t) for i, t in enumerate(texts)))


def test_predict_and_singleton_ensemble_agree(tiny_matrix):
    vocab = Vocabulary({"you": 2, "are": 3, "bad": 4})
    model = build_cnn(tiny_matrix, filters=4, hidden=4, expected_dim=16, seed=1)
    ds = records(["you are bad", "totally fine"])
    single = ensemble_predict([model], ds, vocab, max_len=12)
    triple = ensemble_predict([model, model, model], ds, vocab, max_len=12)
    assert [r.probability for r in single] == [r.probability for r in triple]
    assert [r.label for r in single] == [r.label for r in triple]


def test_ensemble_mean_and_boundary():
    probs = ensemble_proba([np.array([0.9]), np.array([0.2]), np.array([0.4])])
    assert probs[0] == pytest.approx(0.5)
    assert label_for(float(probs[0])) == "OFF"


def test_ensemble_rejects_empty():
    with pytest.raises(ValueError):
        ensemble_proba([])


def test_ensemble_order_invariance_bit_exact():
    members = [np.array([0.13, 0.99]), np.array([0.57, 0.2]), np.array([0.31, 0.44])]
    forward = ensemble_proba(members)
    backward = ensemble_proba(members[::-1])
    rotated = ensemble_proba(members[1:] + members[:1])
    assert np.array_equal(forward, backward)
    assert np.array_equal(forward, rotated)


@given(
    st.lists(
        st.lists(st.floats(0.0, 1.0, allow_nan=False), min_size=3, max_size=3),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=200, deadline=None)
def test_ensemble_bounded_by_member_envelope(member_rows):
    members = [np.array(row) for row in member_rows]
    mean = ensemble_proba(members)
    stacked = np.stack(members)
    assert np.all(mean >= stacked.min(axis=0))
    assert np.all(mean <= stacked.max(axis=0))


def test_identical_members_bit_identical():
    p = np.array([0.123456789, 0.5, 0.99999], dtype=np.float32)
    for k in (1, 2, 3, 7):
        out = ensemble_proba([p] * k)
        assert np.array_equal(out, p.astype(np.float64))


def test_encode_dataset_labels(tiny_matrix):
    vocab = Vocabulary({"you": 2})
    ds = Dataset(
        (
            DatasetRecord("a", "you", "OFF", "TIN"),
            DatasetRecord("b", "you", "NOT"),
        )
    )
    encoded = encode_dataset(ds, vocab, max_len=4)
    assert encoded.y.tolist() == [1.0, 0.0]
    assert encoded.ids == ("a", "b")
    assert encoded.X.shape == (2, 4)


@pytest.mark.parametrize("min_count", [1, 2])
def test_encode_split_matches_split_vocabulary_encode_reference(min_count):
    unique = ["alpha", "bravo", "charlie", "delta", "echo", "foxtrot",
              "golf", "hotel", "india", "juliet", "kilo", "lima"]
    ds = Dataset(tuple(
        DatasetRecord(str(i), f"you are {'trash' if i % 2 else 'lovely'} {word}",
                      "OFF" if i % 2 else "NOT")
        for i, word in enumerate(unique)
    ))
    vocabulary, encoded_train, encoded_val = encode_split(
        ds, validation_fraction=0.34, split_seed=3, min_count=min_count, max_len=6)

    train_set, val_set = stratified_split(ds, 0.34, 3)
    reference = build_vocabulary([preprocess_pipeline(r.text) for r in train_set], min_count)
    assert vocabulary.index == reference.index
    for got, split in ((encoded_train, train_set), (encoded_val, val_set)):
        want = encode_dataset(split, reference, max_len=6)
        assert got.ids == want.ids
        assert np.array_equal(got.X, want.X)
        assert np.array_equal(got.lengths, want.lengths)
        assert np.array_equal(got.y, want.y)
    assert np.all(encoded_val.X[:, 3] == OOV_INDEX)  # validation-only words
