import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from offlang.embeddings import (
    EmbeddingFormatError,
    OOV_INDEX,
    PAD_INDEX,
    Vocabulary,
    build_embedding_matrix,
    build_vocabulary,
    encode_batch,
    load_embeddings,
)


def write_vectors(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_load_embeddings_basic(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["a 0.1 0.2", "b 0.3 0.4"])
    table = load_embeddings(path, 2)
    assert len(table) == 2 and table.dim == 2
    assert np.allclose(table.vectors["a"], [0.1, 0.2])


def test_load_embeddings_skips_malformed(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["bad 0.1", "ok 0.5 0.6", "worse x y"])
    table = load_embeddings(path, 2)
    assert set(table.vectors) == {"ok"}
    assert table.skipped_lines == 2


def test_load_embeddings_duplicate_keeps_first(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["a 1.0 2.0", "a 9.0 9.0"])
    table = load_embeddings(path, 2)
    assert np.allclose(table.vectors["a"], [1.0, 2.0])


def test_load_embeddings_all_invalid_fatal(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["nope 1.0"])
    with pytest.raises(EmbeddingFormatError):
        load_embeddings(path, 2)


def test_load_embeddings_restricted_to_word_set(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["a 1.0 2.0", "b 3.0 4.0", "c 5.0 6.0"])
    table = load_embeddings(path, 2, only={"a", "c", "missing"})
    assert set(table.vectors) == {"a", "c"}
    assert table.skipped_lines == 0
    # a restriction with no overlap is not a format error
    empty = load_embeddings(path, 2, only={"zzz"})
    assert len(empty) == 0


def test_build_vocabulary_frequency_order():
    vocab = build_vocabulary([["a", "b", "a"]])
    assert vocab.index == {"a": 2, "b": 3}


def test_build_vocabulary_min_count():
    vocab = build_vocabulary([["a", "b", "a"]], min_count=2)
    assert vocab.index == {"a": 2}


def test_build_vocabulary_empty():
    vocab = build_vocabulary([])
    assert vocab.size == 2 and vocab.index == {}


def test_build_vocabulary_tie_break_and_permutation_invariance():
    corpus_one = [["z", "a"], ["z", "a", "m"]]
    corpus_two = [["z", "a", "m"], ["z", "a"]]
    v1 = build_vocabulary(corpus_one)
    v2 = build_vocabulary(corpus_two)
    assert v1.index == v2.index
    assert v1.index == {"a": 2, "z": 3, "m": 4}  # ties alphabetical, then rarer words


def test_vocabulary_validation():
    with pytest.raises(ValueError):
        Vocabulary({"w": 0})
    with pytest.raises(ValueError):
        Vocabulary({"w": 3})


def test_build_embedding_matrix_rows(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["a 0.1 0.2"])
    table = load_embeddings(path, 2)
    vocab = build_vocabulary([["a", "zzz"]])
    matrix = build_embedding_matrix(vocab, table, seed=9)
    assert matrix.shape == (4, 2)
    assert np.array_equal(matrix[PAD_INDEX], [0.0, 0.0])
    assert np.array_equal(matrix[vocab.index["a"]], table.vectors["a"])  # bit-exact copy
    assert np.all(np.abs(matrix[OOV_INDEX]) <= 0.05)
    assert np.all(np.abs(matrix[vocab.index["zzz"]]) <= 0.05)


def test_build_embedding_matrix_deterministic(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["a 0.1 0.2"])
    table = load_embeddings(path, 2)
    vocab = build_vocabulary([["a", "zzz", "q"]])
    m1 = build_embedding_matrix(vocab, table, seed=5)
    m2 = build_embedding_matrix(vocab, table, seed=5)
    assert np.array_equal(m1, m2)
    assert not np.array_equal(m1, build_embedding_matrix(vocab, table, seed=6))


def test_encode_oov_and_padding():
    vocab = Vocabulary({"a": 2})
    X, lengths = encode_batch([["a", "zzz"]], vocab, max_len=4)
    assert X.tolist() == [[2, 1, 0, 0]]
    assert lengths.tolist() == [2]


def test_encode_empty():
    X, lengths = encode_batch([[]], Vocabulary({}), max_len=3)
    assert X.tolist() == [[0, 0, 0]]
    assert lengths.tolist() == [0]


def test_encode_truncates_to_max_len():
    vocab = Vocabulary({"w": 2})
    X, lengths = encode_batch([["w"] * 250], vocab)  # default max_len = 200
    assert X.shape == (1, 200)
    assert lengths.tolist() == [200]
    assert np.all(X == 2)


@given(st.lists(st.sampled_from(["a", "b", "zz"]), max_size=30), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_encode_contract_property(tokens, max_len):
    vocab = Vocabulary({"a": 2, "b": 3})
    X, lengths = encode_batch([tokens], vocab, max_len)
    assert X.shape == (1, max_len)
    assert lengths[0] == min(len(tokens), max_len)
    assert X.max(initial=0) < vocab.size
    assert np.all(X[0, lengths[0]:] == PAD_INDEX)


def test_encode_batch_shapes():
    vocab = Vocabulary({"a": 2})
    X, lengths = encode_batch([["a"], ["a", "a", "a"]], vocab, max_len=2)
    assert X.shape == (2, 2)
    assert lengths.tolist() == [1, 2]
