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


def reference_load(path, expected_dim, only=None):
    """The loader before it learned to skip unwanted lines unparsed, except
    that it returns the skipped lines themselves, not only their number.
    Returns None where the loader must raise EmbeddingFormatError."""
    vectors, skipped, any_valid = {}, [], False
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.rstrip("\r\n").split()
            if len(parts) != expected_dim + 1:
                skipped.append(line)
                continue
            word = parts[0]
            try:
                vec = np.array([float(v) for v in parts[1:]], dtype=np.float32)
            except ValueError:
                skipped.append(line)
                continue
            any_valid = True
            if word in vectors or (only is not None and word not in only):
                continue
            vectors[word] = vec
    return (vectors, skipped) if any_valid else None


WORDS = ["a", "b", "cc", "dé"]
LINES = st.one_of(
    st.sampled_from(["", " ", "\t"]),
    st.builds(
        lambda lead, word, values, sep: lead + sep.join([word] + values),
        st.sampled_from(["", " ", "\t", " \t"]),
        st.sampled_from(WORDS),
        st.lists(st.sampled_from(["0.5", "-1e3", "2", "nan", "1_0", ".25", "x", "0.1x"]),
                 min_size=2, max_size=4),
        st.sampled_from([" ", "\t", "  ", " \t "]),
    ),
)


@given(
    st.lists(LINES, max_size=12),
    st.one_of(st.none(), st.sets(st.sampled_from(WORDS + ["zz"]))),
)
@settings(max_examples=300, deadline=None)
def test_load_embeddings_matches_full_parse(tmp_path_factory, lines, only):
    path = write_vectors(tmp_path_factory.mktemp("vec") / "v.txt", lines)
    expected = reference_load(path, 3, only)
    if expected is None:
        with pytest.raises(EmbeddingFormatError):
            load_embeddings(path, 3, only)
        return
    vectors, skipped = expected
    table = load_embeddings(path, 3, only)
    assert list(table.vectors) == list(vectors)
    assert all(table.vectors[w].tobytes() == vectors[w].tobytes() for w in vectors)
    if only is not None:  # malformed lines of words nobody asked for are not parsed
        skipped = [line for line in skipped if line.split()[:1] and line.split()[0] in only]
    assert table.skipped_lines == len(skipped)


def test_load_embeddings_unwanted_malformed_lines_not_counted(tmp_path):
    path = write_vectors(tmp_path / "v.txt", ["a 1.0 2.0", "b 1.0", "c x y", "c 1.0", "c 3.0 4.0"])
    assert load_embeddings(path, 2).skipped_lines == 3
    table = load_embeddings(path, 2, only={"c"})
    assert set(table.vectors) == {"c"} and table.skipped_lines == 2
    # before the first valid line every line is parsed, so the error stays exact
    path = write_vectors(tmp_path / "w.txt", ["b 1.0", "c x y"])
    with pytest.raises(EmbeddingFormatError, match="no valid"):
        load_embeddings(path, 2, only={"a"})


@pytest.mark.parametrize("bad_line", [2, 3000], ids=["first-block", "later-block"])
def test_load_embeddings_rejects_non_utf8(tmp_path, bad_line):
    path = tmp_path / "v.txt"
    good = b"w 0.1 0.2\n"
    path.write_bytes(good * (bad_line - 1) + b"\xff\xfe 1.0 2.0\n" + good)
    with pytest.raises(EmbeddingFormatError, match=f"v.txt:{bad_line}: not UTF-8"):
        load_embeddings(path, 2)


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
