import numpy as np
import pytest

from offlang.nn import EncodedDataset


def write_olid(path, rows, has_labels=True):
    """rows: (id, text, label_a, label_b) tuples; labels may be None."""
    header = "id\ttweet\tsubtask_a\tsubtask_b" if has_labels else "id\ttweet"
    lines = [header]
    for row in rows:
        if has_labels:
            rid, text, a, b = row
            lines.append(f"{rid}\t{text}\t{a or 'NULL'}\t{b or 'NULL'}")
        else:
            rid, text = row[0], row[1]
            lines.append(f"{rid}\t{text}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def write_small_paper_inputs(root):
    """A 42-row labelled TSV and 200-d vectors for its 300 words, in ``root``.

    21 rows per class: the default 0.1 validation fraction keeps 2 of each,
    so 38 rows train, in batches of 32 and 6. Returns (data, vectors).
    """
    rng = np.random.default_rng(5)
    words = sorted({"".join(rng.choice(list("abcdefghijklmnoprstuvw"), size=int(n)))
                    for n in rng.integers(4, 9, size=300)})
    lengths = np.concatenate([[1, 2, 3], rng.integers(4, 30, size=35), [45, 60, 80, 120]])
    rows = [(str(i), " ".join(rng.choice(words, size=int(n))), "OFF" if i % 2 else "NOT", None)
            for i, n in enumerate(lengths)]
    data = write_olid(root / "train.tsv", rows)
    vectors = rng.uniform(-0.5, 0.5, size=(len(words), 200))
    lines = [f"{w} " + " ".join(f"{v:.4f}" for v in row) for w, row in zip(words, vectors)]
    embeddings = root / "vectors.txt"
    embeddings.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return data, embeddings


def separable_toy(seed=0, n=32, steps=12, vocab=20, signal=2):
    """Binary-separable synthetic set: label 1 rows contain the signal token."""
    rng = np.random.default_rng(seed)
    X = rng.integers(3, vocab, size=(n, steps))
    lengths = rng.integers(5, steps + 1, size=n)
    y = np.zeros(n, dtype=np.float32)
    for i in range(n):
        X[i, lengths[i]:] = 0
        if i % 2 == 0:
            y[i] = 1.0
            spots = rng.choice(lengths[i], size=min(3, lengths[i]), replace=False)
            X[i, spots] = signal
        else:
            row = X[i, : lengths[i]]
            row[row == signal] = signal + 1
            X[i, : lengths[i]] = row
    return EncodedDataset(X.astype(np.int32), lengths.astype(np.int32), y)


@pytest.fixture
def toy_data():
    return separable_toy()


@pytest.fixture
def tiny_matrix():
    return np.random.default_rng(1).uniform(-0.05, 0.05, size=(20, 16)).astype(np.float32)
