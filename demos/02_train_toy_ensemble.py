#!/usr/bin/env python3
"""Train all three architectures on a small synthetic corpus and ensemble them.

The corpus is built so that offensive examples contain telltale tokens; it
is tiny on purpose so the whole script runs in well under a minute on a
laptop CPU. With the real dataset and pre-trained 200-d tweet vectors the
flow is identical (see the README for the full-scale commands).
"""
import numpy as np

from offlang.data import Dataset, DatasetRecord
from offlang.embeddings import build_embedding_matrix, EmbeddingTable
from offlang.evaluation import confusion, report
from offlang.models import BUILDERS, encode_split, ensemble_proba, label_for
from offlang.nn import TrainConfig, predict_proba, train

rng = np.random.default_rng(0)

NASTY = ["trash", "garbage", "idiot", "disgrace", "pathetic"]
NICE = ["morning", "friends", "coffee", "weekend", "sunshine"]
FILLER = ["the", "a", "what", "so", "very", "today", "again", "really"]


def make_tweet(offensive: bool) -> str:
    words = list(rng.choice(FILLER, size=rng.integers(3, 7)))
    pool = NASTY if offensive else NICE
    for word in rng.choice(pool, size=2):
        words.insert(rng.integers(0, len(words) + 1), word)
    return " ".join(words)


records = [
    DatasetRecord(str(i), make_tweet(offensive=i % 2 == 0), "OFF" if i % 2 == 0 else "NOT")
    for i in range(120)
]
# Split, a vocabulary from the training tweets, and both sets encoded.
vocabulary, encoded_train, encoded_val = encode_split(
    Dataset(tuple(records)), validation_fraction=0.2, split_seed=1, max_len=16
)
print(f"corpus: {len(encoded_train)} train / {len(encoded_val)} validation tweets")

# A random 16-d embedding table (a real run loads 200-d pre-trained tweet
# vectors here).
dim = 16
fake_vectors = EmbeddingTable(
    dim, {w: rng.normal(scale=0.3, size=dim).astype(np.float32) for w in vocabulary.index}
)
matrix = build_embedding_matrix(vocabulary, fake_vectors, seed=2)

member_probs = []
for seed, (name, builder) in enumerate(BUILDERS.items(), start=1):
    model = builder(matrix, expected_dim=dim, seed=seed)
    history = train(model, encoded_train, encoded_val,
                    TrainConfig(max_epochs=30, seed=seed))
    probs = predict_proba(model, encoded_val.X, encoded_val.lengths)
    member_probs.append(probs)
    print(f"{name:<11} stopped after epoch {history['epochs_run']:>2} "
          f"(best {history['best_epoch']}), "
          f"final val loss {history['val_loss'][-1]:.4f}")

print("\naveraging the three members:")
probs = ensemble_proba(member_probs)
preds = [label_for(float(p)) for p in probs]
golds = [label_for(float(y)) for y in encoded_val.y]
print(report(confusion(preds, golds)).to_text())
