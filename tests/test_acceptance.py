"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion. Criterion 8 (full-scale training on the real dataset) needs the
public data and vectors supplied via environment variables and is skipped
otherwise; see the README.
"""
import os
import time

import numpy as np
import pytest

from conftest import separable_toy
from offlang.data import load_olid
from offlang.embeddings import Vocabulary, build_embedding_matrix, encode_batch, load_embeddings
from offlang.evaluation import baseline_report, confusion, report
from offlang.heuristics import HeuristicLexicon, annotate_builtin, classify_target
from offlang.models import (
    BUILDERS,
    build_blstm_attention,
    build_blstm_bgru,
    build_cnn,
    encode_dataset,
    encode_split,
    ensemble_proba,
)
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
    TrainConfig,
    binary_accuracy,
    check_layer_gradients,
    check_model_gradients,
    predict_proba,
    train,
)
from offlang.preprocess import preprocess_pipeline

GRAD_TOL = 1e-5
TABLE_TOL = 1e-4  # "to 4 decimal places"


def announce(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\ncriterion {number} [{status}]: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def test_criterion_1_baseline_reproduction():
    started = time.perf_counter()
    golds_a = ["NOT"] * 620 + ["OFF"] * 240
    golds_b = ["TIN"] * 213 + ["UNT"] * 27
    expected = {
        ("NOT", "A"): (0.4189, 0.7209),
        ("OFF", "A"): (0.2182, 0.2790),
        ("TIN", "B"): (0.4702, 0.8875),
        ("UNT", "B"): (0.1011, 0.1125),
    }
    failures = []
    for (constant, task), (want_f1, want_acc) in expected.items():
        result = baseline_report(golds_a if task == "A" else golds_b, constant)
        if abs(result.macro_f1 - want_f1) >= TABLE_TOL:
            failures.append(f"all-{constant} macro-F1 {result.macro_f1:.6f} != {want_f1}")
        if abs(result.accuracy - want_acc) >= TABLE_TOL:
            failures.append(f"all-{constant} accuracy {result.accuracy:.6f} != {want_acc}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s (limit 1s)")
    announce(1, not failures,
             f"four constant baselines match the published table within {TABLE_TOL} "
             f"({elapsed * 1000:.0f} ms)" + ("; " + "; ".join(failures) if failures else ""))


def test_criterion_2_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(0)
    x = rng.normal(size=(3, 12, 6))
    lengths = np.array([12, 7, 0])
    worst = {}

    layer_cases = {
        "dense-identity": (Dense(6, 4, "identity", rng=np.random.default_rng(1), dtype=np.float64), x[:, 0, :], None),
        "dense-relu": (Dense(6, 4, "relu", rng=np.random.default_rng(2), dtype=np.float64), x[:, 0, :], None),
        "dense-sigmoid": (Dense(6, 4, "sigmoid", rng=np.random.default_rng(3), dtype=np.float64), x[:, 0, :], None),
        "conv1d": (Conv1D(6, 8, 3, rng=np.random.default_rng(4), dtype=np.float64), x, lengths),
        "max-over-time": (MaxOverTime(), x, lengths),
        "avg-over-time": (AvgOverTime(), x, lengths),
        "attention": (AdditiveAttention(6, 4, rng=np.random.default_rng(5), dtype=np.float64), x, lengths),
        "bilstm": (BiLSTM(6, 4, dropout=0.2, rng=np.random.default_rng(6), dtype=np.float64), x, lengths),
        "bigru": (BiGRU(6, 4, dropout=0.3, rng=np.random.default_rng(7), dtype=np.float64), x, lengths),
        "dropout": (Dropout(0.3), x, lengths),
        "embedding": (
            Embedding(np.random.default_rng(8).normal(scale=0.3, size=(12, 6)), 0.3),
            np.random.default_rng(9).integers(0, 12, size=(3, 12)),
            lengths,
        ),
    }
    for name, (layer, data, lens) in layer_cases.items():
        worst[name] = check_layer_gradients(layer, data, lens, rng_seed=17)

    matrix = rng.normal(scale=0.3, size=(12, 6))
    X = rng.integers(0, 12, size=(3, 12))
    seq_lengths = np.array([12, 7, 3])
    y = np.array([1.0, 0.0, 1.0])
    arch_cases = {
        "cnn": build_cnn(matrix, filters=8, hidden=8, expected_dim=6, seed=21, dtype=np.float64),
        "blstm_att": build_blstm_attention(matrix, units=4, hidden=8, expected_dim=6,
                                           seed=22, dtype=np.float64),
        "blstm_bgru": build_blstm_bgru(matrix, units=4, hidden=8, expected_dim=6,
                                       seed=23, dtype=np.float64),
    }
    for name, model in arch_cases.items():
        worst[name] = check_model_gradients(model, X, seq_lengths, y, rng_seed=29)

    elapsed = time.perf_counter() - started
    bad = {k: v for k, v in worst.items() if not v < GRAD_TOL}
    ok = not bad and elapsed < 120.0
    peak = max(worst, key=worst.get)
    announce(2, ok,
             f"finite-difference checks on {len(worst)} layer/architecture cases, "
             f"worst rel err {worst[peak]:.2e} ({peak}) in {elapsed:.1f}s"
             + (f"; failures: {bad}" if bad else "")
             + ("" if elapsed < 120.0 else "; over the 2 min budget"))


def test_criterion_3_overfit_sanity():
    started = time.perf_counter()
    data = separable_toy()
    matrix = np.random.default_rng(1).uniform(-0.05, 0.05, size=(20, 16)).astype(np.float32)
    config = TrainConfig(max_epochs=200)
    results = {}
    for name, builder in BUILDERS.items():
        model = builder(matrix, expected_dim=16, seed=3)
        history = train(model, data, data, config)
        probs = predict_proba(model, data.X, data.lengths)
        results[name] = (binary_accuracy(probs, data.y), history["epochs_run"])
    elapsed = time.perf_counter() - started
    bad = {k: v for k, v in results.items() if v[0] < 0.95}
    ok = not bad and elapsed < 300.0
    summary = ", ".join(f"{k}: acc={v[0]:.2f} in {v[1]} epochs" for k, v in results.items())
    announce(3, ok, f"32-example separable set ({summary}; {elapsed:.0f}s total)")


def test_criterion_4_ensemble_invariants():
    probs = [np.array([0.123, 0.987, 0.5], dtype=np.float32) for _ in range(4)]
    identical = ensemble_proba(probs)
    bit_identical = np.array_equal(identical, probs[0].astype(np.float64))

    rng = np.random.default_rng(5)
    members = [rng.uniform(size=9) for _ in range(5)]
    order_invariant = np.array_equal(
        ensemble_proba(members), ensemble_proba(members[::-1])
    ) and np.array_equal(ensemble_proba(members), ensemble_proba(members[2:] + members[:2]))
    stacked = np.stack(members)
    mean = ensemble_proba(members)
    bounded = bool(np.all(mean >= stacked.min(axis=0)) and np.all(mean <= stacked.max(axis=0)))

    ok = bit_identical and order_invariant and bounded
    announce(4, ok,
             f"identical-members bit-exact={bit_identical}, "
             f"order-invariant={order_invariant}, bounded by member envelope={bounded}")


def test_criterion_5_preprocessing_golden():
    checks = {
        '"#fatbastard" segments': preprocess_pipeline("#fatbastard") == ["fat", "bastard"],
        "censored variants map to bitch": all(
            preprocess_pipeline(v) == ["bitch"] for v in ("bi*ch", "b**ch", "bi**h", "biatch")
        ),
        '"sob" expands': preprocess_pipeline("sob") == ["son", "of", "bitch"],
        "mentions removed": preprocess_pipeline("@USER hello @other") == ["hello"],
        "hash never survives": not any(
            w.startswith("#")
            for text in ("#maga", "#GunControl now", "# #a#b", "#fatbastard!!")
            for w in preprocess_pipeline(text)
        ),
    }
    failed = [name for name, passed in checks.items() if not passed]
    announce(5, not failed,
             "preprocessing golden cases"
             + (f"; failed: {failed}" if failed else f" ({len(checks)} checks)"))


def test_criterion_6_heuristic_rule_suite():
    lexicon = HeuristicLexicon(frozenset({"#maga", "#qanon"}), frozenset({"antifa", "trump"}))
    cases = [
        (["#maga", "wins"], "TIN", 1),
        (["#MAGA", "forever"], "TIN", 1),
        (["antifa", "everywhere"], "TIN", 2),
        (["Trump", "ruined", "everything"], "TIN", 2),
        (["complete", "garbage", "everywhere"], "UNT", 3),
        (["you", "are", "a", "disgrace"], "TIN", 4),
        (["he", "is", "awful"], "TIN", 4),
        (["She", "Is", "The", "Worst"], "TIN", 4),
        (["America", "sucks"], "TIN", 6),
        (["#losers", "destroy", "Obama"], "TIN", 5),
        (["#losers", "Obama", "destroys"], "TIN", 6),
        (["utter", "rubbish"], "UNT", 3),
        (["they", "are", "pathetic"], "UNT", 7),
        (["Kavanaugh", "is", "a", "joke"], "TIN", 6),
        (["trump", "2020"], "TIN", 2),
        (["#qanon", "nonsense"], "TIN", 1),
        (["@USER", "you", "are", "scum"], "TIN", 4),
        (["so", "much", "winning"], "UNT", 3),
        (["#maga", "you", "are", "done"], "TIN", 1),
        ([], "UNT", 3),
    ]
    mismatches = []
    for tokens, want_label, want_rule in cases:
        label, trace = classify_target(annotate_builtin(tokens), lexicon)
        if (label, trace.rule_fired) != (want_label, want_rule):
            mismatches.append(
                f"{' '.join(tokens) or '<empty>'}: got ({label}, R{trace.rule_fired}), "
                f"want ({want_label}, R{want_rule})"
            )
    announce(6, not mismatches,
             f"{len(cases)}-case rule corpus, 100% agreement with hand-derived traces"
             + (f"; mismatches: {mismatches}" if mismatches else ""))


def test_criterion_7_encoding_contract():
    vocab = Vocabulary({f"w{i}": i + 2 for i in range(30)})
    rng = np.random.default_rng(7)
    all_exact = True
    for n in (0, 1, 50, 199, 200, 201, 250):
        tokens = [f"w{rng.integers(0, 40)}" for _ in range(n)]
        X, lengths = encode_batch([tokens], vocab)
        all_exact &= X.shape == (1, 200)
        all_exact &= int(lengths[0]) == min(n, 200)
    long_X, _ = encode_batch([[f"w{i % 30}" for i in range(250)]], vocab)
    first_kept = all(long_X[0, i] == vocab.lookup(f"w{i % 30}") for i in range(200))
    ok = bool(all_exact and first_kept)
    announce(7, ok, "all encodings have length exactly 200; a 250-token input keeps the first 200")


FULL_SCALE_VARS = ("OFFLANG_OLID_TRAIN", "OFFLANG_OLID_TEST", "OFFLANG_EMBEDDINGS")


@pytest.mark.slow
def test_criterion_8_full_scale_soft_bound():
    """Soft criterion: macro-F1 >= 0.70 with the public data and 200-d vectors.

    The published end-to-end number additionally depends on an unpublished
    exclusion list, seeds, and tuned hyperparameters, so this bound is
    advisory: a miss triggers investigation, not rejection.
    """
    paths = [os.environ.get(v) for v in FULL_SCALE_VARS]
    if not all(paths):
        pytest.skip(
            "full-scale run needs "
            + ", ".join(FULL_SCALE_VARS)
            + " pointing at the public training/test TSVs and the 200-d tweet vectors"
        )
    train_path, test_path, vectors_path = paths
    started = time.perf_counter()
    vocabulary, encoded_train, encoded_val = encode_split(load_olid(train_path))
    table = load_embeddings(vectors_path, 200, only=set(vocabulary.index))
    matrix = build_embedding_matrix(vocabulary, table, seed=42)

    test_set = load_olid(test_path, split_tag="test")
    encoded_test = encode_dataset(test_set, vocabulary)

    member_probs = []
    for seed, (name, builder) in enumerate(BUILDERS.items(), start=1):
        model = builder(matrix, seed=seed)
        train(model, encoded_train, encoded_val, TrainConfig(seed=seed))
        member_probs.append(predict_proba(model, encoded_test.X, encoded_test.lengths))
    probs = ensemble_proba(member_probs)
    preds = ["OFF" if p >= 0.5 else "NOT" for p in probs]
    golds = [r.label_a for r in test_set]
    result = report(confusion(preds, golds))
    elapsed = time.perf_counter() - started
    announce(8, result.macro_f1 >= 0.70,
             f"ensemble macro-F1 {result.macro_f1:.4f} on the public test set "
             f"({elapsed / 60:.0f} min)")
