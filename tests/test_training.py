import math

import numpy as np
import pytest

from conftest import separable_toy
from offlang.models import build_blstm_attention, build_blstm_bgru, build_cnn
from offlang.nn import (
    Adam,
    Dense,
    EarlyStopper,
    EncodedDataset,
    Parameter,
    TrainConfig,
    TrainingError,
    bce_loss,
    binary_accuracy,
    predict_proba,
    train,
)


def test_bce_closed_forms():
    assert math.isclose(bce_loss([0.5], [1.0]), math.log(2.0), rel_tol=1e-12)
    assert bce_loss([1.0], [1.0]) < 2e-7  # clipped at eps, effectively zero
    assert math.isclose(bce_loss([0.9, 0.1], [1.0, 0.0]), -math.log(0.9), rel_tol=1e-9)


def test_bce_shape_mismatch():
    with pytest.raises(ValueError):
        bce_loss([0.5, 0.5], [1.0])


def test_adam_zero_gradient_keeps_parameters():
    p = Parameter("w", np.array([1.0, -2.0]))
    opt = Adam([p], lr=0.1)
    opt.step()
    assert np.array_equal(p.value, [1.0, -2.0])


def test_adam_first_step_magnitude():
    # One step with gradient 1 moves the scalar by about lr.
    p = Parameter("w", np.array([1.0]))
    p.grad[...] = 1.0
    Adam([p], lr=0.001).step()
    assert math.isclose(p.value[0], 0.999, abs_tol=1e-8)


def test_adam_deterministic():
    def run():
        p = Parameter("w", np.array([0.5, -0.5]))
        opt = Adam([p], lr=0.01)
        g = np.random.default_rng(3)
        for _ in range(20):
            p.grad[...] = g.normal(size=2)
            opt.step()
        return p.value.copy()

    assert np.array_equal(run(), run())


def test_early_stopper_hand_trace():
    # losses (0.7, 0.6, 0.65, 0.66) with patience 2: stop after epoch 4, best = 2.
    stopper = EarlyStopper(patience=2)
    improvements = []
    for epoch, loss in enumerate([0.7, 0.6, 0.65, 0.66], start=1):
        improvements.append(stopper.update(epoch, loss))
        if stopper.should_stop:
            break
    assert improvements == [True, True, False, False]
    assert epoch == 4
    assert stopper.best_epoch == 2


def test_early_stopper_equal_loss_is_no_improvement():
    stopper = EarlyStopper(patience=1)
    assert stopper.update(1, 0.5)
    assert not stopper.update(2, 0.5)
    assert stopper.should_stop


def test_train_restores_best_weights(tiny_matrix, toy_data):
    model = build_cnn(tiny_matrix, filters=8, hidden=8, expected_dim=16, seed=2)
    history = train(model, toy_data, toy_data, TrainConfig(max_epochs=30, seed=5))
    best = history["best_epoch"]
    assert history["val_loss"][best - 1] == min(history["val_loss"])
    # returned weights reproduce the best epoch's validation loss exactly
    probs = predict_proba(model, toy_data.X, toy_data.lengths)
    assert math.isclose(bce_loss(probs, toy_data.y), history["val_loss"][best - 1],
                        rel_tol=1e-6)


def test_train_single_epoch(tiny_matrix, toy_data):
    model = build_cnn(tiny_matrix, filters=8, hidden=8, expected_dim=16, seed=2)
    history = train(model, toy_data, toy_data, TrainConfig(max_epochs=1, seed=5))
    assert history["epochs_run"] == 1
    assert len(history["train_loss"]) == 1


def test_train_deterministic(tiny_matrix, toy_data):
    def run():
        model = build_cnn(tiny_matrix, filters=8, hidden=8, expected_dim=16, seed=2)
        train(model, toy_data, toy_data, TrainConfig(max_epochs=5, seed=5))
        return [w.copy() for w in model.get_weights()]

    for a, b in zip(run(), run()):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("builder", [build_cnn, build_blstm_attention, build_blstm_bgru])
def test_trained_bytes_do_not_depend_on_the_padded_width(tiny_matrix, builder):
    # word dropout on: the same rows padded to 200 and to 256 columns train
    # to the same weights and history
    data = separable_toy(seed=3, n=40, steps=60)
    runs = []
    for steps in (200, 256):
        X = np.pad(data.X, ((0, 0), (0, steps - 60)))
        padded = EncodedDataset(X, data.lengths, data.y)
        model = builder(tiny_matrix, expected_dim=16, seed=4)
        assert model.layers[0].word_dropout > 0
        history = train(model, padded, padded, TrainConfig(max_epochs=2, seed=6))
        runs.append((history, [w.view(np.uint32) for w in model.get_weights()]))
    (history_200, weights_200), (history_256, weights_256) = runs
    assert history_256 == history_200
    for a, b in zip(weights_200, weights_256, strict=True):
        assert np.array_equal(a, b)


def test_train_separable_toy_reaches_low_loss(tiny_matrix, toy_data):
    model = build_cnn(tiny_matrix, expected_dim=16, seed=3)
    history = train(model, toy_data, toy_data, TrainConfig(max_epochs=200, seed=7))
    assert min(history["train_loss"]) < 0.05


def test_train_aborts_on_non_finite_loss(tiny_matrix, toy_data):
    model = build_cnn(tiny_matrix, filters=8, hidden=8, expected_dim=16, seed=2)
    cfg = TrainConfig(learning_rate=1e-3, max_epochs=2, seed=5)
    for p in model.parameters():
        p.value[...] = np.nan
    with pytest.raises(TrainingError, match="epoch 1"):
        train(model, toy_data, toy_data, cfg)


def test_train_rejects_empty_sets(tiny_matrix, toy_data):
    model = build_cnn(tiny_matrix, filters=8, hidden=8, expected_dim=16, seed=2)
    empty = EncodedDataset(
        np.zeros((0, 12), dtype=np.int32), np.zeros(0, dtype=np.int32), np.zeros(0, np.float32)
    )
    with pytest.raises(ValueError):
        train(model, empty, toy_data, TrainConfig())


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)


def test_binary_accuracy():
    assert binary_accuracy([0.9, 0.1, 0.6], [1.0, 0.0, 0.0]) == pytest.approx(2 / 3)
