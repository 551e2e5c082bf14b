"""Minimal numpy neural-network core: layers, loss, Adam, training, storage."""
from .gradcheck import (
    check_layer_gradients,
    check_model_gradients,
    max_relative_error,
    numeric_gradient,
)
from .io import ModelFormatError, load_model, save_model
from .layers import (
    AdditiveAttention,
    AvgOverTime,
    BiGRU,
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    Embedding,
    MaxOverTime,
    ModelGraph,
    ParallelConcat,
    Parameter,
    ShapeError,
    length_mask,
)
from .losses import bce_loss, bce_loss_grad
from .optim import Adam
from .training import (
    EarlyStopper,
    EncodedDataset,
    TrainConfig,
    TrainingError,
    binary_accuracy,
    predict_proba,
    train,
)

__all__ = [
    "Adam",
    "AdditiveAttention",
    "AvgOverTime",
    "BiGRU",
    "BiLSTM",
    "Conv1D",
    "Dense",
    "Dropout",
    "EarlyStopper",
    "Embedding",
    "EncodedDataset",
    "MaxOverTime",
    "ModelFormatError",
    "ModelGraph",
    "ParallelConcat",
    "Parameter",
    "ShapeError",
    "TrainConfig",
    "TrainingError",
    "bce_loss",
    "bce_loss_grad",
    "binary_accuracy",
    "check_layer_gradients",
    "check_model_gradients",
    "length_mask",
    "load_model",
    "max_relative_error",
    "numeric_gradient",
    "predict_proba",
    "save_model",
    "train",
]
