"""Minimal layer library: forward passes and hand-derived backward passes.

Arrays are float64 numpy throughout compute; float32 only at the
checkpoint boundary.
"""

from .activations import check_finite, sigmoid_inplace
from .checkpoint import load_checkpoint, save_checkpoint
from .cnn import (
    Conv1dParams,
    conv1d_backward,
    conv1d_forward,
    maxpool1d_backward,
    maxpool1d_forward,
)
from .dense import DenseParams, dense_backward, dense_forward
from .init import glorot_uniform, init_conv1d, init_dense, init_lstm
from .loss import softmax, softmax_cross_entropy
from .lstm import (
    LstmParams,
    LstmSequenceCache,
    lstm_backward,
    lstm_sequence,
)

__all__ = [
    "check_finite",
    "sigmoid_inplace",
    "softmax",
    "softmax_cross_entropy",
    "DenseParams",
    "dense_forward",
    "dense_backward",
    "Conv1dParams",
    "conv1d_forward",
    "conv1d_backward",
    "maxpool1d_forward",
    "maxpool1d_backward",
    "LstmParams",
    "LstmSequenceCache",
    "lstm_sequence",
    "lstm_backward",
    "glorot_uniform",
    "init_lstm",
    "init_dense",
    "init_conv1d",
    "save_checkpoint",
    "load_checkpoint",
]
