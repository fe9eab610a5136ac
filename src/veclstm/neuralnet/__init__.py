"""Minimal layer library: forward passes and hand-derived backward passes.

Each layer computes in the dtype of its parameter arrays and casts its
input to it. Training keeps float64 master weights and runs forward and
backward on a float32 copy of them; the finite-difference checks run
the same kernels in float64. Softmax and the loss are float64, and the
checkpoint stores float32 values. A one-step LSTM sequence, every input
of this pipeline, skips the forget gate and the recurrent weights,
which only ever meet the zero state.
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
from .init import glorot_uniform
from .loss import cross_entropy, softmax, softmax_cross_entropy
from .lstm import (
    LstmParams,
    LstmSequenceCache,
    lstm_backward,
    lstm_sequence,
)

__all__ = [
    "check_finite",
    "sigmoid_inplace",
    "cross_entropy",
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
    "save_checkpoint",
    "load_checkpoint",
]
