"""Numpy deep-learning framework (the offline PyTorch substitute)."""

from .dtype import default_dtype, get_default_dtype, set_default_dtype
from .tensor import Tensor, as_tensor, no_grad
from .layers import (Parameter, Module, Linear, Embedding, Dropout,
                     Conv1d, Sequential, ReLU, Tanh, Sigmoid, Flatten)
from .ops import (conv1d, max_pool1d, avg_pool1d, adaptive_max_pool1d,
                  adaptive_avg_pool1d, stable_sigmoid)
from .rnn import LSTMCell, GRUCell, RNNLayer, Bidirectional
from .attention import TokenAttention, ChannelAttention, SpatialAttention, CBAM
from .spp import SpatialPyramidPooling1d
from .optim import SGD, Adam, clip_grad_norm
from .losses import bce_loss, bce_with_logits, cross_entropy, mse_loss
from .serialize import save_model, load_model
from .data import Sample, pad_or_truncate, fixed_length_batches, bucketed_batches

__all__ = [
    "Tensor", "as_tensor", "no_grad",
    "default_dtype", "get_default_dtype", "set_default_dtype",
    "Parameter", "Module", "Linear", "Embedding", "Dropout", "Conv1d",
    "Sequential", "ReLU", "Tanh", "Sigmoid", "Flatten",
    "conv1d", "max_pool1d", "avg_pool1d", "adaptive_max_pool1d",
    "adaptive_avg_pool1d", "stable_sigmoid",
    "LSTMCell", "GRUCell", "RNNLayer", "Bidirectional",
    "TokenAttention", "ChannelAttention", "SpatialAttention", "CBAM",
    "SpatialPyramidPooling1d",
    "SGD", "Adam", "clip_grad_norm",
    "bce_loss", "bce_with_logits", "cross_entropy", "mse_loss",
    "save_model", "load_model",
    "Sample", "pad_or_truncate", "fixed_length_batches", "bucketed_batches",
]
