"""From-scratch NumPy deep-learning substrate (the paper's MiniDNN role).

The defining design decision — mirroring the paper's "substantial
refactoring ... extracting all learnable parameters into a collective
data structure" — is that a network here *owns no parameters*. All
weights live in one externally supplied flat 1-D array ``theta`` (the
ParameterVector payload); layers read their weights through zero-copy
reshaped views, and backprop writes gradients into a caller-provided
flat buffer. This makes the network a pure function
``(x, theta) -> loss, grad`` that any of the parallel SGD algorithms in
:mod:`repro.core` can drive against whichever shared / private vector
their synchronization protocol dictates.
"""

from repro.nn.parameter import ParameterLayout
from repro.nn.network import Network
from repro.nn.workspace import StepWorkspace
from repro.nn.loss import softmax_cross_entropy, softmax
from repro.nn.layers import Dense, ReLU, Flatten, Conv2D, MaxPool2D, Dropout
from repro.nn.init import normal_init, he_init, xavier_init
from repro.nn.architectures import mlp_mnist, cnn_mnist, mlp_custom, MLP_DIMENSION, CNN_DIMENSION

__all__ = [
    "ParameterLayout",
    "Network",
    "StepWorkspace",
    "softmax_cross_entropy",
    "softmax",
    "Dense",
    "ReLU",
    "Flatten",
    "Conv2D",
    "MaxPool2D",
    "Dropout",
    "normal_init",
    "he_init",
    "xavier_init",
    "mlp_mnist",
    "cnn_mnist",
    "mlp_custom",
    "MLP_DIMENSION",
    "CNN_DIMENSION",
]
