"""Neural-network layers operating on externally supplied flat weights."""

from repro.nn.layers.base import Layer
from repro.nn.layers.dense import Dense
from repro.nn.layers.activations import ReLU
from repro.nn.layers.flatten import Flatten
from repro.nn.layers.conv2d import Conv2D
from repro.nn.layers.maxpool import MaxPool2D

__all__ = ["Layer", "Dense", "ReLU", "Flatten", "Conv2D", "MaxPool2D"]
