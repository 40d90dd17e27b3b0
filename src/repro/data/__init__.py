"""Datasets and batching.

The paper trains on MNIST; this environment has no network access, so
:mod:`repro.data.synthetic_mnist` generates a procedural 10-class
28x28 digit-glyph dataset with the same shapes, class count and batching
(see DESIGN.md section 2 for the substitution argument).
"""

from repro.data.synthetic_mnist import SyntheticMNIST, generate_synthetic_mnist
from repro.data.batcher import MiniBatcher, Dataset

__all__ = [
    "SyntheticMNIST",
    "generate_synthetic_mnist",
    "MiniBatcher",
    "Dataset",
]
