"""The paper's exact network architectures (Tables II and III).

* :func:`mlp_mnist` — Table II: three 128-neuron ReLU dense layers and a
  10-way softmax output over 28x28=784 inputs; **d = 134,794**.
* :func:`cnn_mnist` — Table III: Conv(4 filters, 3x3) + MaxPool(2x2) +
  Conv(8 filters, 3x3) + MaxPool(2x2) + Dense(128) + Dense(10);
  **d = 27,354**.

Both dimensions are asserted at construction, so any drift from the
paper's parameter counts fails loudly.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
from repro.nn.network import Network

#: Parameter-vector dimensions reported in the paper (Sec. V.2).
MLP_DIMENSION = 134_794
CNN_DIMENSION = 27_354


def mlp_mnist() -> Network:
    """Table II MLP: 784 -> 128 -> 128 -> 128 -> 10 (ReLU, softmax out)."""
    net = Network(
        [
            Dense(128), ReLU(),
            Dense(128), ReLU(),
            Dense(128), ReLU(),
            Dense(10),
        ],
        input_shape=(784,),
        name="mlp_mnist",
    )
    if net.n_params != MLP_DIMENSION:
        raise ConfigurationError(
            f"MLP dimension drifted: built d={net.n_params}, paper d={MLP_DIMENSION}"
        )
    return net


def cnn_mnist() -> Network:
    """Table III CNN: Conv4@3x3 / Pool2 / Conv8@3x3 / Pool2 / Dense128 / Dense10."""
    net = Network(
        [
            Conv2D(4, (3, 3)), ReLU(), MaxPool2D((2, 2)),
            Conv2D(8, (3, 3)), ReLU(), MaxPool2D((2, 2)),
            Flatten(),
            Dense(128), ReLU(),
            Dense(10),
        ],
        input_shape=(1, 28, 28),
        name="cnn_mnist",
    )
    if net.n_params != CNN_DIMENSION:
        raise ConfigurationError(
            f"CNN dimension drifted: built d={net.n_params}, paper d={CNN_DIMENSION}"
        )
    return net


def mlp_custom(
    input_dim: int,
    hidden: tuple[int, ...],
    n_classes: int,
    *,
    name: str = "mlp_custom",
) -> Network:
    """A configurable ReLU MLP, smaller than the paper's, on which the
    tests build their small DL problems. Every profile, quick included,
    runs :func:`mlp_mnist` / :func:`cnn_mnist`."""
    if input_dim <= 0 or n_classes <= 0 or any(h <= 0 for h in hidden):
        raise ConfigurationError(
            f"invalid MLP spec: input_dim={input_dim}, hidden={hidden}, n_classes={n_classes}"
        )
    layers: list = []
    for h in hidden:
        layers.append(Dense(h))
        layers.append(ReLU())
    layers.append(Dense(n_classes))
    return Network(layers, input_shape=(int(input_dim),), name=name)
