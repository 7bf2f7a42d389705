"""Fixed reference architectures, seeded fan-in-uniform initialization."""

from __future__ import annotations

import math

import numpy as np

from .layers import AvgPool, BatchNorm, Conv2d, Dense, Flatten, ReLU
from .network import Network

PRESETS = ("mlp3", "convnet-small")
# an input shape every preset accepts: their layer kinds do not depend on the shape
STAND_IN_SHAPE = (1, 4, 4)


def build_preset(name: str, in_shape, classes: int, seed: int = 0) -> Network:
    """mlp3: 3 dense layers with BN+ReLU between, taking prod(in_shape)
    features; convnet-small: two conv/BN/ReLU/pool blocks and a dense head,
    taking in_shape = (channels, height, width)."""
    rng = np.random.default_rng(seed)
    if name == "mlp3":
        layers = [
            Dense(math.prod(in_shape), 256, rng), BatchNorm(256), ReLU(),
            Dense(256, 128, rng), BatchNorm(128), ReLU(),
            Dense(128, classes, rng),
        ]
        return Network(layers)
    if name == "convnet-small":
        c, h, w = in_shape
        if h % 4 or w % 4:
            raise ValueError("convnet-small needs height/width divisible by 4")
        layers = [
            Conv2d(c, 8, 3, stride=1, padding=1, rng=rng), BatchNorm(8), ReLU(), AvgPool(2),
            Conv2d(8, 16, 3, stride=1, padding=1, rng=rng), BatchNorm(16), ReLU(), AvgPool(2),
            Flatten(),
            Dense(16 * (h // 4) * (w // 4), classes, rng),
        ]
        return Network(layers)
    raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")
