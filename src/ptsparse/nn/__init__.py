from .layers import (AvgPool, BatchNorm, Conv2d, Dense, Flatten, Layer, ReLU,
                     ShapeMismatchError)
from .network import ForwardTrace, Network, predict_distribution
from .presets import PRESETS, build_preset
from .checkpoint import (CheckpointError, layer_from_spec, load_masks, load_network,
                         save_masks, save_network)

__all__ = [
    "AvgPool", "BatchNorm", "Conv2d", "Dense", "Flatten", "Layer", "ReLU",
    "ShapeMismatchError", "layer_from_spec", "ForwardTrace", "Network",
    "predict_distribution", "PRESETS", "build_preset", "CheckpointError",
    "load_masks", "load_network", "save_masks", "save_network",
]
