"""Bilinear layers with single- and multi-head temporal attention.

A small numpy library built around exact manual forward/backward passes
for one bilinear layer with K >= 0 attention heads, which covers the three
layer kinds BL (K=0), TABL (K=1) and MTABL (K heads recombined), plus a training harness for
3-class order-book mid-price movement prediction and verification tools
(finite-difference gradient checks and a multiplication cost model with
an instrumented counter).
"""

from .data import (
    SeriesSample,
    Windows,
    load_dataset,
    load_day,
    save_dataset,
    split_days,
    synth_generate,
)
from .errors import DivergenceError
from .layers import LayerParams, layer_forward
from .linalg import count_multiplications
from .metrics import evaluate
from .network import (
    LayerSpec,
    NetworkSpec,
    init_network_params,
    network_forward,
    predict_labels,
    topology,
)
from .optim import OptimConfig, batch_gradients, train
from .serialize import load_checkpoint, save_checkpoint
from .verify import complexity_estimate, gradcheck, measure_multiplications

__version__ = "0.1.0"

__all__ = [
    "DivergenceError", "LayerParams", "LayerSpec", "NetworkSpec", "OptimConfig",
    "SeriesSample", "Windows", "batch_gradients", "complexity_estimate",
    "count_multiplications", "evaluate", "gradcheck", "init_network_params",
    "layer_forward", "load_checkpoint", "load_dataset", "load_day",
    "measure_multiplications", "network_forward", "predict_labels",
    "save_checkpoint", "save_dataset", "split_days", "synth_generate",
    "topology", "train",
]
