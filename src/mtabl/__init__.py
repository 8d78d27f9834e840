"""Bilinear layers with single- and multi-head temporal attention.

A small numpy library built around exact manual forward/backward passes
for one bilinear layer with K >= 0 attention heads, which covers the three
layer kinds BL (K=0), TABL (K=1) and MTABL (K heads recombined), plus a training harness for
3-class order-book mid-price movement prediction and verification tools
(finite-difference gradient checks, structural reduction checks, and a
multiplication cost model with an instrumented counter).
"""

from .data import (
    Dataset,
    RawDayMatrix,
    SeriesSample,
    load_day,
    load_dataset,
    normalize,
    save_dataset,
    split_days,
    synth_generate,
    windowize,
)
from .errors import (
    CacheMismatchError,
    ConfigurationError,
    ConstraintError,
    DataError,
    DimensionError,
    DivergenceError,
    FormatError,
    MtablError,
    ParseError,
)
from .layers import LayerCache, LayerParams, layer_backward, layer_forward, layer_layout
from .linalg import Matrix, count_multiplications, softmax_rows
from .losses import cross_entropy, inverse_frequency_weights, uniform_weights
from .metrics import EvalReport, confusion_matrix, evaluate
from .network import (
    LayerSpec,
    NetworkParams,
    NetworkSpec,
    init_network_params,
    network_backward,
    network_forward,
    predict_labels,
    topology,
)
from .optim import OptimConfig, TrainState, batch_gradients, step, train
from .serialize import load_checkpoint, save_checkpoint
from .verify import (
    ComplexityEstimate,
    GradCheckReport,
    ReductionReport,
    check_reduction,
    complexity_estimate,
    draw_gradcheck_sample,
    gradcheck,
    gradcheck_layer,
    measure_multiplications,
    tabl_complexity_total,
)

__version__ = "0.1.0"

__all__ = [
    "CacheMismatchError", "ComplexityEstimate", "ConfigurationError",
    "ConstraintError", "DataError", "Dataset", "DimensionError", "DivergenceError",
    "EvalReport", "FormatError", "GradCheckReport", "LayerCache", "LayerParams",
    "LayerSpec", "Matrix", "MtablError", "NetworkParams", "NetworkSpec", "OptimConfig",
    "ParseError", "RawDayMatrix", "ReductionReport", "SeriesSample",
    "TrainState", "batch_gradients", "check_reduction",
    "complexity_estimate", "confusion_matrix", "count_multiplications",
    "cross_entropy", "draw_gradcheck_sample", "evaluate", "gradcheck",
    "gradcheck_layer",
    "init_network_params", "inverse_frequency_weights", "layer_backward",
    "layer_forward", "layer_layout", "load_checkpoint", "load_dataset", "load_day",
    "measure_multiplications", "network_backward",
    "network_forward", "normalize", "predict_labels", "save_checkpoint",
    "save_dataset", "softmax_rows", "split_days", "step", "synth_generate",
    "tabl_complexity_total", "topology", "train",
    "uniform_weights", "windowize",
]
