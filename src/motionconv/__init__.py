"""Motion-compensated convolution for video feature extraction.

Key frames run dense convolution; the frames that follow reuse cached
layer outputs through stride-aligned block matching and convolve only the
thresholded residuals. Every floating-point operation is counted
exactly and reconciled against a closed-form cost model.
"""

from .analysis import (
    CostModel,
    acceleration,
    build_report,
    model_conv_flops,
    model_nonkey_flops,
    write_report_csv,
    write_report_json,
)
from .bayer import BayerFrame, load_raw_sequence, mosaic, pack, save_raw_sequence
from .layer import LayerCache, MotionCompLayer
from .ledger import FlopsLedger
from .motion import MotionField, MotionParams
from .scheduler import GopConfig, Network, RunResult, run_sequence
from .synth import SceneSpec, generate, random_conv_spec
from .tensors import ConvSpec, conv2d, load_weights, save_weights

__version__ = "0.1.0"
