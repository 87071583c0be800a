"""Interpretable time-frequency convolutional networks for 1D fault signals.

The package couples a constrained, kernel-function-parameterized
convolutional layer (complex correlation + modulus) with a small 1D CNN,
trains it with hand-rolled backprop and Adam, and inspects what it learned
through the FIR frequency response of its first-layer kernels.
"""

from tfnet.kernels import KernelFamily
from tfnet.nn import Model, TFconvLayer, assemble_model
from tfnet.training import TrainConfig, TrainHistory, evaluate, train
from tfnet.data import Dataset, SynthSpec, split, synth_generate, synthbearing5
from tfnet.interpret import (BandDistance, FrequencyResponse, band_coverage,
                             channel_frequency_response, dataset_spectrum)
from tfnet.checkpoint import load_model, save_model

__version__ = "0.1.0"

__all__ = [
    "BandDistance",
    "Dataset",
    "FrequencyResponse",
    "KernelFamily",
    "Model",
    "SynthSpec",
    "TFconvLayer",
    "TrainConfig",
    "TrainHistory",
    "assemble_model",
    "band_coverage",
    "channel_frequency_response",
    "dataset_spectrum",
    "evaluate",
    "load_model",
    "save_model",
    "split",
    "synth_generate",
    "synthbearing5",
    "train",
]
