"""Interpretable time-frequency convolutional networks for 1D fault signals.

The package couples a constrained, kernel-function-parameterized
convolutional layer (complex correlation + modulus) with a small 1D CNN,
trains it with hand-rolled backprop and Adam, and inspects what it learned
through the FIR frequency response of its first-layer kernels.  Import its
modules (``tfnet.nn``, ``tfnet.cli``, ...) directly; the package re-exports nothing.
"""

__version__ = "0.1.0"
