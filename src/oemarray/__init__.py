"""Frequency conversion in optoelectromechanical transducer arrays.

Scattering/transfer-matrix models of 1D arrays of microwave-optomechanical
transducers: conversion spectra and bandwidth, thermal and Stokes noise,
propagation loss and backscatter, and constrained coupling-profile
optimization.  The public API is the union of the modules' ``__all__``
lists, re-exported here.
"""

from .core import *
from .transducer import *
from .noise import *
from .cascade import *
from .loss import *
from .optimize import *

__version__ = "0.1.0"
