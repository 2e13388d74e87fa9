"""Contaminant dispersion on triangular meshes and source estimation.

The package discretises an advection-diffusion transport equation with a
linear finite-element method, simulates a network of quantised concentration
sensors subject to miss detection, and recovers the concentration field
together with an unknown source strength using a Rao-Blackwellised particle
filter.  An ensemble Kalman filter is included as a baseline estimator.
"""

from plumetrace import mesh, fem, flowfield, sensing, filters, experiment

__version__ = "0.1.0"
