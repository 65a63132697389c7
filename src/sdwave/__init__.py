"""Traveling waves for a reaction-diffusion equation with state-dependent delay.

Computes the threshold wave speed from the leading-edge characteristic
function, solves for wave profiles by a sandwiched integral-operator
fixed-point iteration, and cross-checks the speed threshold by direct
simulation of the dynamics.
"""
kernel_backend = "numpy"  # perfbench/run.py prints it

__version__ = "0.1.0"

__all__ = ["kernel_backend", "__version__"]
