"""Entropy estimation toolkit for hyperbolic toral maps, suspension flows
and their perturbations."""

__version__ = "0.1.0"

from . import _kernels, config, entropy, foliation, growth, records, runner, systems
