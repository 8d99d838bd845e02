"""Simulator of a qubit encoded in curvature-bound electronic states of a
graphene nanotorus: bound-state spectra under external fields, reduction to
a driven two-level system, gate synthesis, and systematic-error analysis.

The package root loads no layer: import each name from its module
(model, potential, spectral, reduction, dynamics, control, errors, cli)."""

__version__ = "0.1.0"
