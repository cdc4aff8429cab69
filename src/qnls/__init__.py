"""Pseudospectral toolkit for a quadratic dispersive model on the circle.

The model is a Schroedinger-type evolution with a derivative-weighted
square nonlinearity.  The package provides the spectral grid and
Littlewood-Paley helpers, bilinear symbol contractions and their
time-integrated lifts, space-time norms, a fourth-order integrating-factor
scheme, a discrete trilinear-form estimator, and the experiment drivers
plus acceptance suite wired to the ``qnls`` command."""

__version__ = "0.1.0"
