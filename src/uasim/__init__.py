"""Desk-scale tools for unitary averaging in linear optics.

Averaging runs N noisy copies of an optical gate in parallel between a
splitter-tree encoder and decoder; postselecting on the primary output rails
applies the mean of the copies and converts coherent gate error into heralded
loss.  This package provides the closed-form success/fidelity laws, exact
small-circuit simulation of the averaging network, Monte Carlo estimators
over the noise ensemble, the parity-code recovery model for the heralded
losses, and fault-tolerance region maps under the effective-rate picture.
"""

__version__ = "0.1.0"
