"""Cubed ladder operators on the harmonic oscillator.

The third powers of the standard ladder operators split the Fock space
into three invariant ladders. This package builds and verifies that
operator algebra, generates the associated closed-form Painleve IV
solutions, and constructs the three deformed coherent-state families
together with their statistics, triangle decompositions and space-time
densities.

Import from the modules (``triladder.coherent``, ...); each lists its
public names in ``__all__``.
"""

__version__ = "0.1.0"
