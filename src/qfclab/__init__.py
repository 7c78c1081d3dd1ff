"""Simulation laboratory for measurement-based feedback state preparation on a qutrit."""

# the benchmark's self-test calls these two through the package root
from .qcore import basis_state, fidelity_pure_target

__version__ = "0.1.0"
