"""Truncated Fock-space simulator for heralded magnon-magnon entanglement.

Exact density-matrix pipelines for the entangling and read-out stages of a
two-station interferometric protocol, the thermal-contamination closed
forms, a cross-correlation entanglement witness, and a Monte Carlo click
sampler validated against the exact engine.

The package namespace holds the README quick start's names; import every
other name from its module.
"""

from .fock import fidelity_with_pure
from .protocol import ProtocolConfig, entangle_stage, ideal_target_state, witness_exact

__version__ = "0.1.0"
