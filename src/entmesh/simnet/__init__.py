"""Deterministic multi-node simulation of entangled commitment networks."""

from .engine import (
    Equivocate,
    ForkHistory,
    Simulation,
    WithholdReceipt,
    measure_latency,
)
from .topology import (
    Topology,
    centralized,
    chain,
    fan,
    federated,
    interoperated,
    ring,
    validate_topology,
)

__all__ = [
    "Equivocate",
    "ForkHistory",
    "Simulation",
    "Topology",
    "WithholdReceipt",
    "centralized",
    "chain",
    "fan",
    "federated",
    "interoperated",
    "measure_latency",
    "ring",
    "validate_topology",
]
