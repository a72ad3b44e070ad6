"""Asynchronous approximate consensus ADMM over directed graphs.

A library plus a deterministic discrete-event simulator for distributed
optimization where nodes exchange messages over a digraph with bounded
integer delays.  The coupling variable of the ADMM split is computed by a
finite-time-terminating ratio-consensus protocol, so every node ends each
iteration holding a value within a prescribed tolerance of the network
average.
"""

from .admm import SolverConfig, run
from .consensus import run_terminating_consensus
from .digraph import build_weights, random_strongly_connected
from .netsim import DelayModel
from .oracle import centralized_solution
from .problems import generate_ls

__all__ = [
    "DelayModel",
    "SolverConfig",
    "build_weights",
    "centralized_solution",
    "generate_ls",
    "random_strongly_connected",
    "run",
    "run_terminating_consensus",
]
