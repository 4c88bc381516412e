"""fieldcast: an aggregate-computing runtime with a native simulator.

Programs are plain Python functions built from three core operators
(``remember``, ``neighbors``, ``branch``) plus a library of self-organizing
building blocks (gradients, broadcast, convergecast, gossip, leader
election).  A deterministic discrete-event simulator executes them over
configurable topologies and deployments.
"""

from .calculus import (
    StateHandle,
    activate,
    aggregate,
    aggregate_call,
    branch,
    current_engine,
    engine_var,
    neighbors,
    remember,
    share,
)
from .engine import Engine, EngineState, Export, NodeContext, ScopeToken
from .errors import (
    AggregateError,
    AlignmentError,
    DomainError,
    EmptyFieldError,
    EncodingError,
    MissingSensorError,
    UsageError,
)
from .fields import NeighborhoodField, foldhood

__version__ = "0.1.0"

__all__ = [
    "AggregateError",
    "AlignmentError",
    "DomainError",
    "EmptyFieldError",
    "EncodingError",
    "Engine",
    "EngineState",
    "Export",
    "MissingSensorError",
    "NeighborhoodField",
    "NodeContext",
    "ScopeToken",
    "StateHandle",
    "UsageError",
    "activate",
    "aggregate",
    "aggregate_call",
    "branch",
    "current_engine",
    "engine_var",
    "foldhood",
    "neighbors",
    "remember",
    "share",
]
