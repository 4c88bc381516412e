"""fieldcast: an aggregate-computing runtime with a native simulator.

Programs are plain Python functions built from four core operators
(``remember``, ``neighbors``, ``share``, ``branch``) plus a library of
self-organizing building blocks (gradients, broadcast, convergecast, gossip,
leader election).  A deterministic discrete-event simulator executes them over
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
from .engine import Engine, Export, NodeContext, ScopeToken, TemplateTable
from .errors import (
    AggregateError,
    AlignmentError,
    DomainError,
    EmptyFieldError,
    EncodingError,
    MissingSensorError,
    UnknownTemplateError,
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
    "Export",
    "MissingSensorError",
    "NeighborhoodField",
    "NodeContext",
    "ScopeToken",
    "StateHandle",
    "TemplateTable",
    "UnknownTemplateError",
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
