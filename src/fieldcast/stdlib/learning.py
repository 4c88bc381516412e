"""Coordination primitives for decentralized model training."""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from ..calculus import aggregate, neighbors
from ..errors import DomainError
from ..fields import NeighborhoodField, from_ordered


@aggregate
def loss_based_distances(
    model: Sequence[float], evaluate: Callable[[Sequence[float]], float]
) -> NeighborhoodField:
    """Distance-as-dissimilarity: each neighbor's model scored locally.

    Models are exchanged with the neighborhood; every neighbor maps to the
    loss its model achieves on this node's validation data (self maps to 0),
    so devices whose models transfer well end up close.
    """
    shared = neighbors(tuple(float(w) for w in model))
    me = shared.owner
    return from_ordered(
        me,
        {
            j: 0.0 if j == me else float(evaluate(received))
            for j, received in shared.items()
        },
    )


def average_weights(models: Iterable[Sequence[float]]) -> tuple[float, ...]:
    """Element-wise mean of equally-sized weight vectors."""
    models = list(models)
    if not models:
        raise DomainError("average_weights needs at least one model")
    totals = [0] * len(models[0])  # added in order: sum() compensates floats from 3.12 on
    for model in models:
        if len(model) != len(totals):
            raise DomainError("average_weights requires models of equal length")
        for i, weight in enumerate(model):
            totals[i] += weight
    return tuple(total / len(models) for total in totals)
