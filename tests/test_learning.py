"""Model-exchange primitives for the federated-learning blocks."""

import pytest

from fieldcast import aggregate
from fieldcast.errors import DomainError
from fieldcast.stdlib import average_weights, loss_based_distances, sense
from netharness import SweepNetwork, clique_topology


def quadratic_loss(center):
    return lambda model: sum((m - c) ** 2 for m, c in zip(model, center))


def distance_program():
    @aggregate
    def main():
        center = sense("center")
        model = sense("model")
        return loss_based_distances(model, quadratic_loss(center))

    return main


def test_identical_models_and_data_give_equal_losses():
    sensors = {
        n: {"center": (1.0, 0.0), "model": (0.5, 0.5)} for n in range(3)
    }
    network = SweepNetwork(clique_topology(3), sensors=sensors)
    network.sweep(distance_program())
    results = network.sweep(distance_program())
    expected = quadratic_loss((1.0, 0.0))((0.5, 0.5))
    for node, field in results.items():
        assert field[node] == 0.0
        assert all(v == pytest.approx(expected) for v in field.exclude_self().values())


def test_neighbor_model_at_own_optimum_scores_zero():
    sensors = {
        0: {"center": (2.0, 2.0), "model": (0.0, 0.0)},
        1: {"center": (9.0, 9.0), "model": (2.0, 2.0)},  # node 1 holds node 0's optimum
    }
    network = SweepNetwork(clique_topology(2), sensors=sensors)
    network.sweep(distance_program())
    results = network.sweep(distance_program())
    assert results[0][1] == 0.0


def test_losses_match_direct_computation():
    models = {0: (0.0, 1.0), 1: (2.0, -1.0), 2: (0.5, 0.5)}
    centers = {0: (1.0, 1.0), 1: (0.0, 0.0), 2: (2.0, 2.0)}
    sensors = {n: {"center": centers[n], "model": models[n]} for n in models}
    network = SweepNetwork(clique_topology(3), sensors=sensors)
    network.sweep(distance_program())
    results = network.sweep(distance_program())
    for node, field in results.items():
        for peer, loss in field.exclude_self().items():
            assert loss == pytest.approx(quadratic_loss(centers[node])(models[peer]))


def test_average_weights():
    assert average_weights([(1.0, 3.0), (3.0, 5.0)]) == (2.0, 4.0)
    assert average_weights([(7.0,)]) == (7.0,)
    # added left to right: `sum` compensates the rounding from CPython 3.12 on
    assert average_weights([(1e16,), (1.0,), (-1e16,)]) == (0.0,)


def test_average_weights_domain_errors():
    with pytest.raises(DomainError):
        average_weights([])
    with pytest.raises(DomainError):
        average_weights([(1.0,), (1.0, 2.0)])
