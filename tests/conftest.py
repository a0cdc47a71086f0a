import numpy as np
import pytest

from infocontracts import Contract, Experiment, ProblemInstance, ShannonCost


@pytest.fixture
def example():
    """The built-in two-state worked example."""
    return ProblemInstance(
        decisions=("d1", "d2"),
        states=("theta1", "theta2"),
        output=[[0.0, 10.0], [5.0, 5.0]],
        prior=[2.0 / 3.0, 1.0 / 3.0],
        capacity=0.5,
        cost_model=ShannonCost(),
    )


@pytest.fixture
def output_contract(example):
    return Contract(example.output)


def random_experiment(rng, n_d, n_s, interior=0.0):
    """Random experiment, optionally bounded away from the boundary."""
    cond = rng.uniform(interior, 1.0, size=(n_d, n_s)) + interior
    return cond / cond.sum(axis=0, keepdims=True)


def uninformative(n_d, n_s, weights=None):
    """Experiment whose columns all equal `weights` (uniform by default)."""
    w = np.full(n_d, 1.0 / n_d) if weights is None else np.asarray(weights, float)
    return Experiment(np.tile(w[:, None], (1, n_s)))


def garbled(p, g):
    """The experiment `p` post-processed by the row-stochastic matrix g(d'|d):
    p'(d'|theta) = sum_d p(d|theta) g(d'|d)."""
    return Experiment(g.T @ p.conditionals)


def random_prior(rng, n_s, low=0.1):
    pi = rng.uniform(low, 1.0, size=n_s)
    return pi / pi.sum()


def comparative_advantage_instance(rng, capacity=5.0):
    """Random 2x2 instance where each decision wins in its own state and
    information has strictly positive social value."""
    from infocontracts import best_response_shannon

    while True:
        hi = rng.uniform(2.0, 6.0, size=2)
        lo = rng.uniform(0.0, 1.0, size=2)
        y = np.array([[hi[0], lo[1]], [lo[0], hi[1]]])
        pi = random_prior(rng, 2, low=0.25)
        inst = ProblemInstance(("d1", "d2"), ("s1", "s2"), y, pi,
                               capacity, ShannonCost())
        sol = best_response_shannon(inst.output_contract, pi)
        joint = sol.experiment.conditionals * pi[None, :]
        welfare = float(np.sum(joint * y)) - sol.cost
        uninformed = float(np.max(pi @ y.T))
        if welfare - uninformed > 0.05:
            return inst
