import dataclasses

import numpy as np
import pytest

from infocontracts import (Contract, DimensionMismatchError, Experiment,
                           MalformedProblemError, PosteriorSeparableCost,
                           ProblemInstance, ShannonCost,
                           best_response_general, evaluate_profile, marginal,
                           posterior_matrix)
from conftest import garbled, random_experiment, random_prior, uninformative

# experiment published for the second-best contract (conditionals)
TABLE2_EXPERIMENT = np.array([[0.160, 0.514], [0.840, 0.486]])
TABLE2_CONTRACT = np.array([[0.0, 1.00], [0.702, 0.0]])
PI = np.array([2.0 / 3.0, 1.0 / 3.0])


def test_marginal_of_second_best_experiment():
    p = Experiment(TABLE2_EXPERIMENT)
    m = marginal(p, PI)
    assert abs(m[0] - 0.278) < 0.002
    assert abs(m.sum() - 1.0) < 1e-12


def test_marginal_uniform_experiment():
    p = uninformative(3, 4)
    m = marginal(p, random_prior(np.random.default_rng(0), 4))
    assert np.allclose(m, 1.0 / 3.0, atol=1e-12)


def test_marginal_matches_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        n_d, n_s = rng.integers(2, 5), rng.integers(2, 5)
        p = Experiment(random_experiment(rng, n_d, n_s))
        pi = random_prior(rng, n_s)
        expected = np.zeros(n_d)
        for d in range(n_d):
            for s in range(n_s):
                expected[d] += pi[s] * p.conditionals[d, s]
        assert np.allclose(marginal(p, pi), expected, atol=1e-14)


def test_posterior_of_uninformative_is_prior():
    rng = np.random.default_rng(1)
    pi = random_prior(rng, 3)
    p = uninformative(2, 3, weights=np.array([0.3, 0.7]))
    for row in posterior_matrix(p, pi):
        assert np.allclose(row, pi, atol=1e-12)


def test_posterior_of_binary_example_optimum():
    # prior 0.45 on the second state, payments (0,2) and (1,1)
    b = Contract([[0.0, 2.0], [1.0, 1.0]])
    pi = np.array([0.55, 0.45])
    sol = best_response_general(b, pi, ShannonCost())
    q1, q2 = posterior_matrix(sol.experiment, pi)[:, 1]
    assert abs(q2 - 0.268941) < 1e-4
    assert abs(q1 - 0.731059) < 1e-4


def test_posterior_of_a_decision_never_taken_is_nan():
    p = Experiment([[1.0, 1.0], [0.0, 0.0]])
    post = posterior_matrix(p, PI)
    assert np.array_equal(post[0], PI)
    assert np.isnan(post[1]).all()


def test_posterior_matches_bayes_loop():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n_d, n_s = 3, 4
        p = Experiment(random_experiment(rng, n_d, n_s))
        pi = random_prior(rng, n_s)
        for d in range(n_d):
            denom = sum(pi[s] * p.conditionals[d, s] for s in range(n_s))
            expected = [pi[s] * p.conditionals[d, s] / denom for s in range(n_s)]
            assert np.allclose(posterior_matrix(p, pi)[d], expected, atol=1e-13)


def test_posteriors_average_to_prior():
    rng = np.random.default_rng(3)
    for _ in range(10):
        p = Experiment(random_experiment(rng, 4, 3))
        pi = random_prior(rng, 3)
        m = marginal(p, pi)
        avg = m @ posterior_matrix(p, pi)
        assert np.allclose(avg, pi, atol=1e-12)


def test_evaluate_profile_first_best_row(example):
    # contract y - beta with the published transfer, unconstrained optimum
    beta = np.array([3.836, 6.596])
    b = Contract(example.output - beta[None, :])
    # frozen unconstrained fixed point (posteriors 0.007/0.993 in the tables)
    p = Experiment([[0.0033123, 0.9865726], [0.9966877, 0.0134274]])
    rep = evaluate_profile(b, p, example)
    assert abs(rep.expected_output - 6.633) < 0.01
    assert abs(rep.expected_payment - 1.877) < 0.01
    assert abs(rep.cost - 0.596) < 0.01


def test_evaluate_profile_second_best_row(example):
    rep = evaluate_profile(Contract(TABLE2_CONTRACT), Experiment(TABLE2_EXPERIMENT),
                           example)
    assert abs(rep.expected_output - 5.321) < 0.01
    assert abs(rep.expected_payment - 0.566) < 0.01
    assert abs(rep.cost - 0.067) < 0.01


def test_evaluate_profile_zero_contract(example):
    p = Experiment(random_experiment(np.random.default_rng(5), 2, 2))
    rep = evaluate_profile(Contract(np.zeros((2, 2))), p, example)
    assert rep.expected_payment == 0.0
    assert rep.principal_utility == rep.expected_output


def test_welfare_identity_exact(example):
    rng = np.random.default_rng(11)
    for _ in range(25):
        b = Contract(rng.uniform(-2, 8, size=(2, 2)))
        p = Experiment(random_experiment(rng, 2, 2))
        rep = evaluate_profile(b, p, example)
        assert abs(rep.welfare - (rep.agent_utility + rep.principal_utility)) < 1e-12


def test_transfer_shift_matches_figure():
    b = Contract([[0.0, 2.0], [1.0, 1.0]])
    shifted = Contract(b.payments - np.array([0.0, 1.0]))
    assert np.array_equal(shifted.payments, [[0.0, 1.0], [1.0, 0.0]])


def test_transfer_zero_is_identity():
    b = Contract([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(Contract(b.payments - np.zeros(2)).payments, b.payments)


def test_scaled_transferred_output_is_boundary_contract(example):
    # alpha' (y - beta') with beta' = (0, 5) puts the state minima at zero
    alpha_p = 0.692
    shifted = Contract(example.output - np.array([0.0, 5.0]))
    b = Contract(alpha_p * shifted.payments)
    assert np.allclose(b.payments, alpha_p * np.array([[0.0, 5.0], [5.0, 0.0]]))
    assert np.allclose(b.payments.min(axis=0), 0.0)
    assert np.all(b.payments >= 0.0) and np.all(b.payments <= example.output)


def test_garbling_never_raises_shannon_cost():
    rng = np.random.default_rng(8)
    for _ in range(50):
        p = Experiment(random_experiment(rng, 3, 3))
        pi = random_prior(rng, 3)
        g = random_experiment(rng, 3, 3).T
        cost = ShannonCost()
        assert cost.value(garbled(p, g), pi) <= cost.value(p, pi) + 1e-10


def test_values_are_immutable(example):
    with pytest.raises(ValueError):
        example.output[0, 0] = 9.0
    p = Experiment(random_experiment(np.random.default_rng(0), 2, 2))
    with pytest.raises(ValueError):
        p.conditionals[0, 0] = 0.5


def test_infeasible_contracts_are_representable(example):
    # y - beta has negative cells before truncation; still a valid value
    b = Contract(example.output - np.array([3.836, 6.596]))
    assert np.any(b.payments < 0.0)
    truncated = Contract(np.maximum(b.payments, 0.0)).payments
    assert np.all(truncated >= 0.0) and np.all(truncated <= example.output)


def test_validation_errors():
    with pytest.raises(ValueError):
        Experiment([[0.5, 0.5], [0.4, 0.5]])
    with pytest.raises(ValueError):
        ProblemInstance(("d",), ("s",), [[np.inf]], [1.0], 1.0, ShannonCost())
    with pytest.raises(ValueError):
        ProblemInstance(("d",), ("s", "t"), [[1.0, 2.0]], [0.5, 0.6], 1.0,
                        ShannonCost())
    with pytest.raises(DimensionMismatchError):
        marginal(Experiment([[1.0], [0.0]]), PI)


def test_a_prior_not_finite_is_malformed():
    # NaN fails both comparisons of the other prior checks: the instance was
    # built, and alpha_prime ran 500 Newton steps into NoConvergenceError
    with pytest.raises(MalformedProblemError, match="^/prior: entries must be finite"):
        ProblemInstance(("d1", "d2"), ("s", "t"), [[0.0, 10.0], [5.0, 5.0]],
                        [np.nan, np.nan], 0.5, ShannonCost())


@pytest.mark.parametrize("capacity", [0.0, -1.0, np.nan])
def test_a_capacity_not_positive_is_malformed(example, capacity):
    # capacity 0 was accepted, and every capacity solver then raised a plain
    # ValueError when called
    with pytest.raises(MalformedProblemError, match="^/capacity: must be positive"):
        ProblemInstance(example.decisions, example.states, example.output,
                        example.prior, capacity, example.cost_model)


@pytest.mark.parametrize("cost_model", [None, "shannon"])
def test_a_problem_without_a_cost_model_is_malformed(example, cost_model):
    # it was built, and every solver then raised AttributeError on
    # `cost_model.value` or `cost_model.logit_scale`
    with pytest.raises(MalformedProblemError, match="^/cost: must be a CostModel"):
        ProblemInstance(example.decisions, example.states, example.output,
                        example.prior, example.capacity, cost_model)


@pytest.mark.parametrize("field, labels, message", [
    ("decisions", (), "must be a nonempty list of strings"),
    ("states", [], "must be a nonempty list of strings"),
    ("decisions", "ab", "must be a nonempty list of strings"),
    ("states", ("t", 2), "must be a nonempty list of strings"),
    ("decisions", ["d1", "d1"], "labels must be unique"),
    ("states", ("t", "t"), "labels must be unique"),
])
def test_bad_labels_are_malformed(example, field, labels, message):
    # an empty tuple raised a plain ValueError; a string, a number and a
    # repeated label were accepted, and only problem files refused them
    with pytest.raises(MalformedProblemError, match=f"^/{field}: {message}$"):
        dataclasses.replace(example, **{field: labels})


def test_a_table_on_three_states_is_malformed():
    # only problem files refused it; a ProblemInstance was built, and the
    # table's solvers then raised on the number of states
    table = PosteriorSeparableCost({"grid": [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]})
    with pytest.raises(MalformedProblemError,
                       match="^/cost: a gridded uncertainty function needs two states, got 3$"):
        ProblemInstance(("d1", "d2"), ("a", "b", "c"), np.ones((2, 3)),
                        [0.5, 0.25, 0.25], 0.5, table)


@pytest.mark.parametrize("entries", [
    [[np.nan, 0.5], [0.5, 0.5]],
    [[np.nan, np.nan], [np.nan, np.nan]],
    [[0.5, 0.5], [0.5, np.nan]],
])
def test_nan_entries_are_refused(entries):
    # every comparison with NaN is false: the type once accepted these
    with pytest.raises(ValueError, match=r"experiment entries must lie in \[0, 1\]"):
        Experiment(entries)


def test_validation_messages():
    with pytest.raises(ValueError, match=r"experiment entries must lie in \[0, 1\]"):
        Experiment([[1.5, 0.5], [-0.5, 0.5]])
    with pytest.raises(ValueError, match=r"experiment columns must sum to 1, got \[0.9 1. \]"):
        Experiment([[0.5, 0.5], [0.4, 0.5]])
    # entries within the tolerance pass
    assert Experiment([[1.0 + 1e-13, 0.5], [-1e-13, 0.5]]).n_states == 2
