import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from infocontracts import (BoundaryPointError,
                           BregmanMatrixCost, Contract, DimensionMismatchError,
                           Experiment, NoConvergenceError,
                           PosteriorSeparableCost, ShannonCost, agent,
                           agent_kkt_residual,
                           best_response_capacity, best_response_general,
                           best_response_shannon, entropy, evaluate_profile,
                           marginal, posterior_matrix)
from conftest import random_prior

PI = np.array([2.0 / 3.0, 1.0 / 3.0])
Y = Contract([[0.0, 10.0], [5.0, 5.0]])
TABLE1A = np.array([[0.007, 0.993], [0.993, 0.007]])
TABLE1B = np.array([[0.031, 0.969], [0.969, 0.031]])


def test_first_best_unconstrained():
    sol = best_response_shannon(Y, PI)
    # the published table reports the experiment in posterior coordinates
    assert np.max(np.abs(posterior_matrix(sol.experiment, PI) - TABLE1A)) < 1e-3
    assert abs(sol.cost - 0.596) < 0.005
    assert sol.residual < 1e-9


def test_first_best_at_published_dual():
    sol = best_response_shannon(Y, PI, mu=0.446)
    assert np.max(np.abs(posterior_matrix(sol.experiment, PI) - TABLE1B)) < 1e-3


def test_truncated_contract_best_response():
    b = Contract([[0.0, 3.404], [1.164, 0.0]])
    sol = best_response_shannon(b, PI)
    expected = np.array([[0.211, 0.963], [0.789, 0.037]])
    assert np.max(np.abs(sol.experiment.conditionals - expected)) < 2e-3


def test_capacity_binding_dual():
    sol = best_response_capacity(Y, PI, 0.5, ShannonCost())
    assert abs(sol.mu - 0.446) < 2e-3
    assert abs(sol.cost - 0.5) < 1e-8
    assert np.max(np.abs(posterior_matrix(sol.experiment, PI) - TABLE1B)) < 1e-3
    # complementary slackness
    assert abs(sol.mu * (0.5 - sol.cost)) < 1e-6


def test_capacity_slack_returns_unconstrained():
    # the exact unconstrained cost is 0.59634; anything above it is slack
    sol = best_response_capacity(Y, PI, 0.60, ShannonCost())
    assert sol.mu == 0.0
    assert np.max(np.abs(posterior_matrix(sol.experiment, PI) - TABLE1A)) < 1e-3


def test_capacity_tiny_gives_uninformative():
    sol = best_response_capacity(Y, PI, 1e-7, ShannonCost())
    assert sol.cost < 1e-6
    spread = np.max(np.abs(sol.experiment.conditionals
                           - sol.experiment.conditionals.mean(axis=1, keepdims=True)))
    assert spread < 1e-2


def test_capacity_non_shannon_model_matches():
    # the generic entropy cost lands on the Shannon solution (it once took
    # the penalized general route, accurate to the posterior grid; it now
    # takes the logit route)
    shan = best_response_capacity(Y, PI, 0.5, ShannonCost())
    gen = best_response_capacity(Y, PI, 0.5, PosteriorSeparableCost("entropy"))
    assert abs(gen.cost - 0.5) < 1e-4
    assert np.max(np.abs(gen.experiment.conditionals
                         - shan.experiment.conditionals)) < 5e-3


def test_logit_self_consistency():
    rng = np.random.default_rng(0)
    for _ in range(20):
        b = Contract(rng.uniform(0, 4, size=(3, 2)))
        pi = random_prior(rng, 2)
        mu = float(rng.uniform(0, 1))
        sol = best_response_shannon(b, pi, mu=mu)
        cond = sol.experiment.conditionals
        m = marginal(sol.experiment, pi)
        w = m[:, None] * np.exp(b.payments / (1 + mu))
        fixed_point = w / w.sum(axis=0, keepdims=True)
        assert np.max(np.abs(cond - fixed_point)) < 1e-9
        assert np.max(np.abs(m - cond @ pi)) < 1e-10


def test_transfer_invariance_of_best_response():
    rng = np.random.default_rng(1)
    for _ in range(100):
        b = Contract(rng.uniform(0, 5, size=(2, 2)))
        beta = rng.uniform(-2, 2, size=2)
        pi = random_prior(rng, 2)
        s1 = best_response_shannon(b, pi)
        s2 = best_response_shannon(Contract(b.payments - beta), pi)
        assert np.max(np.abs(s1.experiment.conditionals
                             - s2.experiment.conditionals)) < 1e-6
        shift = float(pi @ beta)
        assert abs((s1.value - s2.value) - shift) < 1e-8


def test_scale_invariance_under_binding_capacity():
    model = ShannonCost()
    base = best_response_capacity(Y, PI, 0.5, model)
    alpha_bind = 1.0 / (1.0 + base.mu)
    for alpha in np.linspace(alpha_bind + 1e-4, 1.0, 7):
        scaled = best_response_capacity(Contract(alpha * Y.payments), PI, 0.5, model)
        assert np.max(np.abs(scaled.experiment.conditionals
                             - base.experiment.conditionals)) < 1e-5


def test_cost_monotone_in_dual():
    costs = [best_response_shannon(Y, PI, mu=mu).cost
             for mu in np.linspace(0.0, 3.0, 13)]
    assert all(c1 >= c2 - 1e-12 for c1, c2 in zip(costs, costs[1:]))


def test_solution_value_matches_profile(example):
    sol = best_response_shannon(Y, PI)
    rep = evaluate_profile(Y, sol.experiment, example)
    assert abs(sol.value - rep.agent_utility) < 1e-10


def test_kkt_residual_at_solver_output():
    rng = np.random.default_rng(2)
    model = ShannonCost()
    for _ in range(20):
        b = Contract(rng.uniform(0, 4, size=(2, 3)))
        pi = random_prior(rng, 3)
        sol = best_response_shannon(b, pi)
        res, rho = agent_kkt_residual(b, pi, model, sol.experiment)
        assert res < 1e-6
        assert rho.shape == (3,)


def test_kkt_residual_detects_suboptimality():
    b = Contract([[2.0, 2.0], [0.0, 0.0]])
    res, _ = agent_kkt_residual(b, PI, ShannonCost(), Experiment.uninformative(2, 2))
    assert res > 0.5


def test_kkt_residual_on_published_tables():
    b = Contract([[0.0, 1.00], [0.702, 0.0]])
    p = Experiment([[0.160, 0.514], [0.840, 0.486]])
    res, _ = agent_kkt_residual(b, PI, ShannonCost(), p)
    assert res < 1e-2


def test_kkt_residual_boundary_handling():
    with pytest.raises(BoundaryPointError):
        agent_kkt_residual(Y, PI, ShannonCost(),
                           Experiment([[1.0, 0.5], [0.0, 0.5]]))
    # a fully dropped decision row is excluded, not an error
    res, _ = agent_kkt_residual(Contract([[1.0, 1.0], [0.0, 0.0]]), PI,
                                ShannonCost(),
                                Experiment([[1.0, 1.0], [0.0, 0.0]]))
    assert np.isfinite(res)


def test_general_solver_binary_example():
    b = Contract([[0.0, 2.0], [1.0, 1.0]])
    pi = np.array([0.55, 0.45])
    sol = best_response_general(b, pi, ShannonCost())
    q = posterior_matrix(sol.experiment, pi)[:, 1]
    assert abs(max(q) - 0.731059) < 1e-4
    assert abs(min(q) - 0.268941) < 1e-4
    logit = best_response_shannon(b, pi)
    assert abs(sol.value - logit.value) < 1e-6


def test_general_solver_constant_contract():
    b = Contract([[1.5, 1.5], [1.5, 1.5]])
    sol = best_response_general(b, PI, ShannonCost())
    assert sol.cost < 1e-9
    assert abs(sol.value - 1.5) < 1e-9


def _pairwise_value_oracle(b, pi, model, n=10001):
    """Exhaustive search over posterior pairs for the two-state agent value."""
    qs = np.linspace(1e-6, 1 - 1e-6, n)
    lines = np.outer(b.payments[:, 1] - b.payments[:, 0], qs) + b.payments[:, 0][:, None]
    ups = np.array([model.upsilon(np.array([1 - q, q])) for q in qs])
    f = lines.max(axis=0) + ups
    prior = float(pi[1])
    left = qs <= prior
    right = qs >= prior
    ql, fl = qs[left], f[left]
    qr, fr = qs[right], f[right]
    best = f[np.argmin(np.abs(qs - prior))]
    chunk = 500
    for i in range(0, len(ql), chunk):
        qi = ql[i:i + chunk][:, None]
        fi = fl[i:i + chunk][:, None]
        denom = qr[None, :] - qi
        denom[denom < 1e-12] = np.inf
        val = (fi * (qr[None, :] - prior) + fr[None, :] * (prior - qi)) / denom
        best = max(best, float(val.max()))
    return best - model.upsilon(pi)


def test_general_solver_matches_pairwise_oracle():
    rng = np.random.default_rng(3)
    model = ShannonCost()
    for _ in range(5):
        b = Contract(rng.uniform(0, 3, size=(2, 2)))
        pi = random_prior(rng, 2, low=0.2)
        sol = best_response_general(b, pi, model)
        oracle = _pairwise_value_oracle(b, pi, model)
        assert abs(sol.value - oracle) < 1e-4


def test_table_needs_two_states():
    # a table has one route, the two-state hull; three states once raised a
    # ValueError from the table's gradient
    table = PosteriorSeparableCost({"grid": [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]})
    b = Contract([[0.0, 10.0, 1.0], [5.0, 5.0, 5.0]])
    pi = np.array([0.5, 0.25, 0.25])
    with pytest.raises(DimensionMismatchError, match="two states"):
        best_response_general(b, pi, table)
    with pytest.raises(DimensionMismatchError, match="two states"):
        best_response_capacity(b, pi, 0.1, table)


def test_both_routes_refuse_a_negative_dual():
    table = PosteriorSeparableCost({"grid": [[0.0, 0.0], [0.5, 0.5], [1.0, 0.0]]})
    for model in (ShannonCost(), table):
        with pytest.raises(ValueError, match="nonnegative"):
            best_response_general(Y, PI, model, mu=-0.5)


def test_single_decision_is_trivial():
    sol = best_response_shannon(Contract([[1.0, 2.0]]), PI)
    assert np.allclose(sol.experiment.conditionals, 1.0)
    assert sol.cost == 0.0


def test_consideration_set_can_collapse():
    # strictly dominant reward for the first decision: the logit fixed
    # point drops the other decision entirely
    b = Contract([[1.0, 1.0], [0.0, 0.0]])
    sol = best_response_shannon(b, PI)
    assert np.allclose(sol.experiment.conditionals[0], 1.0, atol=1e-9)
    assert sol.cost < 1e-12


# ---------------------------------------------------------------------------
# the logit Newton kernel: certificate, ties, and the faults it mends


def _logit_gap(payments, pi, cond, temp):
    """Logit certificate from scratch: g_d = sum_s pi_s w_ds / D_s is 1 on
    the support and at most 1 off it; returns the worst violation."""
    z = np.asarray(payments, float) / temp
    w = np.exp(z - z.max(axis=0, keepdims=True))
    q = np.asarray(cond) @ pi
    g = (w * (pi / (q @ w))[None, :]).sum(axis=1)
    on = q > 0
    return max(np.max(np.abs(g[on] - 1.0)), np.max(g[~on] - 1.0, initial=0.0))


STALL_Y = np.array([[3.3535, 0.0143, 0.6285],
                    [0.7930, 3.5512, 0.7258],
                    [0.2264, 0.1985, 5.2075]])
STALL_PI = np.array([0.4055, 0.3111, 0.2834])


def test_capacity_certified_where_a_marginal_decays():
    # once returned with residual 0.275: a decision whose marginal was still
    # decaying (2.4e-12) stayed in the support
    b = Contract([[4.6372, 0.6539, 0.4312, 0.8673, 0.6321],
                  [0.8103, 4.5148, 0.5437, 0.1963, 0.9961],
                  [0.2432, 0.2569, 4.7526, 0.2578, 0.7631],
                  [0.6979, 0.1287, 0.3762, 4.8739, 0.665]])
    pi = np.array([0.0363, 0.5871, 0.0934, 0.1214, 0.1618])
    sol = best_response_capacity(b, pi, 0.28599, ShannonCost())
    assert sol.residual <= 1e-9
    assert abs(sol.cost - 0.28599) <= 1e-8


def test_capacity_certified_on_stall_contract():
    # once raised NoConvergenceError: the marginal iteration stalled at
    # a change of 3.1e-10 per step
    sol = best_response_capacity(Contract(STALL_Y), STALL_PI, 0.0024668, ShannonCost())
    assert sol.mu > 0
    assert abs(sol.cost - 0.0024668) <= 1e-8
    assert sol.residual <= 1e-9
    assert _logit_gap(STALL_Y, STALL_PI, sol.experiment.conditionals, 1.0 + sol.mu) <= 1e-9


def test_capacity_tiny_is_certified():
    sol = best_response_capacity(Y, PI, 1e-7, ShannonCost())
    assert sol.residual <= 1e-9
    assert abs(sol.cost - 1e-7) <= 1e-8
    assert sol.iterations <= 5


@pytest.mark.parametrize("model", [BregmanMatrixCost(), PosteriorSeparableCost("entropy")])
@pytest.mark.parametrize("capacity", [0.5, 0.2])
def test_capacity_non_shannon_binds_within_tolerance(model, capacity):
    # the two-state route once kept its grid contacts whenever the tangency
    # polish reported slow progress, so the cost jumped in mu and the dual
    # search ended 2.7e-5 above the capacity; both models now take the
    # logit route, and a gridded table keeps the penalized route covered
    sol = best_response_capacity(Y, PI, capacity, model)
    assert abs(sol.cost - capacity) <= 1e-8
    shannon = best_response_capacity(Y, PI, capacity, ShannonCost())
    assert abs(sol.mu - shannon.mu) <= 1e-6


def test_logit_newton_steps_are_few():
    # deterministic work bound: one Newton step solves a two-state contract
    # and none is needed when the start is optimal
    assert best_response_shannon(Y, PI).iterations == 1
    assert best_response_shannon(Contract([[1.0, 1.0], [0.0, 0.0]]), PI).iterations == 0
    sol = best_response_shannon(Contract(STALL_Y), STALL_PI, mu=1.0)
    assert sol.iterations <= 10
    assert sol.residual <= 1e-9


@pytest.mark.parametrize("y, scale", [
    ([[0.0, 1000.0], [1000.0, 0.0]], 1.0),
    ([[0.0, 10.0], [5.0, 5.0]], 0.01),
])
def test_logit_certified_where_weights_underflow(y, scale):
    # logits hundreds apart: started at the decision with the best expected
    # payment, a density was zero or its ratio overflowed, and the kernel
    # raised NoConvergenceError after 500 steps of nan
    pi = np.array([0.6, 0.4])
    sol = best_response_shannon(Contract(y), pi, scale=scale)
    cond = sol.experiment.conditionals
    assert _logit_gap(y, pi, cond, scale) <= 1e-9
    assert np.allclose(cond, [[0.0, 1.0], [1.0, 0.0]], rtol=0.0, atol=1e-12)
    assert sol.iterations <= 5


def _jumping_solve(jump_mu, low_mu):
    # a stand-in for the capacity search's per-iterate logit solve whose
    # answer jumps at mu = jump_mu from the one at mu = 0 to the one at
    # low_mu; each iterate takes the temperature of its own mu, and its
    # log-partition moves with it so that its cost stays the copied
    # solve's; E[b] reads 0 at both, so that the ends' Lagrangians never
    # meet and the search bisects
    solve = agent._logit_solve

    def jumping(b, pi, mu, model):
        sol = solve(b, pi, 0.0 if mu < jump_mu else low_mu, model)
        temp = model.logit_scale * (1.0 + mu)
        shifted = np.add.reduce(sol.cond * (b.payments - b.payments.max(axis=0)), axis=0)
        return sol._replace(mu=mu, temp=temp, e_b=0.0,
                            log_part=sol.log_part + shifted * (1.0 / temp - 1.0 / sol.temp))
    return jumping


def test_capacity_jump_returns_the_end_within_capacity(monkeypatch):
    # the cost jumps from 0.596 to 0.106 at mu = 1, across the capacity
    # 0.55: the bracket closes there, and the end above the capacity
    # (nearer to it) was once returned
    low = best_response_shannon(Y, PI, mu=3.0)
    monkeypatch.setattr(agent, "_logit_solve", _jumping_solve(1.0, 3.0))
    sol = best_response_capacity(Y, PI, 0.55, ShannonCost())
    assert np.array_equal(sol.experiment.conditionals, low.experiment.conditionals)
    assert sol.cost == low.cost < 0.55
    assert abs(sol.mu - 1.0) <= 1e-12


def test_capacity_bracket_stays_finite(monkeypatch):
    # a cost that never falls: the search gives up with NoConvergenceError
    # after a bounded number of solves, where doubling log(1 + mu) past
    # 709 once overflowed
    solves = []
    jumping = _jumping_solve(np.inf, 3.0)

    def counted(b, pi, mu, model):
        solves.append(mu)
        return jumping(b, pi, mu, model)

    monkeypatch.setattr(agent, "_logit_solve", counted)
    with pytest.raises(NoConvergenceError):
        best_response_capacity(Y, PI, 0.55, ShannonCost())
    assert len(solves) <= agent.CAPACITY_MAX_SOLVES + 1
    assert all(np.isfinite(solves))


def test_logit_certified_with_rows_paid_almost_alike():
    # the first two rows differ by 6e-9 and 1.4e-8: without a ridge the
    # reduced Newton system was singular and the step stalled
    y = np.array([[3.938566707634426, 1.255895947487855],
                  [3.9385667137561957, 1.2558959335739086],
                  [1.655994970348591, 3.613489500604767]])
    pi = np.array([0.5988272879895673, 0.4011727120104327])
    mu = 0.6270522534446934
    sol = best_response_shannon(Contract(y), pi, mu=mu)
    assert _logit_gap(y, pi, sol.experiment.conditionals, 1.0 + mu) <= 1e-9
    assert sol.iterations <= 10


@st.composite
def _logit_problems(draw, max_scale=5.0):
    n_d = draw(st.integers(2, 6))
    n_s = draw(st.integers(2, 5))
    cells = st.floats(0.0, max_scale, allow_nan=False)
    y = np.array(draw(st.lists(cells, min_size=n_d * n_s, max_size=n_d * n_s)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_s, max_size=n_s))
    pi = np.asarray(weights) / np.sum(weights)
    return y.reshape(n_d, n_s), pi


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_logit_problems(), st.floats(0.0, 50.0))
def test_logit_certificate_property(problem, mu):
    y, pi = problem
    sol = best_response_shannon(Contract(y), pi, mu=mu)
    assert _logit_gap(y, pi, sol.experiment.conditionals, 1.0 + mu) <= 1e-9
    assert sol.residual <= 1e-9


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_logit_problems(max_scale=3000.0), st.floats(0.0, 50.0))
def test_logit_certificate_at_large_logits(problem, mu):
    # payments up to 3000 times the temperature: weights off each state's
    # best decision underflow (the KKT residual of such an answer once read
    # inf, since it took log p(d|theta) where p underflows)
    y, pi = problem
    sol = best_response_shannon(Contract(y), pi, mu=mu)
    assert _logit_gap(y, pi, sol.experiment.conditionals, 1.0 + mu) <= 1e-9
    assert sol.residual <= 1e-9


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_logit_problems(), st.integers(0, 5), st.floats(0.0, 5.0),
       st.sampled_from([0.0, 1e-12, 1e-9, 1e-6]))
def test_logit_duplicate_rows(problem, pick, mu, offset):
    # identical rows split their marginal equally; rows paid almost alike
    # still reach the certificate
    y, pi = problem
    copy = pick % (len(y) - 1) + 1
    y = y.copy()
    y[copy] = y[0] + offset * np.arange(1, y.shape[1] + 1)
    sol = best_response_shannon(Contract(y), pi, mu=mu)
    cond = sol.experiment.conditionals
    if offset == 0.0:
        assert np.array_equal(cond[0], cond[copy])
    assert _logit_gap(y, pi, cond, 1.0 + mu) <= 1e-9
    assert sol.residual <= 1e-9


def test_logit_kernel_splits_identical_rows_equally():
    # all-zero logits: every decision is paid the same, no step is taken
    q, cond, iters, log_part = agent._logit_kernel(np.zeros((2, 2)), PI)
    assert np.array_equal(q, np.full(2, 0.5))
    assert np.array_equal(cond, np.full((2, 2), 0.5))
    assert iters == 0
    assert np.array_equal(log_part, np.zeros(2))
    # two equal rows out of three share the marginal of the one they solve as
    z = np.array([[0.0, 3.0], [2.0, 0.5], [0.0, 3.0]])
    q, cond, _, log_part = agent._logit_kernel(z, PI)
    assert q[0] == q[2] > 0.0
    assert np.array_equal(cond[0], cond[2])
    assert abs(q.sum() - 1.0) <= 1e-15
    assert _logit_gap(z, PI, cond, 1.0) <= 1e-9
    assert np.abs(log_part - np.log(q @ np.exp(z - z.max(axis=0)))).max() <= 1e-15


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_logit_problems(max_scale=1.0), st.floats(1e-4, 0.3))
def test_logit_certificate_where_information_barely_pays(problem, size):
    # small payments put the uninformed choice near the threshold where a
    # second decision starts to be worth its information cost
    y, pi = problem
    y = size * y
    sol = best_response_shannon(Contract(y), pi)
    assert _logit_gap(y, pi, sol.experiment.conditionals, 1.0) <= 1e-9
    assert sol.residual <= 1e-9


# ---------------------------------------------------------------------------
# one cost core: the three constructors of the entropy cost are one model


ENTROPY_MODELS = (lambda scale=1.0: ShannonCost(scale=scale),
                  lambda scale=1.0: BregmanMatrixCost(scale=scale),
                  lambda scale=1.0: PosteriorSeparableCost("entropy", scale=scale))


@st.composite
def _general_problems(draw):
    n_d = draw(st.integers(3, 6))
    n_s = draw(st.integers(3, 5))
    cells = st.floats(0.0, 5.0, allow_nan=False)
    y = np.array(draw(st.lists(cells, min_size=n_d * n_s, max_size=n_d * n_s)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_s, max_size=n_s))
    return y.reshape(n_d, n_s), np.asarray(weights) / np.sum(weights)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(_general_problems())
def test_entropy_constructors_agree_in_the_general_solver(problem):
    # the generic entropy cost once raised BoundaryPointError here: its
    # finite-difference gradient needed 2e-5 of room from the boundary
    y, pi = problem
    b = Contract(y)
    sols = [best_response_general(b, pi, make()) for make in ENTROPY_MODELS]
    logit = best_response_shannon(b, pi)
    for sol in sols:
        assert np.array_equal(sol.experiment.conditionals, sols[0].experiment.conditionals)
        assert sol.residual < 1e-8
        assert abs(sol.value - logit.value) < 1e-7


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_logit_problems(), st.floats(0.05, 0.95), st.floats(0.2, 3.0))
def test_entropy_constructors_agree_under_capacity(problem, share, scale):
    y, pi = problem
    b = Contract(y[:2, :2])
    pi = pi[:2] / pi[:2].sum()
    free = best_response_shannon(b, pi, scale=scale)
    capacity = max(share * free.cost, 1e-6)
    sols = [best_response_capacity(b, pi, capacity, make(scale)) for make in ENTROPY_MODELS]
    for sol in sols:
        assert np.array_equal(sol.experiment.conditionals, sols[0].experiment.conditionals)
        assert sol.mu == sols[0].mu
        assert sol.cost <= capacity + 1e-8
        assert sol.residual <= 1e-9


def test_capacity_under_a_gridded_upsilon_keeps_within_capacity():
    # a table has no logit scale: the capacity search runs on the penalized
    # general route, whose cost jumps in mu between grid experiments
    table = PosteriorSeparableCost({"grid": [[q, 2.0 * q * (1.0 - q)]
                                             for q in np.linspace(0.0, 1.0, 201)]})
    assert table.logit_scale is None
    free = best_response_general(Y, PI, table)
    for share in (0.2, 0.6):
        sol = best_response_capacity(Y, PI, share * free.cost, table)
        assert sol.mu > 0
        assert sol.cost <= share * free.cost + 1e-12
        assert sol.cost >= 0.9 * share * free.cost


def test_gridded_two_state_route_reports_the_envelope_residual():
    # the KKT spread of this answer was 1.1e-2: it cannot vanish at the
    # kinks of a piecewise-linear uncertainty function
    table = PosteriorSeparableCost({"grid": [[q, 2.0 * q * (1.0 - q)]
                                             for q in np.linspace(0.0, 1.0, 201)]})
    sol = best_response_general(Y, PI, table.scaled(3.0))
    assert sol.residual <= 1e-7
    curve_best = max(_pairwise_value_oracle(Y, PI, table.scaled(3.0), n=2001), sol.value)
    assert sol.value >= curve_best - 1e-6


def test_residual_finite_where_a_live_conditional_underflows():
    # at cost scale 0.001 a live decision's p(d|theta) underflows to 0; the
    # residual once read inf, from log p
    sol = best_response_shannon(Y, PI, scale=0.001)
    assert np.min(sol.experiment.conditionals) == 0.0
    assert np.all(sol.experiment.conditionals @ PI > 0)
    assert sol.residual <= 1e-9
    assert np.all(np.isfinite(sol.rho))


# ---------------------------------------------------------------------------
# the exact two-state routes: the entropy on the logit kernel, a table on
# its breakpoints


def test_two_state_entropy_takes_the_logit_kernel():
    # the general solver once concavified the entropy on a 5001-point grid
    rng = np.random.default_rng(8)
    for _ in range(20):
        b = Contract(rng.uniform(0, 5, size=(2, 2)))
        pi = random_prior(rng, 2)
        scale = float(rng.uniform(0.2, 3.0))
        logit = best_response_shannon(b, pi, scale=scale)
        for make in ENTROPY_MODELS:
            sol = best_response_general(b, pi, make(scale))
            assert np.array_equal(sol.experiment.conditionals, logit.experiment.conditionals)
            assert sol.value == logit.value


def _table_value_oracle(payments, pi, knots, values):
    """Agent value under a linearly interpolated table, by pairwise search.

    An experiment gives each decision one posterior.  With two states an
    optimum splits the prior between two posteriors of two decisions, or
    keeps it whole.  For either decision, payment plus Upsilon is linear
    between the knots, so the chord value at the prior is monotone in each
    end between knots: the ends are among 0, 1, the knots and the prior.
    """
    pay = np.asarray(payments, float)
    q = float(pi[1])
    pts = np.union1d(np.clip(knots, 0.0, 1.0), [0.0, 1.0, q])
    net = pay[:, :1] + (pay[:, 1] - pay[:, 0])[:, None] * pts + np.interp(pts, knots, values)
    a, b = pts[pts <= q][:, None], pts[pts >= q][None, :]
    split = b > a
    best = net[:, pts == q].max()
    for d in range(len(pay)):
        for e in range(len(pay)):
            if d != e:
                left, right = net[d, pts <= q][:, None], net[e, pts >= q][None, :]
                with np.errstate(divide="ignore", invalid="ignore"):
                    chord = (left * (b - q) + right * (q - a)) / (b - a)
                best = max(best, np.max(chord, where=split, initial=-np.inf))
    return best - float(np.interp(q, knots, values))


def _table(knots, values):
    return PosteriorSeparableCost({"grid": np.column_stack([knots, values]).tolist()})


QUAD_KNOTS = np.linspace(0.0, 1.0, 201)
QUAD_VALUES = 2.0 * QUAD_KNOTS * (1.0 - QUAD_KNOTS)


@st.composite
def _table_problems(draw):
    n_d = draw(st.integers(2, 5))
    cells = st.floats(0.0, 5.0, allow_nan=False)
    pay = np.array(draw(st.lists(cells, min_size=2 * n_d, max_size=2 * n_d))).reshape(n_d, 2)
    # uneven knots on a 1/64 lattice; the table may stop short of 0 or 1,
    # where np.interp holds its end values
    knots = np.array(draw(st.lists(st.integers(0, 64), min_size=2, max_size=12,
                                   unique=True)), float)
    knots = np.sort(knots) / 64.0
    if draw(st.booleans()):
        slopes = np.sort(draw(st.lists(st.floats(-3.0, 3.0), min_size=len(knots) - 1,
                                       max_size=len(knots) - 1)))[::-1]
        values = np.concatenate([[0.0], np.cumsum(slopes * np.diff(knots))])
    else:
        values = np.array(draw(st.lists(st.floats(0.0, 1.0), min_size=len(knots),
                                        max_size=len(knots))))
    rise = pay[:, 1] - pay[:, 0]
    i, j = np.triu_indices(n_d, 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cross = (pay[j, 0] - pay[i, 0]) / (rise[i] - rise[j])
    on = {"knot": knots, "crossing": cross}.get(draw(st.sampled_from(["any", "knot", "crossing"])))
    inner = [] if on is None else [float(x) for x in on if 0.02 <= x <= 0.98]
    q = draw(st.sampled_from(inner)) if inner else draw(st.floats(0.02, 0.98))
    return pay, np.array([1.0 - q, q]), knots, values


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_table_problems())
def test_table_route_matches_the_pairwise_oracle(problem):
    pay, pi, knots, values = problem
    sol = best_response_general(Contract(pay), pi, _table(knots, values))
    assert abs(sol.value - _table_value_oracle(pay, pi, knots, values)) <= 1e-12
    assert sol.residual <= 1e-12


def test_table_route_reaches_the_exact_envelope():
    # the 5001-point grid missed the table's knots, where the contacts sit:
    # the answer was 3.0e-6 below the exact envelope
    sol = best_response_general(Y, PI, _table(QUAD_KNOTS, QUAD_VALUES))
    assert abs(sol.value - _table_value_oracle(Y.payments, PI, QUAD_KNOTS, QUAD_VALUES)) <= 1e-12


@pytest.mark.parametrize("capacity", [0.05, 0.2, 0.5])
def test_capacity_under_a_table_binds_by_mixing_across_the_jump(monkeypatch, capacity):
    # exact table answers make the cost a step function of mu, and the
    # search once ended on the feasible end of the closed bracket: cost
    # 0.04990, 0.1958 and 0.4867
    model = _table(QUAD_KNOTS, QUAD_VALUES).scaled(3.0)
    solves = []
    general = agent.best_response_general

    def counted(b, pi, m, mu=0.0):
        solves.append(general(b, pi, m, mu))
        return solves[-1]

    monkeypatch.setattr(agent, "best_response_general", counted)
    sol = best_response_capacity(Y, PI, capacity, model)
    # the search crawled across the jump in 139 solves at capacity 0.05
    assert len(solves) <= 12
    assert abs(sol.cost - capacity) <= 1e-8

    def lagrangian(exp):
        e_b = float(np.sum(exp.conditionals * PI * Y.payments))
        return e_b - (1.0 + sol.mu) * model.value(exp, PI)

    # each solve replaces the end of the bracket on its side of the capacity
    costs = [model.value(s.experiment, PI) for s in solves]
    lo = [s for s, c in zip(solves, costs) if c > capacity][-1]
    hi = [s for s, c in zip(solves, costs) if c < capacity][-1]
    for end in (lo, hi):
        assert abs(lagrangian(sol.experiment) - lagrangian(end.experiment)) <= 1e-9
    monkeypatch.undo()
    assert min(_wall_time(lambda: best_response_capacity(Y, PI, capacity, model))
               for _ in range(3)) < 0.05


def _wall_time(call):
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


# ---------------------------------------------------------------------------
# the capacity search: Newton steps in t = 1/(1 + mu) on the exact slope


def _counting_solves():
    """A wrapper of `agent._logit_solve` that records the dual mu of every
    call, the boundary at which a capacity search's inner solves are
    counted."""
    calls = []
    solve = agent._logit_solve

    def counted(b, pi, mu, model):
        calls.append(mu)
        return solve(b, pi, mu, model)
    return calls, counted


def _seeded_contract(rng, n_d, n_s):
    # decision d wins in state d mod n_s: every decision is live
    y = rng.uniform(0.0, 0.5, (n_d, n_s))
    for d in range(n_d):
        y[d, d % n_s] += rng.uniform(3.8, 4.2)
    return y, rng.dirichlet(np.full(n_s, 20.0))


@pytest.mark.parametrize("shape", [(2, 2), (3, 3), (4, 5), (5, 6)])
@pytest.mark.parametrize("scale", [1.0, 2.5])
def test_cost_slope_matches_a_central_difference(shape, scale):
    rng = np.random.default_rng(sum(shape))
    for _ in range(3):
        y, pi = _seeded_contract(rng, *shape)
        b = Contract(y)

        def cost(t):
            return best_response_shannon(b, pi, mu=1.0 / t - 1.0, scale=scale).cost

        for t in (0.3, 0.7, 0.95):
            sol = agent._logit_solve(b, pi, 1.0 / t - 1.0, ShannonCost(scale))
            slope = agent._cost_slope(y, pi, sol)
            h = 1e-5
            central = (cost(t + h) - cost(t - h)) / (2.0 * h)
            assert abs(slope - central) <= 1e-8 * max(1.0, abs(central))


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 3)])
def test_onset_is_where_information_starts_to_pay(shape):
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(10):
        y = rng.uniform(0.0, 5.0, shape)
        pi = random_prior(rng, shape[1])
        onset = agent._onset(y, pi)
        for scale in (0.1, 0.3, 1.0):
            t = scale * onset
            if not 0 < t < 0.9:
                continue
            checked += 1
            below = best_response_shannon(Contract(y), pi, mu=1.0 / (t * (1 - 1e-9)) - 1.0,
                                          scale=scale)
            above = best_response_shannon(Contract(y), pi, mu=1.0 / (t * (1 + 1e-6)) - 1.0,
                                          scale=scale)
            assert abs(below.cost) <= 1e-14
            assert above.cost > 1e-14
    assert checked >= 5


@pytest.mark.parametrize("capacity", [0.5, 0.55, 0.05, 1e-3, 1e-7])
def test_capacity_search_on_the_worked_example_is_short(capacity):
    # the doubling and Illinois search took 9, 13, 17 and 27 solves; the
    # search stopped within 1e-8 on either side of the capacity, and
    # answered 0.55 + 1.35e-9 at 0.55
    calls, counted = _counting_solves()
    with mock.patch.object(agent, "_logit_solve", counted):
        sol = best_response_capacity(Y, PI, capacity, ShannonCost())
    assert 1 <= len(calls) <= 8
    assert sol.cost <= capacity
    assert sol.cost > capacity - agent.CAPACITY_TOL
    assert sol.residual <= 1e-9


def test_capacity_below_the_rounding_of_an_uninformed_answer():
    # the second decision is paid more in both states, so no information
    # pays; the free answer's cost once read 1.1e-16, and the search for a
    # capacity below that raised NoConvergenceError.  It now reads 0.
    y = np.array([[1.4190324447206555, 1.570669478011511],
                  [1.5652392940996884, 2.88349858126476]])
    pi = np.array([0.4950720497714065, 0.5049279502285934])
    free = best_response_shannon(Contract(y), pi)
    assert free.cost == 0.0
    sol = best_response_capacity(Contract(y), pi, 1e-18, ShannonCost())
    assert sol.mu == 0.0
    assert np.array_equal(sol.experiment.conditionals, [[0.0, 0.0], [1.0, 1.0]])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_logit_problems(), st.floats(-9.0, float(np.log10(0.9))))
def test_capacity_search_property(problem, log_share):
    # capacity near zero (ROADMAP aim 3) down to 1e-9 of the free cost
    y, pi = problem
    b = Contract(y)
    free = best_response_shannon(b, pi)
    capacity = 10.0 ** log_share * (free.cost if free.cost > 0 else 1.0)
    calls, counted = _counting_solves()
    with mock.patch.object(agent, "_logit_solve", counted):
        sol = best_response_capacity(b, pi, capacity, ShannonCost())
    cond = sol.experiment.conditionals
    uninformed = np.all(np.abs(cond - cond[:, :1]) <= 1e-12)
    assert abs(sol.cost - capacity) < 1e-8 or (uninformed and sol.cost <= capacity)
    assert sol.cost <= capacity
    assert sol.mu >= 0
    assert sol.residual <= 1e-9
    assert 1 <= len(calls) <= 12


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_logit_problems(), st.floats(-9.0, 0.2), st.sampled_from([1.0, 0.37]))
def test_capacity_answer_is_the_logit_answer_at_its_dual(problem, log_share, scale):
    # the search certifies only its answer, by the completion that
    # best_response_shannon applies to its one solve: unless the answer
    # mixes two ends (Everett), the two agree field for field
    y, pi = problem
    b = Contract(y)
    free = best_response_shannon(b, pi, scale=scale)
    capacity = 10.0 ** log_share * (free.cost if free.cost > 0 else 1.0)
    mixed = []
    mixture = agent._mixture

    def spied(b, pi, model, above, below, *rest):
        sol = mixture(b, pi, model, above, below, *rest)
        mixed.append(sol is not below)
        return sol

    with mock.patch.object(agent, "_mixture", spied):
        sol = best_response_capacity(b, pi, capacity, ShannonCost(scale))
    assume(not any(mixed))
    logit = best_response_shannon(b, pi, mu=sol.mu, scale=scale)
    assert np.array_equal(sol.experiment.conditionals, logit.experiment.conditionals)
    assert np.array_equal(sol.rho, logit.rho)
    assert (sol.mu, sol.value, sol.cost, sol.iterations, sol.residual) == \
        (logit.mu, logit.value, logit.cost, logit.iterations, logit.residual)


@pytest.mark.parametrize("shape", [(2, 2), (3, 4), (5, 3), (5, 6)])
def test_iterate_cost_is_the_model_value(shape):
    # the search reads each iterate's cost off the kernel's log-partition;
    # the answer takes CostModel.value of the same conditionals
    rng = np.random.default_rng(sum(shape) + 11)
    for scale in (1.0, 0.37):
        model = ShannonCost(scale)
        for _ in range(4):
            y, pi = rng.uniform(0.0, 5.0, shape), random_prior(rng, shape[1])
            for mu in (0.0, 0.5, 3.0):
                sol = agent._logit_solve(Contract(y), pi, mu, model)
                exact = model.value(Experiment(sol.cond), pi)
                assert abs(agent._iterate_cost(y - y.max(axis=0), pi, sol, scale) - exact) <= 1e-12


@pytest.mark.parametrize("y, taken", [
    ([[1.4190324447206555, 1.570669478011511], [1.5652392940996884, 2.88349858126476]], 1),
    ([[1.0, 2.0], [1.0, 2.0]], 2),
    ([[3.0, 3.0], [0.0, 1.0], [3.0, 3.0]], 2),
])
def test_iterate_cost_of_an_uninformed_answer_is_zero(y, taken):
    # one decision taken, or two identical ones splitting the marginal
    b, pi = Contract(y), np.array([0.4950720497714065, 0.5049279502285934])
    sol = agent._logit_solve(b, pi, 0.0, ShannonCost())
    assert np.count_nonzero(sol.q) == taken
    assert agent._iterate_cost(b.payments - b.payments.max(axis=0), pi, sol, 1.0) == 0.0
    assert best_response_shannon(b, pi).cost == 0.0


@st.composite
def _permuted_problems(draw):
    n_d, n_s = draw(st.integers(2, 4)), draw(st.integers(2, 3))
    cells = st.floats(0.0, 5.0, allow_nan=False)
    y = np.array(draw(st.lists(cells, min_size=n_d * n_s, max_size=n_d * n_s)))
    weights = draw(st.lists(st.floats(0.05, 1.0), min_size=n_s, max_size=n_s))
    rows = np.array(draw(st.permutations(range(n_d))))
    cols = np.array(draw(st.permutations(range(n_s))))
    return y.reshape(n_d, n_s), np.asarray(weights) / np.sum(weights), rows, cols


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_permuted_problems(), st.floats(0.05, 0.95))
def test_capacity_search_is_invariant_to_labels(problem, share):
    # relabelling decisions and states permutes the experiment and leaves
    # the dual and the cost alone
    y, pi, rows, cols = problem
    free = best_response_shannon(Contract(y), pi)
    assume(free.cost > 1e-9)
    sol = best_response_capacity(Contract(y), pi, share * free.cost, ShannonCost())
    perm = best_response_capacity(Contract(y[rows][:, cols]), pi[cols], share * free.cost,
                                  ShannonCost())
    cond = sol.experiment.conditionals[rows][:, cols]
    assert np.abs(perm.experiment.conditionals - cond).max() <= 1e-9
    assert abs(perm.mu - sol.mu) <= 1e-9 * max(1.0, sol.mu)
    assert abs(perm.cost - sol.cost) <= 1e-9


@pytest.mark.parametrize("capacity", [np.nan, 0.0, -1e-8])
def test_capacity_search_refuses_a_capacity_that_is_not_positive(capacity):
    # a NaN capacity once returned an all-NaN experiment with mu = 0 and
    # residual 3.7e-16 on the worked example
    with pytest.raises(ValueError, match="capacity must be positive"):
        best_response_capacity(Y, PI, capacity, ShannonCost())


@pytest.mark.parametrize("share", [0.2, 0.5, 0.8])
def test_capacity_search_with_a_duplicated_decision(share):
    # two identical rows split their marginal, and the slope's bordered
    # system is singular: it takes the least-squares solve
    twice = Contract(Y.payments[[0, 0, 1]])
    capacity = share * best_response_shannon(Y, PI).cost
    sol = best_response_capacity(Y, PI, capacity, ShannonCost())
    dup = best_response_capacity(twice, PI, capacity, ShannonCost())
    cond = dup.experiment.conditionals
    assert abs(dup.mu - sol.mu) <= 1e-12
    assert abs(dup.cost - sol.cost) <= 1e-12
    merged = np.vstack([cond[0] + cond[1], cond[2]])
    assert np.abs(merged - sol.experiment.conditionals).max() <= 1e-12


@pytest.mark.parametrize("mu, scale", [(np.nan, 1.0), (0.0, np.nan), (0.0, 0.0),
                                       (np.nan, np.nan)])
def test_logit_refuses_a_nan_dual_or_scale_up_front(monkeypatch, mu, scale):
    # these once ran LOGIT_MAX_ITER Newton steps on NaN logits and raised
    # NoConvergenceError
    def kernel(z, pi):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(agent, "_logit_kernel", kernel)
    with pytest.raises(ValueError, match="must be"):
        best_response_shannon(Y, PI, mu=mu, scale=scale)


@pytest.mark.parametrize("model", [ShannonCost(), _table(QUAD_KNOTS, QUAD_VALUES)])
def test_general_refuses_a_nan_dual(monkeypatch, model):
    monkeypatch.setattr(agent, "_logit_kernel", None)
    with pytest.raises(ValueError, match="capacity dual mu must be nonnegative"):
        best_response_general(Y, PI, model, np.nan)
