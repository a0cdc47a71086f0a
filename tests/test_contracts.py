import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from infocontracts import cli, contracts, reduced
from infocontracts import (BregmanMatrixCost, Contract, Experiment,
                           InconsistentProfileError,
                           NoConvergenceError, NoPatternFoundError,
                           OutOfRangeError,
                           PosteriorSeparableCost, ProblemInstance,
                           ShannonCost, TooLargeError,
                           agent_kkt_residual, alpha_prime, alpha_star, best_response_capacity,
                           best_response_general, best_response_shannon, brute_force_pareto,
                           debt_equity_split, decompose, evaluate_profile,
                           first_best_frontier, gamma_from_duals,
                           gamma_risk_averse, marginal,
                           second_best_solve, solve_for_reservation)
from conftest import comparative_advantage_instance

PI = np.array([2.0 / 3.0, 1.0 / 3.0])


def test_alpha_prime_example(example):
    assert abs(alpha_prime(example) - 0.692) < 2e-3


def test_alpha_prime_slack_capacity(example):
    loose = ProblemInstance(example.decisions, example.states, example.output,
                            example.prior, 0.60, example.cost_model)
    assert alpha_prime(loose) == 1.0


def test_alpha_prime_one_for_large_capacity():
    rng = np.random.default_rng(0)
    for _ in range(3):
        y = rng.uniform(0, 5, size=(2, 2))
        inst = ProblemInstance(("a", "b"), ("s", "t"), y, [0.5, 0.5], 50.0,
                               ShannonCost())
        assert alpha_prime(inst) == 1.0


def test_first_best_frontier_lower_boundary(example):
    contract, sol = first_best_frontier(example, 2.853)
    ap = alpha_prime(example)
    expected = ap * (example.output - np.array([0.0, 5.0])[None, :])
    assert np.max(np.abs(contract.payments - expected)) < 5e-3
    assert abs(sol.value - 2.853) < 5e-3
    # minimum payment in each state touches zero at the lower endpoint
    assert np.max(contract.payments.min(axis=0)) < 1e-9


def test_first_best_frontier_upper_boundary(example):
    contract, sol = first_best_frontier(example, 6.014)
    assert np.max(np.abs(contract.payments - example.output)) < 5e-3
    assert abs(sol.value - 6.014) < 5e-3


def test_first_best_welfare_constant_along_frontier(example):
    base = best_response_capacity(example.output_contract, example.prior,
                                  example.capacity, example.cost_model)
    welfare_ref = evaluate_profile(example.output_contract, base.experiment,
                                   example).welfare
    for r in (3.0, 4.2, 5.5, 6.0):
        contract, sol = first_best_frontier(example, r)
        rep = evaluate_profile(contract, sol.experiment, example)
        assert abs(rep.welfare - welfare_ref) < 1e-5
        assert abs(rep.agent_utility - r) < 1e-5


def test_first_best_frontier_out_of_range(example):
    with pytest.raises(OutOfRangeError):
        first_best_frontier(example, 6.5)
    with pytest.raises(OutOfRangeError):
        first_best_frontier(example, 2.0)


def test_second_best_reproduces_published_tables(example):
    sol = second_best_solve(example, xi=0.0, alpha=1.0)
    assert np.max(np.abs(sol.contract.payments
                         - np.array([[0.0, 1.00], [0.702, 0.0]]))) < 0.02
    assert np.max(np.abs(sol.experiment.conditionals
                         - np.array([[0.160, 0.514], [0.840, 0.486]]))) < 5e-3
    assert np.max(np.abs(sol.decomposition.beta - np.array([3.836, 6.596]))) < 0.02
    assert np.max(np.abs(sol.decomposition.gamma
                         - np.array([[-3.836, 2.404], [0.462, -1.596]]))) < 0.02
    assert sol.residual < 1e-6


def test_second_best_dual_identities(example):
    for xi in (0.0, 0.3, 0.7):
        sol = second_best_solve(example, xi=xi, alpha=1.0)
        lam_sums = sol.duals.lam.sum(axis=0)
        assert np.max(np.abs(lam_sums - (1 - xi) * example.prior)) < 1e-6
        # minimum payment zero in each state, and feasibility
        assert np.max(np.abs(sol.contract.payments.min(axis=0))) < 1e-8
        assert np.all(sol.contract.payments >= -1e-10)
        assert np.all(sol.contract.payments <= example.output + 1e-10)
        # reconstruction b = alpha y - beta - gamma
        recon = sol.decomposition.reconstruct(example.output)
        assert np.max(np.abs(recon - sol.contract.payments)) < 1e-8


def test_second_best_uniform_prior_is_affine():
    inst = ProblemInstance(("d1", "d2"), ("t1", "t2"), [[0.0, 10.0], [5.0, 5.0]],
                           [0.5, 0.5], 0.5, ShannonCost())
    for xi, alpha in ((0.0, 1.0), (0.2, 0.8)):
        sol = second_best_solve(inst, xi=xi, alpha=alpha)
        m = marginal(sol.experiment, inst.prior)
        assert np.max(np.abs(m - 0.5)) < 1e-9
        pay = sol.contract.payments
        assert abs(pay[0, 1] - pay[1, 0]) < 1e-9
        t = (1 - xi) / sol.experiment.conditionals[0, 0]
        assert abs(pay[0, 1] - (5 * alpha - t)) < 1e-9
        assert pay[0, 0] == 0.0 and pay[1, 1] == 0.0


def test_continuity_seam_with_first_best(example):
    # alpha* here comes from a polish that holds only the multipliers above
    # 1e-2 of their slack active
    ast = alpha_star(example, 2.853)
    assert abs(ast - 0.692) < 5e-3
    seam = second_best_solve(example, xi=1.0, alpha=ast)
    boundary, _ = first_best_frontier(example, 2.853)
    assert np.max(np.abs(seam.contract.payments - boundary.payments)) < 0.01


def test_alpha_star_one_when_capacity_loose(example):
    # at the low reservation utility of the xi=0 point, the optimal
    # experiment is cheap and the capacity constraint stays slack
    base = second_best_solve(example, 0.0, 1.0)
    assert alpha_star(example, base.report.agent_utility) == 1.0


@settings(max_examples=25, deadline=None, derandomize=True)
@given(st.floats(9.0, 11.0), st.floats(4.5, 5.5), st.floats(0.28, 0.38), st.floats(0.5, 3.0),
       st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3))
@example(10.0, 5.0, 1 / 3, 2.0, [0.3, 0.5, 0.8])
@example(10.0, 5.0, 1 / 3, 2.8, [0.3, 0.5, 0.8])
def test_alpha_star_monotone_in_capacity(h, s, p2, r, capacities):
    # Result 1: the piece rate that stands in for the capacity rises with
    # the set of experiments the agent can afford.  The worked example at
    # capacities 0.3, 0.5 and 0.8 once needed slacks of 1e-3 and 2e-3
    alphas, primes = [], []
    for cap in sorted(capacities):
        inst = ProblemInstance(("d1", "d2"), ("t1", "t2"), [[0.0, h], [s, s]],
                               [1.0 - p2, p2], cap, ShannonCost())
        try:
            alphas.append(alpha_star(inst, r))
        except OutOfRangeError:
            # r lies above the range at this capacity, which only grows
            assert not alphas
            continue
        primes.append(alpha_prime(inst))
    assert all(a <= b + 1e-9 for a, b in zip(alphas, alphas[1:]))
    assert primes == sorted(primes)


def test_solve_for_reservation_hits_target(example):
    sol = solve_for_reservation(example, 1.8, alpha=1.0)
    assert abs(sol.report.agent_utility - 1.8) < 1e-4
    assert 0.0 < sol.duals.xi < 1.0


def test_gamma_from_duals_published_multipliers(example):
    sol = second_best_solve(example, 0.0, 1.0)
    lam = np.array([[2.0 / 3.0, 0.0], [0.0, 1.0 / 3.0]])
    gamma = gamma_from_duals(sol.experiment, example.prior, example.cost_model, lam)
    assert np.max(np.abs(gamma - np.array([[-3.836, 2.404], [0.462, -1.596]]))) < 0.02


def test_gamma_zero_at_first_best(example):
    p = best_response_shannon(example.output_contract, example.prior).experiment
    gamma = gamma_from_duals(p, example.prior, example.cost_model, np.zeros((2, 2)))
    assert np.max(np.abs(gamma)) < 1e-12


def test_gamma_closed_form_matches_hessian_contraction():
    # the closed form of gamma_from_duals is the Hessian contraction H phi /
    # pi, phi = (1 - xi) p - lam / pi, of the general formula, whatever xi
    # (H p = 0)
    rng = np.random.default_rng(1)
    for shape in ((2, 2), (3, 2), (2, 3), (3, 4)):
        model = ShannonCost(float(rng.uniform(0.2, 3.0)))
        for _ in range(10):
            cond = rng.uniform(0.05, 1.0, size=shape)
            cond /= cond.sum(axis=0, keepdims=True)
            p = Experiment(cond)
            pi = rng.dirichlet(np.ones(shape[1]))
            lam = rng.uniform(0, 0.5, size=shape)
            xi = float(rng.uniform(0, 1))
            gamma = gamma_from_duals(p, pi, model, lam)
            phi = cond * (1 - xi) - lam / pi[None, :]
            general = (model.hessian(p, pi) @ phi.ravel()).reshape(shape) / pi[None, :]
            assert np.max(np.abs(gamma - general)) <= 1e-9


def test_decompose_published_profile(example):
    sol = second_best_solve(example, 0.0, 1.0)
    deco, duals = decompose(sol.contract, example, sol.experiment, alpha=1.0)
    assert abs(duals.xi - 0.0) < 1e-6
    assert np.max(np.abs(deco.beta - sol.decomposition.beta)) < 1e-6
    assert np.max(np.abs(deco.gamma - sol.decomposition.gamma)) < 1e-6
    assert np.max(np.abs(duals.lam - sol.duals.lam)) < 1e-6


def test_decompose_first_best_profile(example):
    p = best_response_shannon(example.output_contract, example.prior).experiment
    deco, duals = decompose(example.output_contract, example, p, alpha=1.0)
    assert np.max(np.abs(deco.beta)) < 1e-6
    assert np.max(np.abs(deco.gamma)) < 1e-6
    assert abs(duals.xi - 1.0) < 1e-6


def test_decompose_rejects_garbage(example):
    bad = Contract([[0.0, 7.0], [0.3, 0.0]])
    p = best_response_shannon(example.output_contract, example.prior).experiment
    with pytest.raises(InconsistentProfileError):
        decompose(bad, example, p, alpha=1.0)


def test_decompose_oracle_point_within_grid_tolerance(example):
    sol = second_best_solve(example, 0.0, 1.0)
    bc, bp = brute_force_pareto(example, r=sol.report.agent_utility, grid_n=21)
    step = np.max(example.output) / 20
    deco, duals = decompose(bc, example, bp, alpha=1.0, residual_tol=step)
    recon = deco.reconstruct(example.output)
    assert np.max(np.abs(recon - bc.payments)) < step


def _seeded_second_best_answers():
    rng = np.random.default_rng(3)
    for shape in ((2, 2), (3, 2), (3, 3), (4, 3), (4, 4), (5, 3)):
        for _ in range(10):
            inst = _instance(rng.uniform(0.0, 10.0, size=shape),
                             rng.dirichlet(np.ones(shape[1])), 1.0, 1.0)
            for xi in (0.0, 0.3, 0.6):
                try:
                    yield inst, second_best_solve(inst, xi, 1.0)
                except NoConvergenceError:
                    continue


def test_decompose_takes_every_second_best_answer():
    # it raised BoundaryPointError on 169 of these 178 answers: its Hessian
    # refused any experiment entry at or below 1e-12, a decision never
    # taken included
    answered = informative = 0
    for inst, sol in _seeded_second_best_answers():
        answered += 1
        deco, duals = decompose(sol.contract, inst, sol.experiment, alpha=1.0)
        assert np.max(np.abs(deco.reconstruct(inst.output) - sol.contract.payments)) <= 1e-12
        if sol.experiment.conditionals.any(axis=1).sum() < 2:
            # one decision taken does not pin xi down: the fit is xi = 1, lam = 0
            assert duals.xi == 1.0 and not duals.lam.any()
            continue
        informative += 1
        assert abs(duals.xi - sol.duals.xi) <= 1e-10
        for got, want in ((duals.lam, sol.duals.lam), (deco.beta, sol.decomposition.beta),
                          (deco.gamma, sol.decomposition.gamma),
                          (deco.gamma_hat, sol.decomposition.gamma_hat)):
            assert np.max(np.abs(got - want)) <= 1e-10
    assert (answered, informative) == (178, 57)


def test_decompose_a_profile_with_no_cell_at_a_liability_limit():
    # every payment strictly between 0 and the output: no multiplier to
    # fit, and the profile is first-best, alpha y - beta
    inst = _instance([[1.0, 10.0], [5.0, 4.0]], [0.6, 0.4], 1.0, 1.0)
    beta = np.array([0.3, 0.5])
    b = Contract(0.8 * inst.output - beta[None, :])
    p = best_response_shannon(b, inst.prior).experiment
    deco, duals = decompose(b, inst, p, alpha=0.8)
    assert duals.xi == 1.0 and not duals.lam.any()
    assert np.max(np.abs(deco.beta - beta)) <= 1e-12
    assert np.max(np.abs(deco.gamma)) <= 1e-12


def _lam_below_zero_at_a_zero_payment(pay, cond, lam):
    lam[1, 1] = -lam[1, 1]


def _lam_above_zero_at_a_full_output_payment(pay, cond, lam):
    pay[1, 0], lam[1, 0] = 5.0, 0.1


def _a_payment_above_the_output(pay, cond, lam):
    pay[0, 1] = 10.5


def _a_decision_taken_in_one_state(pay, cond, lam):
    cond[:, 0] = [0.0, 1.0]


def _an_experiment_the_agent_does_not_choose(pay, cond, lam):
    cond[:, 0] += [0.01, -0.01]


@pytest.mark.parametrize("perturb, reason", [
    (_lam_below_zero_at_a_zero_payment, "lambda[1,1] negative at a zero payment"),
    (_lam_above_zero_at_a_full_output_payment, "lambda[1,0] positive at a full-output payment"),
    (_a_payment_above_the_output, "interior payment escaped the liability limits"),
    (_a_decision_taken_in_one_state, "a decision taken in some states only"),
    (_an_experiment_the_agent_does_not_choose, "verification"),
])
def test_the_certificate_rejects_a_perturbed_answer(example, perturb, reason):
    # the xi = 0 answer pays [[0, 1.009], [0.702, 0]] with lambda = 2/3 and
    # 1/3 at its two zero payments; it passes the certificate untouched
    sol = second_best_solve(example, 0.0, 1.0)
    pay, cond, lam = (sol.contract.payments.copy(), sol.experiment.conditionals.copy(),
                      sol.duals.lam.copy())

    def certified():
        return contracts._decomposed(example, Experiment(cond), Contract(pay), lam, 0.0, 1.0)

    assert isinstance(certified(), contracts.ContractSolution)
    perturb(pay, cond, lam)
    got = certified()
    assert isinstance(got, str) and got.startswith(reason)


def test_the_certificate_refuses_a_decision_the_agent_does_not_take(example):
    # d1 paid nothing, d2 paid 5 in each state, lambda = 0 and xi = 1: every
    # check before the agent's best response passes, since the KKT spread
    # is 0 on the one decision taken.  The agent takes d2, so the profile
    # taking d1 is refused, and the one taking d2 certified.
    pay, lam = Contract([[0.0, 0.0], [5.0, 5.0]]), np.zeros((2, 2))
    d1, d2 = Experiment([[1.0, 1.0], [0.0, 0.0]]), Experiment([[0.0, 0.0], [1.0, 1.0]])
    assert agent_kkt_residual(pay, example.prior, example.cost_model, d1)[0] == 0.0
    assert contracts._decomposed(example, d1, pay, lam, 1.0, 1.0) == "verification"
    assert isinstance(contracts._decomposed(example, d2, pay, lam, 1.0, 1.0),
                      contracts.ContractSolution)


def test_the_distortion_refuses_a_table(example):
    # under the 2q(1 - q) table the Hessian contraction returned gamma = 0
    # for any multipliers: its Hessian is 0
    table = _example_with(PosteriorSeparableCost(
        {"grid": [[q, 2.0 * q * (1.0 - q)] for q in np.linspace(0.0, 1.0, 201)]}))
    sol = second_best_solve(example, 0.0, 1.0)
    lam, p = sol.duals.lam, sol.experiment
    with pytest.raises(NoPatternFoundError, match="logit rule of the mutual-information"):
        gamma_from_duals(p, table.prior, table.cost_model, lam)
    with pytest.raises(NoPatternFoundError, match="logit rule of the mutual-information"):
        gamma_risk_averse(p, table.prior, table.cost_model, lam, sol.contract,
                          u_prime=lambda w: np.ones_like(w))
    with pytest.raises(NoPatternFoundError, match="logit rule of the mutual-information"):
        decompose(sol.contract, table, p, alpha=1.0)


def test_oracle_matches_published_payoff(example):
    sol = second_best_solve(example, 0.0, 1.0)
    bc, bp = brute_force_pareto(example, r=sol.report.agent_utility, grid_n=21)
    rep = evaluate_profile(bc, bp, example)
    # within one grid step of the published principal payoff 5.321 - 0.566
    assert abs(rep.principal_utility - 4.755) < np.max(example.output) / 20
    assert rep.principal_utility <= sol.report.principal_utility + 1e-9


def test_oracle_at_maximal_reservation_returns_output(example):
    top = best_response_shannon(example.output_contract, example.prior)
    bc, _ = brute_force_pareto(example, r=top.value - 1e-9, grid_n=21)
    assert np.array_equal(bc.payments, example.output)


def test_oracle_size_guards(example):
    big = ProblemInstance(("a", "b", "c"), ("s", "t"), np.ones((3, 2)),
                          [0.5, 0.5], 1.0, ShannonCost())
    with pytest.raises(TooLargeError):
        brute_force_pareto(big, r=-np.inf)
    with pytest.raises(TooLargeError):
        brute_force_pareto(example, r=-np.inf, grid_n=81)


def test_short_oracle_grid_and_negative_piece_rate_raise(example):
    # grid_n 0 and -3 died inside numpy and grid_n 1 returned the all-zero
    # contract; alpha = -1 searched for a pattern and raised
    # NoPatternFoundError
    for grid_n in (1, 0, -3):
        with pytest.raises(ValueError, match="at least 2 points"):
            brute_force_pareto(example, grid_n=grid_n)
    for alpha in (-1.0, np.nan):
        with pytest.raises(ValueError, match="alpha must be nonnegative"):
            second_best_solve(example, 0.0, alpha)


def test_oracle_memory_is_bounded_by_its_slice(monkeypatch):
    # the whole payment grid was held at once: a tracemalloc peak of 7.3,
    # 49 and 98 MB at grid_n 13, 21 and 25 on this problem, about 0.7 GB
    # extrapolated to grid_n 41
    import tracemalloc

    inst = _instance([[6.0, 1.0], [2.0, 7.0]], [0.5, 0.5], 0.5, 1.0)
    tracemalloc.start()
    try:
        brute_force_pareto(inst, 1.0, grid_n=25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 20e6
    # the worked example's default grid, 21 points on each of 3 cells, is
    # one slice, so `--oracle` requests do no extra work
    assert 21 ** 3 <= contracts._ORACLE_SLICE < 13 ** 4
    sliced = brute_force_pareto(inst, 1.0, grid_n=13)     # 28,561 contracts
    monkeypatch.setattr(contracts, "_ORACLE_SLICE", 13 ** 4)
    whole = brute_force_pareto(inst, 1.0, grid_n=13)
    assert np.array_equal(sliced[0].payments, whole[0].payments)
    assert np.array_equal(sliced[1].conditionals, whole[1].conditionals)


def test_oracle_refuses_an_output_below_zero(monkeypatch):
    # it paid 0 in the -1 cell, outside the limit b <= y; second_best_solve
    # searched first and then raised "no root" (xi = 0) or "interior payment
    # escaped the liability limits" (xi = 0.5, 1)
    inst = ProblemInstance(("d1", "d2"), ("s", "t"), [[-1.0, 10.0], [5.0, 5.0]], PI, 0.5,
                           ShannonCost())
    message = "an output below 0 leaves no payment within both liability limits"
    with pytest.raises(NoPatternFoundError, match=message):
        brute_force_pareto(inst)
    monkeypatch.setattr(contracts, "best_response_capacity", None)
    monkeypatch.setattr(reduced, "interior_point", None)
    for xi in (0.0, 0.5, 1.0):
        with pytest.raises(NoPatternFoundError, match=message):
            second_best_solve(inst, xi, 1.0)


def test_one_decision_pattern_has_no_free_cell():
    # np.max of the pattern system's empty residual raised ValueError
    inst = ProblemInstance(("d1",), ("s", "t"), [[3.0, 1.0]], [0.5, 0.5], 0.5, ShannonCost())
    for xi in (0.0, 0.5, 1.0):
        sol = second_best_solve(inst, xi, 1.0)
        assert np.array_equal(sol.contract.payments, np.zeros((1, 2)))
        assert np.array_equal(sol.duals.lam, (1.0 - xi) * inst.prior[None, :])
        assert sol.residual == 0.0


def _oracle_grid(inst, grid_n):
    axes = [np.linspace(0.0, top, grid_n) if top > 0 else np.array([0.0])
            for top in inst.output.ravel()]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).reshape(-1, *inst.output.shape)


def _oracle_cases(example):
    rng = np.random.default_rng(12)
    draws = [ProblemInstance(("a", "b"), ("s", "t"), rng.uniform(0.0, 10.0, (2, 2)),
                             rng.dirichlet([2.0, 2.0]), 1.0, ShannonCost(scale))
             for scale in (0.3, 2.0)]
    column = ProblemInstance(("a", "b", "c", "d"), ("s",), [[3.0], [1.0], [3.0], [2.0]],
                             [1.0], 1.0, ShannonCost(0.5))
    row = ProblemInstance(("a",), ("s", "t", "u", "v"), [[3.0, 1.0, 4.0, 2.0]],
                          [0.1, 0.2, 0.3, 0.4], 1.0, ShannonCost(0.5))
    return [example, *draws, column, row]


def test_oracle_response_matches_the_agent_solver(example):
    # the oracle's closed-form responses against the agent's Newton kernel
    for inst in _oracle_cases(example):
        s = inst.cost_model.logit_scale
        grid = _oracle_grid(inst, 5)
        q, cond = contracts._grid_response(grid / s, inst.prior)
        for i, payments in enumerate(grid):
            sol = best_response_shannon(Contract(payments), inst.prior, scale=s)
            assert np.max(np.abs(sol.experiment.conditionals - cond[i])) <= 1e-12
            assert np.max(np.abs(sol.experiment.conditionals @ inst.prior - q[i])) <= 1e-12


@pytest.mark.parametrize("target, contract", [
    ("second-best", [[0.0, 1.0], [0.75, 0.0]]),
    ("top", [[0.0, 10.0], [5.0, 5.0]]),
    ("none", [[0.0, 0.0], [0.0, 0.25]]),
])
def test_oracle_contracts_unchanged_by_kernel(example, target, contract):
    # contracts the marginal-iteration oracle returned at grid_n = 21 for
    # the reservation utilities used above
    r = {"second-best": second_best_solve(example, 0.0, 1.0).report.agent_utility,
         "top": best_response_shannon(example.output_contract, example.prior).value - 1e-9,
         "none": -np.inf}[target]
    bc, _ = brute_force_pareto(example, r=r, grid_n=21)
    assert np.array_equal(bc.payments, np.array(contract))


@pytest.mark.parametrize("r, contract", [
    (-np.inf, [[0.0, 0.5], [0.25, 0.0]]),
    (1.0, [[0.0, 1.0], [1.25, 0.0]]),
    (2.5, [[0.0, 0.5], [3.75, 0.0]]),
])
def test_oracle_at_small_cost_scale(r, contract):
    # at scale 0.01 the logits reach 1000 and most weights underflow; the
    # kernel once raised NoConvergenceError here.  The contracts are those
    # the marginal-iteration oracle returned at grid_n = 21
    inst = ProblemInstance(decisions=("d1", "d2"), states=("theta1", "theta2"),
                           output=[[0.0, 10.0], [5.0, 5.0]], prior=PI,
                           capacity=0.5, cost_model=ShannonCost(0.01))
    bc, p = brute_force_pareto(inst, r=r, grid_n=21)
    assert np.array_equal(bc.payments, np.array(contract))
    assert np.allclose(p.conditionals, [[0.0, 1.0], [1.0, 0.0]], rtol=0.0, atol=1e-9)


def test_kkt_dominates_oracle_on_random_instances():
    # the interior characterization holds where an interior critical point
    # exists; take the lowest such participation weight per instance
    rng = np.random.default_rng(7)
    solved = 0
    for _ in range(20):
        inst = comparative_advantage_instance(rng)
        sol = None
        for xi in (0.0, 0.3, 0.6, 0.8, 0.9):
            try:
                sol = second_best_solve(inst, xi=xi, alpha=1.0)
                break
            except NoPatternFoundError:
                continue
        assert sol is not None
        solved += 1
        bc, bp = brute_force_pareto(inst, r=sol.report.agent_utility, grid_n=13)
        oracle_payoff = evaluate_profile(bc, bp, inst).principal_utility
        grid_error = np.max(inst.output) / 12 / 2
        assert sol.report.principal_utility >= oracle_payoff - grid_error
    assert solved == 20


def test_first_best_scaling_inequality_chain(example):
    # welfare sandwich for best responses to y and to alpha y
    p = best_response_capacity(example.output_contract, example.prior,
                               example.capacity, example.cost_model)
    rep = evaluate_profile(example.output_contract, p.experiment, example)
    for alpha in (0.2, 0.4, 0.6, 0.8, 1.0):
        scaled = Contract(alpha * example.output)
        pa = best_response_capacity(scaled, example.prior, example.capacity,
                                    example.cost_model)
        rep_a = evaluate_profile(scaled, pa.experiment, example)
        gap_y = rep.expected_output - rep_a.expected_output
        gap_c = rep.cost - rep_a.cost
        assert gap_y >= gap_c - 1e-8
        assert gap_c >= alpha * gap_y - 1e-8


def test_capacity_substitution_inequality_chains(example):
    # profile on the unperturbed frontier, compared against solutions of
    # the perturbed problem (principal output alpha y, capacity kept)
    # delivering the same agent utility
    b, sol = first_best_frontier(example, 2.853)
    rep = evaluate_profile(b, sol.experiment, example)
    r_tilde = rep.agent_utility
    nontrivial = 0
    for alpha in (0.55, 0.65, 0.8, 0.9, 1.0):
        pert_inst = ProblemInstance(example.decisions, example.states,
                                    alpha * example.output, example.prior,
                                    example.capacity, example.cost_model)
        try:
            b_a, sol_a = first_best_frontier(pert_inst, r_tilde)
        except OutOfRangeError:
            continue
        rep_a = evaluate_profile(b_a, sol_a.experiment, example)
        gap_y = rep.expected_output - rep_a.expected_output
        gap_b = rep.expected_payment - rep_a.expected_payment
        assert gap_y >= gap_b - 1e-4
        assert gap_b >= alpha * gap_y - 1e-4
        assert gap_y >= -1e-4
        assert rep.cost - rep_a.cost >= gap_b - 1e-4
        if gap_y > 1e-3:
            nontrivial += 1
    assert nontrivial >= 1


def test_gamma_risk_neutral_limit(example):
    sol = second_best_solve(example, 0.0, 1.0)
    gamma_rn = gamma_risk_averse(sol.experiment, example.prior, example.cost_model,
                                 sol.duals.lam, sol.contract,
                                 u_prime=lambda w: np.ones_like(w))
    gamma = gamma_from_duals(sol.experiment, example.prior, example.cost_model,
                             sol.duals.lam)
    assert np.max(np.abs(gamma_rn - gamma)) < 1e-9


def test_gamma_risk_averse_log_utility(example):
    sol = second_best_solve(example, 0.0, 1.0)
    gamma = gamma_risk_averse(sol.experiment, example.prior, example.cost_model,
                              sol.duals.lam, sol.contract,
                              u_prime=lambda w: 1.0 / (1.0 + w))
    assert np.all(np.isfinite(gamma))


def _gamma_risk_averse_loop(p, pi, model, lam, xi, b, u_prime):
    """The risk-averse distortion H ((p - lam / pi) / u' - xi p) / pi as a
    sum over cell pairs, weighing each pair by the marginal utility of the
    row's own decision; xi drops out, since H p = 0."""
    cond = p.conditionals
    n_d, n_s = cond.shape
    hess = model.hessian(p, pi)
    up = u_prime(b.payments)
    gamma = np.zeros((n_d, n_s))
    for d in range(n_d):
        for s in range(n_s):
            block = hess[d * n_s + s].reshape(n_d, n_s)
            total = 0.0
            for dp in range(n_d):
                for sp in range(n_s):
                    inner = cond[dp, sp] * (1.0 - up[d, sp] * xi) - lam[dp, sp] / pi[sp]
                    total += inner * block[dp, sp] / up[d, sp]
            gamma[d, s] = total / pi[s]
    return gamma


def _risk_averse_draws(seed, n=30):
    rng = np.random.default_rng(seed)
    for _ in range(n):
        n_d, n_s = rng.integers(2, 5), rng.integers(2, 4)
        cond = rng.uniform(0.05, 1.0, size=(n_d, n_s))
        p = Experiment(cond / cond.sum(axis=0))
        pi = rng.dirichlet(np.ones(n_s))
        model = ShannonCost(float(rng.uniform(0.2, 3.0)))
        lam = rng.uniform(-0.5, 0.5, size=(n_d, n_s))
        b = Contract(rng.uniform(0.0, 3.0, size=(n_d, n_s)))
        yield p, pi, model, lam, float(rng.uniform()), b


def test_gamma_risk_averse_matches_the_sum_over_cell_pairs():
    def u_prime(w):
        return 1.0 / (1.0 + w)

    for p, pi, model, lam, xi, b in _risk_averse_draws(11):
        want = _gamma_risk_averse_loop(p, pi, model, lam, xi, b, u_prime)
        got = gamma_risk_averse(p, pi, model, lam, b, u_prime)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gamma_risk_averse_is_the_information_cost_matrix_form_over_p_d():
    # Hebert and Woodford's form: k(q_d) / (q_d q_d^T), read off block d of
    # the Hessian times p(d) / (pi pi^T), contracted with (joint -
    # lambda) / u', is p(d) times the distortion
    def u_prime(w):
        return np.sqrt(1.0 + w)

    for p, pi, model, lam, _, b in _risk_averse_draws(12):
        cond = p.conditionals
        n_d, n_s = cond.shape
        hess = model.hessian(p, pi).reshape(n_d, n_s, n_d, n_s)
        blocks = hess[np.arange(n_d), :, np.arange(n_d), :]
        k_qq = blocks * marginal(p, pi)[:, None, None] / np.outer(pi, pi)
        weight = (cond * pi[None, :] - lam) / u_prime(b.payments)
        want = (k_qq @ weight[:, :, None])[:, :, 0]
        got = marginal(p, pi)[:, None] * gamma_risk_averse(p, pi, model, lam, b, u_prime)
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_gamma_risk_averse_scaling_identity(example):
    sol = second_best_solve(example, 0.3, 1.0)
    c = 2.0
    base = gamma_risk_averse(sol.experiment, example.prior, example.cost_model,
                             sol.duals.lam, sol.contract,
                             u_prime=lambda w: 1.0 + 0.2 * w)
    scaled = gamma_risk_averse(sol.experiment, example.prior, example.cost_model,
                               sol.duals.lam, sol.contract,
                               u_prime=lambda w: c * (1.0 + 0.2 * w))
    assert np.max(np.abs(scaled - base / c)) < 1e-10


def test_debt_equity_boundary_numbers(example):
    ap = 0.692
    split = debt_equity_split(example.output, ap, beta=ap * np.array([0.0, 5.0]),
                              gamma_hat=np.zeros(2))
    # face value beta/alpha*: state 2 debt claim is 5, capped by output
    assert split.debt[1, 0] == 0.0
    assert abs(split.debt[0, 1] - 5.0) < 1e-12
    total = split.debt + split.outside_equity + split.inside_equity
    assert np.max(np.abs(total - example.output)) < 1e-12


def test_debt_equity_pure_inside_equity(example):
    split = debt_equity_split(example.output, 1.0, np.zeros(2), np.zeros(2))
    assert np.max(np.abs(split.inside_equity - example.output)) < 1e-15
    assert np.max(np.abs(split.debt)) == 0.0


def test_debt_equity_reconstructs_second_best(example):
    sol = second_best_solve(example, 0.0, 1.0)
    split = debt_equity_split(example.output, 1.0, sol.decomposition.beta,
                              sol.decomposition.gamma_hat)
    # investor side: y - b = debt + outside equity; agent side: b = inside
    investor = split.debt + split.outside_equity
    assert np.max(np.abs(investor - (example.output - sol.contract.payments))) < 1e-8
    assert np.max(np.abs(split.inside_equity - sol.contract.payments)) < 1e-8


def test_debt_equity_zero_alpha_rejected(example):
    with pytest.raises(ValueError):
        debt_equity_split(example.output, 0.0, np.zeros(2), np.zeros(2))


def test_dominant_decision_instance_pays_nothing_for_the_good_decision():
    # one decision dominates in every state: the optimal experiment sits on
    # the simplex boundary, where the pattern solver found no root and
    # raised NoPatternFoundError; the reduced solve drops "bad", and the
    # answer is the certified single-decision contract
    inst = ProblemInstance(("good", "bad"), ("s", "t"),
                           [[4.0, 4.0], [1.0, 1.0]], [0.5, 0.5], 1.0,
                           ShannonCost())
    for xi in (0.0, 0.5):
        sol = second_best_solve(inst, xi=xi, alpha=1.0)
        assert np.array_equal(sol.contract.payments, np.zeros((2, 2)))
        assert np.array_equal(sol.experiment.conditionals, [[1.0, 1.0], [0.0, 0.0]])
        assert np.array_equal(sol.duals.lam, [(1.0 - xi) * inst.prior, [0.0, 0.0]])
        assert sol.report.principal_utility == 4.0 and sol.residual <= 1e-6


def _seeded_failures():
    dominant = ProblemInstance(("good", "bad"), ("s", "t"),
                               [[4.0, 4.0], [1.0, 1.0]], [0.5, 0.5], 1.0, ShannonCost())
    rng = np.random.default_rng(3)
    draws = []
    for n_d, n_s in ((3, 3), (4, 4)):
        y = rng.uniform(0.0, 10.0, (n_d, n_s))
        pi = rng.dirichlet(np.full(n_s, 3.0))
        draws.append(ProblemInstance(tuple(f"d{d}" for d in range(n_d)),
                                     tuple(f"s{s}" for s in range(n_s)), y, pi, 5.0,
                                     ShannonCost()))
    return [(dominant, 0.0), (draws[0], 0.5), (draws[1], 0.5)]


@pytest.mark.parametrize("case", range(3))
def test_a_request_spends_at_most_three_reduced_solves(monkeypatch, case):
    # one solve from the best response, and for the retry one at xi = 0 and
    # one at xi from its answer; enumerating binding patterns took 32, 2,043
    # and 2,011 solves here (8 s at 3x3 and 27 s at 4x4) to raise
    # NoPatternFoundError, and the pattern solver in at most two Newton
    # solves; these take 1, 2 and 1 and answer.  A solve calls reduced.interior_point once
    # per support, so the bound is on reduced.solve
    inst, xi = _seeded_failures()[case]
    real = reduced.solve
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(reduced, "solve", counted)
    sol = second_best_solve(inst, xi, 1.0)
    assert 1 <= len(calls) <= 3
    assert sol.residual <= 1e-6


@pytest.mark.parametrize("alpha", [1.0, 0.8])
def test_pattern_is_each_states_lowest_output_cell_and_every_unpaid_cell(example, alpha):
    y = example.output
    cells = [(d, s) for d in range(example.n_decisions) for s in range(example.n_states)]
    lowest = {min(((alpha * y[d, s], d), (d, s)) for d, t in cells if t == s)[1]
              for s in range(example.n_states)}
    want = tuple(sorted(lowest | {c for c in cells if y[c] <= 0}))
    for k in range(0, 101, 5):
        sol = second_best_solve(example, k / 100, alpha)
        pay = sol.contract.payments
        unpaid = {c for c in cells if pay[c] == 0.0}
        if sol.experiment.conditionals.all():
            assert unpaid == set(want)
        else:   # alpha = 0.8 and xi <= 0.22: the single-decision contract pays nothing
            assert unpaid == set(cells)


# ---------------------------------------------------------------------------
# one cost core: every constructor of the entropy cost takes the logit route


def _example_with(model):
    return ProblemInstance(("d1", "d2"), ("theta1", "theta2"),
                           [[0.0, 10.0], [5.0, 5.0]], [2.0 / 3.0, 1.0 / 3.0],
                           0.5, model)


XI_TABLE = (0.0, 0.25, 0.75, 1.0)


@pytest.mark.parametrize("xi", XI_TABLE)
def test_second_best_same_for_every_entropy_constructor(example, xi):
    # the generic entropy cost once raised NoPatternFoundError at xi = 0.25
    # after 3.8 s
    ref = second_best_solve(example, xi, 1.0)
    for model in (BregmanMatrixCost(), PosteriorSeparableCost("entropy")):
        sol = second_best_solve(_example_with(model), xi, 1.0)
        assert np.array_equal(sol.contract.payments, ref.contract.payments)
        assert np.array_equal(sol.decomposition.gamma_hat, ref.decomposition.gamma_hat)


# ---------------------------------------------------------------------------
# the reservation search: one warm-started path through xi and alpha


def _alpha_prime_by_bisection(inst, tol=1e-12):
    """alpha' as the largest piece rate whose best response costs less
    than the capacity, by bisection on alpha."""
    def cost_at(alpha):
        return best_response_general(Contract(alpha * inst.output), inst.prior,
                                     inst.cost_model).cost

    if cost_at(1.0) < inst.capacity:
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if cost_at(mid) < inst.capacity:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _frontier_by_bisection(inst, r):
    """first_best_frontier's contract computed with alpha' from a
    bisection at a tight tolerance, the reference for alpha' = 1/(1 + mu)."""
    ap = _alpha_prime_by_bisection(inst)
    base = best_response_capacity(inst.output_contract, inst.prior,
                                  inst.capacity, inst.cost_model)
    joint = base.experiment.conditionals * inst.prior[None, :]
    e_y = float(np.sum(joint * inst.output))
    min_y = inst.output.min(axis=0)
    e_min = float(inst.prior @ min_y)
    v_top, v_mid = e_y - base.cost, ap * e_y - base.cost
    r = min(r, v_top)
    if r >= v_mid:
        return min(max((r + base.cost) / e_y, ap), 1.0) * inst.output
    t = (v_mid - r) / (ap * e_min)
    return ap * inst.output - min(t, 1.0) * ap * min_y[None, :]


@pytest.mark.parametrize("model", [ShannonCost(), BregmanMatrixCost()])
def test_first_best_frontier_alpha_prime_from_capacity_dual(model):
    inst = _example_with(model)
    for r in (2.9, 4.0, 6.0):
        contract, _ = first_best_frontier(inst, r)
        assert np.max(np.abs(contract.payments - _frontier_by_bisection(inst, r))) < 1e-6


@pytest.mark.parametrize("r", [2.853, 4.5, 6.0])
def test_first_best_frontier_solves_the_agent_once(example, monkeypatch, r):
    # it once solved the capacity problem again for the contract alpha y - beta
    calls = []
    real = contracts.best_response_capacity

    def counting(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(contracts, "best_response_capacity", counting)
    first_best_frontier(example, r)
    assert len(calls) == 1


@pytest.mark.parametrize("model", [ShannonCost(), BregmanMatrixCost()])
@pytest.mark.parametrize("r", [2.853, 3.0, 4.5, 6.0, 6.014])
def test_first_best_solution_matches_a_capacity_solve_of_its_contract(model, r):
    # the solution at y, re-expressed for alpha y - beta, against a capacity
    # search on the contract itself, which stops within CAPACITY_TOL below
    # the capacity
    inst = _example_with(model)
    contract, sol = first_best_frontier(inst, r)
    ref = best_response_capacity(contract, inst.prior, inst.capacity, inst.cost_model)
    assert np.max(np.abs(sol.experiment.conditionals - ref.experiment.conditionals)) <= 1e-8
    assert abs(sol.mu - ref.mu) <= 1e-7
    assert abs(sol.cost - ref.cost) <= 1e-8
    assert abs(sol.value - ref.value) <= 1e-9
    levels = [agent_kkt_residual(contract, inst.prior, inst.cost_model, s.experiment, s.mu)[1]
              for s in (sol, ref)]
    assert np.max(np.abs(levels[0] - levels[1])) <= 1e-7
    assert abs(sol.residual - ref.residual) <= 1e-12


@pytest.mark.parametrize("capacity", [0.05, 0.2])
def test_first_best_solution_under_a_table_matches_a_capacity_solve(capacity):
    # the table's optimum is not unique: a capacity search on the contract
    # may return another experiment (up to 2.8e-3 away) of the same value
    # and cost, so only those and the penalized objective are compared
    table = PosteriorSeparableCost({"grid": [[q, 2.0 * q * (1.0 - q)]
                                             for q in np.linspace(0.0, 1.0, 201)]})
    inst = ProblemInstance(("d1", "d2"), ("theta1", "theta2"), [[0.0, 10.0], [5.0, 5.0]],
                           [2.0 / 3.0, 1.0 / 3.0], capacity, table)
    base = best_response_capacity(inst.output_contract, inst.prior, capacity, table)
    e_y = float(np.sum(base.experiment.conditionals * inst.prior * inst.output))
    e_min = float(inst.prior @ inst.output.min(axis=0))
    top = e_y - base.cost
    bottom = (e_y - e_min) / (1.0 + base.mu) - base.cost
    for share in (0.0, 0.2, 0.5, 0.8, 1.0):
        contract, sol = first_best_frontier(inst, bottom + share * (top - bottom))
        ref = best_response_capacity(contract, inst.prior, capacity, table)
        assert abs(sol.value - ref.value) <= 1e-12
        assert abs(sol.cost - ref.cost) <= 1e-12
        general = best_response_general(contract, inst.prior, table, sol.mu)

        def penalized(s):
            e_b = float(np.sum(s.experiment.conditionals * inst.prior * contract.payments))
            return e_b - (1.0 + sol.mu) * s.cost

        assert abs(penalized(sol) - penalized(general)) <= 1e-12


def test_no_holes_along_xi_at_full_piece_rate(example):
    # the cold starts alone fail at xi = 0.49, 0.90, 0.91 and 0.92; the
    # retry from the xi = 0 solution fills them
    for k in range(101):
        sol = second_best_solve(example, k / 100, 1.0)
        assert sol.residual < 1e-6


@pytest.mark.parametrize("r", [2.2, 2.3])
def test_reservation_across_the_former_holes_hits_target(example, r):
    # these once returned agent utility 2.3763 without an error
    sol = solve_for_reservation(example, r, alpha=1.0)
    assert abs(sol.report.agent_utility - r) <= 1e-4
    assert alpha_star(example, r) == 1.0


def test_alpha_star_capacity_binding_reservation(example):
    alpha = alpha_star(example, 2.8)
    assert abs(alpha - 0.7164) < 1e-3
    slack = solve_for_reservation(example, 2.8, alpha)
    assert abs(slack.report.agent_utility - 2.8) <= 1e-4
    assert slack.report.cost < example.capacity
    binding = solve_for_reservation(example, 2.8, alpha + 2e-4)
    assert binding.report.cost >= example.capacity


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps({
        "decisions": ["d1", "d2"], "states": ["theta1", "theta2"],
        "output": [[0.0, 10.0], [5.0, 5.0]], "prior": [2.0 / 3.0, 1.0 / 3.0],
        "capacity": 0.5, "cost": {"type": "shannon", "scale": 1.0}}))
    return str(path)


def _count_reservation_request(path, monkeypatch, capsys, r, code=0):
    """Reduced solves (interior-point calls) and second_best_solve calls of
    one CLI `--reservation` request on the example that exits with `code`,
    and its stdout."""
    counts = {"reduced": 0, "second_best": 0}
    real_ipm, real_solve = reduced.interior_point, contracts.second_best_solve

    def counting_ipm(*args, **kwargs):
        counts["reduced"] += 1
        return real_ipm(*args, **kwargs)

    def second_best(*args, **kwargs):
        counts["second_best"] += 1
        return real_solve(*args, **kwargs)

    monkeypatch.setattr(reduced, "interior_point", counting_ipm)
    monkeypatch.setattr(contracts, "second_best_solve", second_best)
    assert cli.main(["solve-contract", "--problem", path, "--reservation", repr(r)]) == code
    monkeypatch.undo()
    out = capsys.readouterr().out
    if code == 0:
        assert abs(json.loads(out)["report"]["agent_utility"] - r) <= 1e-4
    return counts, out


@pytest.mark.parametrize("r, budget", [(0.5, 3), (1.0, 3), (2.0, 3), (2.2, 3), (2.8, 4)])
def test_reservation_request_lands_in_few_solves(example_file, monkeypatch, capsys, r,
                                                 budget):
    # by regula falsi in xi alone: 5, 9, 9, 9 and 29 second_best_solve
    # calls; by regula falsi in alpha, 17 at r = 2.8; by the bordered
    # landing 2, 2, 2, 2 and 3.  The reduced problem takes one solve on the
    # example's full support, and no pattern solve
    counts, _ = _count_reservation_request(example_file, monkeypatch, capsys, r)
    assert counts["reduced"] <= budget
    assert counts["second_best"] == 0


@pytest.mark.parametrize("r", [0.5, 1.0, 2.0, 2.2, 2.8])
def test_reservation_request_newton_steps(example, monkeypatch, r):
    # one interior-point solve and its polish: 9 to 19 Newton steps from a
    # start whose first step was cut short, 7 to 17 since; the polished
    # answer lands on r to rounding, under the capacity and at alpha = 1
    # without it
    steps = []
    real = reduced.ReducedProblem.hessian

    def counted(self, *args):
        steps.append(1)
        return real(self, *args)

    monkeypatch.setattr(reduced.ReducedProblem, "hessian", counted)
    sol = solve_for_reservation(example, r, None)
    assert len(steps) <= 20
    assert abs(sol.report.agent_utility - r) <= 1e-9
    assert abs(solve_for_reservation(example, r).report.agent_utility - r) <= 1e-9


def _frontier_utility(inst, r):
    contract, agent = first_best_frontier(inst, r)
    return evaluate_profile(contract, agent.experiment, inst).principal_utility


@pytest.mark.parametrize("r", [2.9, 3.0, 4.5])
def test_reservation_above_the_seam_answers_on_the_frontier(example_file, example, capsys, r):
    # both commands exited 3 above the first-best floor 2.853152 ("above the
    # second-best range at alpha=0.6917..."); the answer is the first-best
    # contract, U_P = 3.0141114 at r = 3.0 and 1.5141114 at r = 4.5
    assert cli.main(["solve-contract", "--problem", example_file, "--reservation", repr(r)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["report"]["principal_utility"] - _frontier_utility(example, r)) <= 1e-9
    assert abs(out["report"]["agent_utility"] - r) <= 1e-9
    assert out["report"]["cost"] <= example.capacity
    assert cli.main(["alpha-star", "--problem", example_file, "--reservation", repr(r)]) == 0
    assert json.loads(capsys.readouterr().out)["alpha_star"] == out["decomposition"]["alpha"]


def test_flat_contract_beats_the_interior_point_at_low_reservation(example):
    # the reservation search returned the xi = 0 interior stationary point,
    # U_P = 4.756; paying r to d2 in both states gives 4.8
    for alpha in (None, 1.0):
        sol = solve_for_reservation(example, 0.2, alpha)
        assert abs(sol.report.principal_utility - 4.8) <= 1e-9
        assert sol.experiment.conditionals[1].tolist() == [1.0, 1.0]
        assert np.array_equal(sol.contract.payments, [[0.0, 0.0], [0.2, 0.2]])


@pytest.mark.parametrize("r", [0.2, 0.3, 0.4, 0.5])
def test_perturbed_low_reservation_answers(tmp_path, capsys, r):
    # these raised NoConvergenceError ("no solution at xi=0") after the two
    # ends of the xi search; the flat contract gives U_P = 4.3 at r = 0.2
    # and an informative one 4.144 at r = 0.4
    problem = {"decisions": ["d1", "d2"], "states": ["theta1", "theta2"],
               "output": [[0.0, 9.0], [4.5, 4.5]], "prior": [0.72, 0.28],
               "capacity": 0.3, "cost": {"type": "shannon", "scale": 1.0}}
    path = tmp_path / "perturbed.json"
    path.write_text(json.dumps(problem))
    assert cli.main(["solve-contract", "--problem", str(path), "--reservation", repr(r)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["report"]["agent_utility"] - r) <= 1e-4
    assert out["residual"] <= 1e-6 and out["report"]["cost"] <= problem["capacity"]
    assert out["report"]["principal_utility"] >= 4.5 - r - 1e-9


def test_tight_capacity_low_reservation_answers(example):
    # at capacity 0.03 this raised NoConvergenceError
    inst = ProblemInstance(example.decisions, example.states, example.output,
                           example.prior, 0.03, ShannonCost())
    sol = solve_for_reservation(inst, 0.5, None)
    assert sol.residual <= 1e-6 and sol.report.cost <= 0.03
    assert sol.report.agent_utility >= 0.5 - 1e-4
    assert sol.decomposition.alpha == alpha_star(inst, 0.5) < 1.0
    assert sol.report.principal_utility >= 5.0 - 0.5 - 1e-9


def _instance(output, prior, scale, capacity):
    output = np.asarray(output, dtype=float)
    return ProblemInstance(tuple(f"d{d}" for d in range(output.shape[0])),
                           tuple(f"t{t}" for t in range(output.shape[1])), output, prior,
                           capacity, ShannonCost(scale))


@pytest.mark.parametrize("output, prior, scale, capacity, r, alpha, value", [
    ([[5.0, 0.0], [7.5, 2.5], [7.5, 2.5], [0.0, 7.5]], [0.321, 0.679], 1.356, 0.005,
     0.89, 0.34, 5.0572053096),
    ([[7.5, 0.0, 5.0], [0.0, 2.5, 2.5], [7.5, 0.0, 5.0]], [0.281, 0.495, 0.224], 0.337,
     3.039, 1.71, None, 2.5188344521),
])
def test_equal_decisions_are_solved_as_one(output, prior, scale, capacity, r, alpha, value):
    # solved on both copies, the free split of weight between them left the
    # active-set Newton system singular: the first request returned the
    # unpolished interior point (agent utility 3e-9 above r), the second a
    # contract paying one decision (U_P 1.5175)
    sol = solve_for_reservation(_instance(output, prior, scale, capacity), r, alpha)
    assert sol.residual <= 1e-12
    assert abs(sol.report.agent_utility - r) <= 1e-9
    assert sol.report.principal_utility >= value - 1e-9


_ZERO_ROW_OUTPUT = [[7.5, 0.0], [2.5, 2.5], [7.5, 0.0], [0.0, 0.0]]
_ZERO_ROW_PRIOR, _ZERO_ROW_SCALE = [0.53318, 0.46682], 0.40410


def test_a_decision_of_output_zero_leaves_the_answer_alone():
    # a decision paid 0 in every state is taken only under the contract
    # that pays nothing: solved on it, the request stopped at that
    # contract (U_P 3.99885) instead of the answer without the row
    output, r, alpha = _ZERO_ROW_OUTPUT, -0.84612, 0.99222
    sol = solve_for_reservation(
        _instance(output, _ZERO_ROW_PRIOR, _ZERO_ROW_SCALE, np.inf), r, alpha)
    without = solve_for_reservation(
        _instance(output[:3], _ZERO_ROW_PRIOR, _ZERO_ROW_SCALE, np.inf), r, alpha)
    assert sol.report.principal_utility >= 4.0477669
    assert sol.report.principal_utility == without.report.principal_utility
    assert np.array_equal(sol.contract.payments[:3], without.contract.payments)


@pytest.mark.parametrize("xi", [0.0, 0.4])
def test_a_decision_of_output_zero_leaves_a_fixed_weight_answer_alone(xi):
    # the same problem at fixed weights: solved on the zero row, the
    # answer was not the one without it
    output, alpha = _ZERO_ROW_OUTPUT, 0.99222
    sol = second_best_solve(
        _instance(output, _ZERO_ROW_PRIOR, _ZERO_ROW_SCALE, np.inf), xi, alpha)
    without = second_best_solve(
        _instance(output[:3], _ZERO_ROW_PRIOR, _ZERO_ROW_SCALE, np.inf), xi, alpha)
    assert sol.report.principal_utility == without.report.principal_utility
    assert np.array_equal(sol.contract.payments[:3], without.contract.payments)


_ORDER_OUTPUT = [[0.6080271295805606, 5.555961169207234, 2.714516045301015],
                 [8.796511733349222, 0.6421443731219101, 6.79181533021365],
                 [8.700885023275033, 2.273185251609081, 8.95448239414126]]
_ORDER_PRIOR = [0.39573883660355114, 0.01390905698781288, 0.590352106408636]


@pytest.mark.xfail(strict=True, reason="the reservation answer depends on the order of the "
                                       "decisions (ROADMAP D12, D17)")
def test_reservation_answer_does_not_depend_on_the_order_of_the_decisions():
    # r = 0.3 max(y pi); some orders answer the single-decision contract
    # (U_P 6.132835), others the contract on decisions 0 and 2 (6.156273)
    output, r = np.array(_ORDER_OUTPUT), 2.628358056876285
    answers = [solve_for_reservation(_instance(output[rows], _ORDER_PRIOR,
                                               0.30323914568443733, 1.0), r, 1.0)
               for rows in ([0, 1, 2], [2, 0, 1], [2, 1, 0], [0, 1, 2, 0])]
    utilities = [sol.report.principal_utility for sol in answers]
    assert max(utilities) - min(utilities) <= 1e-9


@pytest.mark.parametrize("xi", [0.0, 0.5, 1.0])
def test_second_best_at_a_zero_piece_rate_pays_nothing(example, xi):
    # every experiment is worth 0 to the principal: the closed-form answer
    # puts the agent on d2, of expected output 5 against 10/3
    sol = second_best_solve(example, xi, 0.0)
    assert np.array_equal(sol.contract.payments, np.zeros((2, 2)))
    assert np.array_equal(sol.experiment.conditionals, [[0.0, 0.0], [1.0, 1.0]])
    assert np.abs(sol.duals.lam[1] - (1.0 - xi) * example.prior).max() <= 1e-12
    assert np.array_equal(sol.duals.lam[0], [0.0, 0.0])
    assert sol.duals.xi == xi
    assert sol.decomposition.alpha == 0.0


def test_reservation_answer_with_an_entry_near_1e_14_is_certified():
    # the answer's experiment has an entry of 1.976e-14 on a decision taken:
    # the Hessian guard of the distortion's cross-check refused it
    # (NoConvergenceError); the certificate under mutual information takes
    # logarithms instead
    inst = _instance([[7.744676147550404, 9.152289440671654, 2.563083663611957],
                      [1.2188873099788322, 8.387817632275107, 4.421618603014224]],
                     [0.22276646239761821, 0.32818448375641546, 0.4490490538459663],
                     0.20797599749320583, 0.24022204799237362)
    sol = solve_for_reservation(inst, 3.660207687730521, None)
    cond = sol.experiment.conditionals
    assert 0.0 < cond.min() < 1e-12
    assert sol.residual <= 1e-6
    br = best_response_shannon(sol.contract, inst.prior, mu=sol.duals.mu,
                               scale=inst.cost_model.logit_scale)
    assert np.max(np.abs(br.experiment.conditionals - cond)) <= 1e-6
    # `decompose` refused it on the same guard (BoundaryPointError)
    deco, duals = decompose(sol.contract, inst, sol.experiment, alpha=sol.decomposition.alpha)
    assert abs(duals.xi - sol.duals.xi) <= 1e-10
    for got, want in ((duals.lam, sol.duals.lam), (deco.beta, sol.decomposition.beta),
                      (deco.gamma, sol.decomposition.gamma)):
        assert np.max(np.abs(got - want)) <= 1e-10


def test_polish_with_multipliers_a_millionth_of_their_slack():
    # the multipliers of the active rows are tiny here: only the active set
    # of multipliers above 1e-6 of their slack polishes, and with the polish
    # stopped at 1e-4 the answer was the contract paying d1 (U_P 4.3528)
    inst = _instance([[8.636711881622928, 0.4197054663783484, 1.8022960088180051,
                       8.93366409458014],
                      [1.0456113540293965, 9.844237500693108, 4.720264536003011,
                       9.141533883757521]],
                     [0.08657932127055502, 0.34099931171238956, 0.3938141162540514,
                      0.17860725076300388], 0.23629647776229729, 0.10610756077788103)
    r = 2.586301656151328
    sol = solve_for_reservation(inst, r, None)
    assert abs(sol.report.agent_utility - r) <= 1e-9
    assert sol.report.principal_utility >= 4.9420872109 - 1e-9


def test_reservation_answer_with_a_tiny_entry_on_a_decision_taken():
    # the agent's KKT check once refused every entry at or below 1e-9 on a
    # decision taken, so this answer (an entry of 3e-10, which the logit
    # best response reproduces) raised NoConvergenceError "verification"
    inst = _instance([[6.04, 2.51, 5.22, 6.21], [8.97, 9.39, 0.61, 5.27]],
                     [0.06, 0.124, 0.684, 0.132], 0.294, 0.5097)
    sol = solve_for_reservation(inst, 5.1715, None)
    assert sol.residual <= 1e-12
    assert abs(sol.report.agent_utility - 5.1715) <= 1e-4
    assert 0.0 < sol.experiment.conditionals.min() <= 1e-9
    assert sol.report.cost <= inst.capacity
    br = best_response_shannon(sol.contract, inst.prior, mu=sol.duals.mu, scale=0.294)
    assert np.max(np.abs(br.experiment.conditionals - sol.experiment.conditionals)) <= 1e-12


def test_nan_utility_is_refused(example):
    # NaN compares false with every bound: the request answered (U_P
    # 4.756), alpha_star returned 1.0 and the frontier built a NaN contract
    with pytest.raises(ValueError, match="NaN"):
        solve_for_reservation(example, np.nan)
    with pytest.raises(ValueError, match="NaN"):
        alpha_star(example, np.nan)
    with pytest.raises(ValueError, match="NaN"):
        first_best_frontier(example, np.nan)
    with pytest.raises(ValueError, match="NaN"):
        brute_force_pareto(example, np.nan)


def _off_target(monkeypatch):
    """Solve the reduced problem 0.3 above the requested utility and refuse
    the contracts that pay one decision."""
    real = reduced.solve
    monkeypatch.setattr(reduced, "solve", lambda inst, r, *rest: real(inst, r + 0.3, *rest))
    monkeypatch.setattr(contracts, "_single_solution", lambda *args: "refused")


def test_reservation_off_target_raises(example, monkeypatch):
    _off_target(monkeypatch)
    with pytest.raises(NoConvergenceError, match="not within 0.0001 of 2.0"):
        solve_for_reservation(example, 2.0, None)


def test_reservation_off_target_exits_5(example_file, monkeypatch, capsys):
    _off_target(monkeypatch)
    assert cli.main(["solve-contract", "--problem", example_file, "--reservation", "2.0"]) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: no convergence: reservation utility 2.0: ")
    assert "not within" in captured.err


def test_alpha_star_cost_meets_the_capacity_from_below(example):
    # regula falsi in alpha stopped at the slack end of its bracket, with
    # alpha* = 0.7163371 and cost 0.499992
    sol = solve_for_reservation(example, 2.8, None)
    alpha = alpha_star(example, 2.8)
    assert abs(alpha - 0.7163371) <= 1e-4 and sol.decomposition.alpha == alpha
    assert example.capacity - 1e-8 <= sol.report.cost <= example.capacity


def _seam_utility(inst):
    """Lowest first-best agent utility of `inst`: alpha' (E_p y - E_pi
    min_d y) less the cost of the capacity solve at y."""
    ap = alpha_prime(inst)
    sol = best_response_capacity(inst.output_contract, inst.prior, inst.capacity,
                                 inst.cost_model)
    e_y = float(np.sum(sol.experiment.conditionals * inst.prior[None, :] * inst.output))
    return ap * (e_y - float(inst.prior @ inst.output.min(axis=0))) - sol.cost, ap


@pytest.mark.parametrize("capacity", [0.3, 0.5])
def test_alpha_star_at_the_seam_is_alpha_prime(capacity):
    # the landing in (xi, alpha) had its root at xi = 1 - 2e-12 there; the
    # answer is now the frontier's lower end (at capacity 0.5 the polish
    # holds only the multipliers above 1e-4 of their slack active)
    inst = ProblemInstance(("d1", "d2"), ("t1", "t2"), [[0.0, 10.0], [5.0, 5.0]],
                           [2 / 3, 1 / 3], capacity, ShannonCost())
    r, ap = _seam_utility(inst)
    # equal since both read one capacity solve (at 0.5 they once differed
    # by 6.6e-9, the contract layer solving 1e-10 of the capacity below it)
    assert alpha_star(inst, r) == ap


@pytest.mark.parametrize("r", ["floor", 3.0, 4.5, 6.0])
def test_first_best_requests_read_one_capacity_solve(example, r):
    # the contract layer solved the full-output contract again 1e-10 of
    # the capacity below it: payments moved by 3.3e-8 at r = 3.0
    r = _seam_utility(example)[0] if r == "floor" else r
    contract, agent = first_best_frontier(example, r)
    sol = solve_for_reservation(example, r, None)
    assert np.array_equal(contract.payments, sol.contract.payments)
    assert np.array_equal(agent.experiment.conditionals, sol.experiment.conditionals)
    assert agent.mu == sol.duals.mu


def _seeded_perturbation(index):
    """Problem `index` of the perturbed examples drawn from default_rng(2024),
    each as h, s, p2 and capacity in turn."""
    rng = np.random.default_rng(2024)
    for _ in range(index + 1):
        h, s = rng.uniform(9.0, 11.0), rng.uniform(4.5, 5.5)
        p2, capacity = rng.uniform(0.28, 0.38), rng.uniform(0.3, 0.7)
    return ProblemInstance(("d1", "d2"), ("t1", "t2"), [[0.0, h], [s, s]], [1.0 - p2, p2],
                           capacity, ShannonCost())


def _bisected_alpha_star(inst, r):
    """Largest alpha, within 1e-8, at which the reservation solution costs
    at most the capacity; out of range counts as below alpha*."""
    lo, hi = 0.0, 1.0
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        try:
            over = solve_for_reservation(inst, r, mid).report.cost > inst.capacity
        except OutOfRangeError:
            over = False
        lo, hi = (lo, mid) if over else (mid, hi)
    return lo


@pytest.mark.parametrize("index, r", [(18, 1.4), (31, 2.0)])
def test_alpha_star_matches_a_bisection_on_the_capacity(index, r):
    # regula falsi in alpha was 4.6e-5 and 3.5e-5 below the bisection here
    inst = _seeded_perturbation(index)
    alpha = alpha_star(inst, r)
    assert alpha < 1.0
    assert abs(alpha - _bisected_alpha_star(inst, r)) <= 1e-6


def test_reservation_requests_repeat_bit_for_bit(example_file, monkeypatch, capsys):
    for r in (1.0, 2.8):
        _, first = _count_reservation_request(example_file, monkeypatch, capsys, r)
        _, second = _count_reservation_request(example_file, monkeypatch, capsys, r)
        assert first == second
    a = solve_for_reservation(_example_with(ShannonCost()), 2.2)
    b = solve_for_reservation(_example_with(ShannonCost()), 2.2)
    assert np.array_equal(a.contract.payments, b.contract.payments)


def test_reservation_request_residual_evaluations(example_file, monkeypatch, capsys):
    # 145 pattern residuals by regula falsi in xi, 9 pattern solves; the
    # reduced problem is evaluated once per step and line-search trial:
    # 13 times from a start whose first step was cut short, 9 since
    real = reduced.ReducedProblem.evaluate
    evaluations = []

    def counting(self, z):
        evaluations.append(z)
        return real(self, z)

    monkeypatch.setattr(reduced.ReducedProblem, "evaluate", counting)
    assert cli.main(["solve-contract", "--problem", example_file, "--reservation", "2.0"]) == 0
    capsys.readouterr()
    assert len(evaluations) <= 12


def test_example_sweep_interior_point_steps(example):
    # 101 steps in all when the start's first step was cut short by the
    # elastic slack's row (r <= 2.0) or the participation row (r >= 2.2);
    # 70 since the start clears the participation row and centres the slack
    start = best_response_capacity(example.output_contract, example.prior, example.capacity,
                                   example.cost_model).experiment.conditionals
    steps = 0
    for r in (0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.2, 2.5, 2.8):
        prob, point = reduced.solve(example, r, 1.0, example.capacity, start, 1.0)
        assert point is not None
        steps += prob.steps
    assert steps <= 75


def _seeded_request(index, share):
    """Request `index` of the seeded set: problems drawn in turn from one
    default_rng(3), 15 at 2x2, 10 at 2x3 and 10 at 3x3, with y ~ U[0, 10],
    a Dirichlet(1) prior, capacity 0.5 and scale 1, asked at `share` of
    max(y pi) under the capacity."""
    rng = np.random.default_rng(3)
    shapes = [(2, 2)] * 15 + [(2, 3)] * 10 + [(3, 3)] * 10
    for shape in shapes[:index + 1]:
        output = rng.uniform(0, 10, shape)
        prior = rng.dirichlet(np.ones(shape[1]))
    return _instance(output, prior, 1.0, 0.5), share * float(np.max(output @ prior))


@pytest.mark.parametrize("index, share, value", [
    (0, 0.2, 5.6585947095), (4, 0.2, 6.1419899493), (5, 0.8, 1.7492381859),
    (14, 0.5, 3.4385326107), (16, 0.5, 2.6176298976), (20, 0.2, 4.7973457285),
    (21, 0.5, 4.3592049248), (23, 0.8, 2.3059639111), (27, 0.5, 5.0152129540),
    (31, 0.2, 6.2810825704), (33, 0.8, 2.5656519072), (34, 0.5, 3.9726040667)])
def test_seeded_reservation_requests_keep_their_principal_utility(index, share, value):
    # a local solve: a start or barrier rule that takes another path may
    # land on another optimum.  Pinned at the values of the start that cut
    # its first step short (request 31 at 0.2 fell to 6.2739 under a looser
    # barrier test, 4 at 0.2 to 6.1408 under Mehrotra's rule)
    inst, r = _seeded_request(index, share)
    sol = solve_for_reservation(inst, r, None)
    assert sol.report.principal_utility >= value - 1e-9


@pytest.mark.parametrize("r", [2.7, 2.75, 2.8, 2.84])
def test_reservation_answer_does_not_depend_on_the_path(example, r):
    # the request under the capacity reaches alpha* as a multiplier; the
    # request at that piece rate without the capacity, a separate solve of
    # the same problem, lands on the same contract, since both polish to
    # rounding (within 3e-15 here)
    searched = solve_for_reservation(example, r, None)
    alpha = searched.decomposition.alpha
    direct = solve_for_reservation(example, r, alpha)
    assert alpha < 1.0
    assert np.array_equal(searched.contract.payments == 0.0,
                          direct.contract.payments == 0.0)
    assert abs(searched.duals.xi - direct.duals.xi) <= 1e-12
    for a, b in ((searched.contract.payments, direct.contract.payments),
                 (searched.experiment.conditionals, direct.experiment.conditionals)):
        assert np.max(np.abs(a - b)) <= 1e-12


@st.composite
def _perturbed_examples(draw):
    """The worked example with its outputs, prior and capacity moved."""
    h, s = draw(st.floats(9.0, 11.0)), draw(st.floats(4.5, 5.5))
    p2 = draw(st.floats(0.28, 0.38))
    return {"decisions": ["d1", "d2"], "states": ["theta1", "theta2"],
            "output": [[0.0, h], [s, s]], "prior": [1.0 - p2, p2],
            "capacity": draw(st.floats(0.3, 0.7)), "cost": {"type": "shannon", "scale": 1.0}}


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_perturbed_examples(), st.floats(0.2, 6.5))
def test_reservation_request_answers_or_raises_a_typed_error(problem, r):
    # ROADMAP aim 3 over the utility range of the worked example: slack
    # participation, the interior of xi, a binding capacity, the seam
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(problem, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["solve-contract", "--problem", path, "--reservation", repr(r)])
    typed = [exit_code for exit_code, _ in cli.SOLVER_EXITS.values()]
    if code != 0:
        assert code in typed and out.getvalue() == ""
        assert len(err.getvalue().strip().splitlines()) == 1
        return
    answer = json.loads(out.getvalue())
    v_a = answer["report"]["agent_utility"]
    if answer["duals"]["xi"] > 0.0:
        assert abs(v_a - r) <= 1e-4
    else:
        assert v_a >= r - 1e-4
    assert answer["report"]["cost"] <= problem["capacity"]


def _seeded_draws(n_d, n_s, count, capacity=100.0):
    """`count` problems of n_d decisions and n_s states from a fresh
    default_rng(3): outputs U[0, 10], prior Dirichlet(3, ..., 3)."""
    rng = np.random.default_rng(3)
    for _ in range(count):
        y = rng.uniform(0.0, 10.0, (n_d, n_s))
        pi = rng.dirichlet(np.full(n_s, 3.0))
        yield ProblemInstance(tuple(f"d{d}" for d in range(n_d)),
                              tuple(f"s{s}" for s in range(n_s)), y, pi, capacity,
                              ShannonCost())


def _seeded_requests(inst):
    """A third of the expected best output, and a utility far below any
    contract's."""
    return 0.3 * float(inst.prior @ inst.output.max(axis=0)), -5.0


@pytest.mark.parametrize("n_d, n_s", [(2, 2), (2, 3), (3, 3), (4, 4)])
def test_seeded_reservation_requests_answer_or_raise_a_typed_error(n_d, n_s):
    # ROADMAP D13's Tier-1 slice: 5 draws of each shape, 2 requests each;
    # the counts of answers and errors are not pinned
    for inst in _seeded_draws(n_d, n_s, 5):
        for r in _seeded_requests(inst):
            try:
                sol = solve_for_reservation(inst, r, None)
            except (OutOfRangeError, NoPatternFoundError, NoConvergenceError):
                continue
            assert sol.residual <= 1e-6
            assert sol.report.agent_utility >= r - 1e-4
            if sol.duals.xi > 1.0 - sol.decomposition.alpha + 1e-9:
                assert abs(sol.report.agent_utility - r) <= 1e-4
            assert sol.report.cost <= inst.capacity
            pay, y = sol.contract.payments, inst.output
            assert np.all(pay >= 0.0) and np.all(pay <= y)


def test_seeded_two_by_two_answers_beat_the_grid_oracle():
    for inst in _seeded_draws(2, 2, 5):
        for r in _seeded_requests(inst):
            try:
                sol = solve_for_reservation(inst, r)
            except (OutOfRangeError, NoPatternFoundError, NoConvergenceError):
                continue
            grid = evaluate_profile(*brute_force_pareto(inst, r, grid_n=21), inst)
            assert sol.report.principal_utility >= grid.principal_utility - 1e-9


@pytest.mark.parametrize("xi", [0.0, 0.1, 0.22, 0.68, 0.77, 0.82])
def test_second_best_solves_the_cold_holes_below_full_piece_rate(example, xi):
    # the xi 0.01 on either side of 0.68, 0.77 and 0.82 solved while these
    # raised NoPatternFoundError, and the pattern solver found no root at
    # xi <= 0.22; there the reduced solve ends at one decision, and the
    # answer is the single-decision contract
    sol = second_best_solve(example, xi, 0.8)
    again = contracts._decomposed(example, sol.experiment, sol.contract, sol.duals.lam,
                                  xi, 0.8)
    assert isinstance(again, contracts.ContractSolution)


@pytest.mark.parametrize("r", [0.5, 1.0, 1.5, 2.0, 2.5, 2.8])
def test_fixed_weight_answer_is_the_reservation_answer_at_its_weight(example, r):
    # the Pareto problem at xi is the reservation problem's Lagrangian with
    # the participation multiplier held at xi, so both entry points return
    # one contract (within 2.3e-15 here)
    held = solve_for_reservation(example, r)
    xi = held.duals.xi
    assert 0.0 < xi < 1.0
    sol = second_best_solve(example, xi, 1.0)
    for a, b in ((held.contract.payments, sol.contract.payments),
                 (held.experiment.conditionals, sol.experiment.conditionals)):
        assert np.max(np.abs(a - b)) <= 1e-8


# the fixed-weight contracts of the benchmark's `--xi` requests on the
# example at alpha = 1, as the pattern solver returned them
BENCHMARK_XI_PAYMENTS = {
    0.0: [[0.0, 1.0088925527057184], [0.7019070477811206, 0.0]],
    0.25: [[0.0, 1.48711349940142], [1.0306385961737308, 0.0]],
    0.49: [[0.0, 1.9376135366503033], [1.3547029744729016, 0.0]],
    0.75: [[0.0, 2.6188505999035967], [1.892871539218044, 0.0]],
    0.9: [[0.0, 3.3309025717909737], [2.543807272693267, 0.0]],
    1.0: [[0.0, 5.0], [5.0, 0.0]],
}


@pytest.mark.parametrize("xi", sorted(BENCHMARK_XI_PAYMENTS))
def test_benchmark_xi_requests_keep_their_contracts(example, xi):
    # the benchmark's answer check rejects a single-decision answer, whose
    # never-taken row has gamma != gamma_hat at lambda = 0
    sol = second_best_solve(example, xi, 1.0)
    assert sol.experiment.conditionals.any(axis=1).all()
    free = sol.duals.lam == 0.0
    hat = np.broadcast_to(sol.decomposition.gamma_hat[:, None], free.shape)
    assert np.max(np.abs(sol.decomposition.gamma - hat)[free], initial=0.0) <= 1e-6
    assert np.max(np.abs(sol.contract.payments - BENCHMARK_XI_PAYMENTS[xi])) <= 1e-10


def test_second_best_refuses_a_tabulated_cost_before_any_pattern(monkeypatch):
    # it once tried every binding pattern, about 60 ms of Newton solves, to
    # raise the same error
    table = PosteriorSeparableCost({"grid": [[q, 2.0 * q * (1.0 - q)]
                                             for q in np.linspace(0.0, 1.0, 201)]})
    calls = []
    monkeypatch.setattr(reduced, "interior_point", lambda *args: calls.append(args))
    for xi in (0.0, 0.5, 1.0):
        with pytest.raises(NoPatternFoundError, match="logit rule of the mutual-information"):
            second_best_solve(_example_with(table), xi, 1.0)
    assert calls == []


def test_reservation_above_the_second_best_range_solves_once(example_file, monkeypatch,
                                                              capsys):
    # the CLI once solved xi = 1 again only to raise the same error; above
    # the whole range (the first-best one, up to the agent utility of the
    # full-output contract) the request raises after the one agent solve
    # that finds the range, with no reduced solve
    calls = []
    real = contracts.best_response_capacity

    def counting(*args, **kwargs):
        calls.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(contracts, "best_response_capacity", counting)
    monkeypatch.setattr(reduced, "interior_point", None)
    assert cli.main(["solve-contract", "--problem", example_file, "--reservation", "6.5"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: out of range: agent utility 6.5 outside the "
                                   "first-best range [2.853152, 6.014111]")
    assert len(captured.err.strip().splitlines()) == 1
    assert len(calls) == 1
