import numpy as np
import pytest

from infocontracts import (BregmanMatrixCost, Contract, CostModel,
                           Experiment, InconsistentProfileError,
                           NoPatternFoundError, OutOfRangeError,
                           PosteriorSeparableCost, ProblemInstance,
                           ShannonCost, TooLargeError,
                           alpha_prime, alpha_star, best_response_capacity,
                           best_response_shannon, brute_force_pareto,
                           debt_equity_split, decompose, evaluate_profile,
                           first_best_frontier, gamma_from_duals,
                           gamma_risk_averse, gamma_risk_averse_hw, marginal,
                           second_best_solve, solve_for_reservation)
from infocontracts.agent import _logit_kernel
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


def test_alpha_star_monotone_in_capacity():
    values = []
    for cap in (0.3, 0.5, 0.8):
        inst = ProblemInstance(("d1", "d2"), ("t1", "t2"),
                               [[0.0, 10.0], [5.0, 5.0]], [2 / 3, 1 / 3],
                               cap, ShannonCost())
        # the seam utility: lowest first-best agent utility at this capacity
        ap = alpha_prime(inst)
        sol = best_response_capacity(inst.output_contract, inst.prior, cap,
                                     inst.cost_model)
        joint = sol.experiment.conditionals * inst.prior[None, :]
        e_y = float(np.sum(joint * inst.output))
        r = ap * (e_y - float(inst.prior @ inst.output.min(axis=0))) - min(cap, sol.cost)
        values.append(alpha_star(inst, r))
    assert values[0] <= values[1] + 1e-3 <= values[2] + 2e-3
    ap_values = [alpha_prime(ProblemInstance(("d1", "d2"), ("t1", "t2"),
                                             [[0.0, 10.0], [5.0, 5.0]],
                                             [2 / 3, 1 / 3], cap, ShannonCost()))
                 for cap in (0.3, 0.5, 0.8)]
    assert ap_values == sorted(ap_values)


def test_solve_for_reservation_hits_target(example):
    sol = solve_for_reservation(example, 1.8, alpha=1.0)
    assert abs(sol.report.agent_utility - 1.8) < 1e-4
    assert 0.0 < sol.duals.xi < 1.0


def test_gamma_from_duals_published_multipliers(example):
    sol = second_best_solve(example, 0.0, 1.0)
    lam = np.array([[2.0 / 3.0, 0.0], [0.0, 1.0 / 3.0]])
    gamma = gamma_from_duals(sol.experiment, example.prior, example.cost_model,
                             lam, xi=0.0)
    assert np.max(np.abs(gamma - np.array([[-3.836, 2.404], [0.462, -1.596]]))) < 0.02


def test_gamma_zero_at_first_best(example):
    p = best_response_shannon(example.output_contract, example.prior).experiment
    gamma = gamma_from_duals(p, example.prior, example.cost_model,
                             np.zeros((2, 2)), xi=1.0)
    assert np.max(np.abs(gamma)) < 1e-12


def test_gamma_closed_form_matches_hessian_contraction():
    rng = np.random.default_rng(1)
    model = ShannonCost()
    for _ in range(10):
        cond = rng.uniform(0.05, 1.0, size=(2, 2))
        cond /= cond.sum(axis=0, keepdims=True)
        p = Experiment(cond)
        pi = rng.uniform(0.2, 0.8)
        pi = np.array([pi, 1 - pi])
        lam = rng.uniform(0, 0.5, size=(2, 2))
        xi = float(rng.uniform(0, 1))
        # gamma_from_duals internally asserts agreement of the reduced
        # Shannon form with the generic Hessian contraction
        gamma = gamma_from_duals(p, pi, model, lam, xi)
        hess = model.hessian(p, pi)
        phi = cond * (1 - xi) - lam / pi[None, :]
        general = (hess @ phi.ravel()).reshape(2, 2) / pi[None, :]
        assert np.max(np.abs(gamma - general)) < 1e-6


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


def _oracle_grid(inst, grid_n):
    axes = [np.linspace(0.0, top, grid_n) if top > 0 else np.array([0.0])
            for top in inst.output.ravel()]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=1).reshape(-1, *inst.output.shape)


def test_oracle_kernel_batch_matches_batch_of_one(example):
    grid = _oracle_grid(example, 9)
    q, cond, _ = _logit_kernel(grid, example.prior)
    for i in range(0, len(grid), 7):
        q1, cond1, _ = _logit_kernel(grid[i:i + 1], example.prior)
        assert np.max(np.abs(q1[0] - q[i])) <= 1e-12
        assert np.max(np.abs(cond1[0] - cond[i])) <= 1e-12
    # the batch-of-one call is the agent's own solver
    for i in (0, 100, 400, len(grid) - 1):
        sol = best_response_shannon(Contract(grid[i]), example.prior)
        assert np.max(np.abs(sol.experiment.conditionals - cond[i])) <= 1e-12


def test_oracle_kernel_splits_ties_equally(example):
    # at b = 0 both decisions pay the same: the marginal splits evenly
    q, cond, iters = _logit_kernel(np.zeros((3, 2, 2)), example.prior)
    assert np.array_equal(q, np.full((3, 2), 0.5))
    assert np.array_equal(cond, np.full((3, 2, 2), 0.5))
    assert np.all(iters == 0)


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
                                 sol.duals.lam, 0.0, sol.contract,
                                 u_prime=lambda w: np.ones_like(w))
    gamma = gamma_from_duals(sol.experiment, example.prior, example.cost_model,
                             sol.duals.lam, 0.0)
    assert np.max(np.abs(gamma_rn - gamma)) < 1e-9


def test_gamma_risk_averse_log_utility(example):
    sol = second_best_solve(example, 0.0, 1.0)
    gamma = gamma_risk_averse(sol.experiment, example.prior, example.cost_model,
                              sol.duals.lam, 0.0, sol.contract,
                              u_prime=lambda w: 1.0 / (1.0 + w))
    assert np.all(np.isfinite(gamma))
    hw = gamma_risk_averse_hw(sol.experiment, example.prior, example.cost_model,
                              sol.duals.lam, sol.contract,
                              u_prime=lambda w: 1.0 / (1.0 + w))
    assert np.all(np.isfinite(hw))


def test_gamma_risk_averse_scaling_identity(example):
    sol = second_best_solve(example, 0.3, 1.0)
    xi = 0.3
    c = 2.0
    base = gamma_risk_averse(sol.experiment, example.prior, example.cost_model,
                             sol.duals.lam, xi, sol.contract,
                             u_prime=lambda w: 1.0 + 0.2 * w)
    scaled = gamma_risk_averse(sol.experiment, example.prior, example.cost_model,
                               sol.duals.lam, xi / c, sol.contract,
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


def test_no_pattern_for_dominant_decision_instance():
    # one decision dominates in every state: the optimal experiment sits on
    # the simplex boundary and no interior binding pattern is consistent
    inst = ProblemInstance(("good", "bad"), ("s", "t"),
                           [[4.0, 4.0], [1.0, 1.0]], [0.5, 0.5], 1.0,
                           ShannonCost())
    with pytest.raises(NoPatternFoundError):
        second_best_solve(inst, xi=0.0, alpha=1.0)


# ---------------------------------------------------------------------------
# one cost core: every constructor of the entropy cost takes the logit route,
# and the generic Hessian route reaches the same contracts


class _GenericEntropy(CostModel):
    """The entropy cost with the logit route turned off, so the contract
    layer uses the cost gradient and Hessian."""

    logit_scale = None


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


@pytest.mark.parametrize("xi", XI_TABLE)
def test_second_best_generic_route_matches_logit_route(example, xi):
    ref = second_best_solve(example, xi, 1.0)
    sol = second_best_solve(_example_with(_GenericEntropy()), xi, 1.0)
    assert sol.pattern == ref.pattern
    assert sol.decomposition.gamma_hat is None
    assert np.max(np.abs(sol.contract.payments - ref.contract.payments)) < 1e-8
    assert np.max(np.abs(sol.experiment.conditionals - ref.experiment.conditionals)) < 1e-8
    assert np.max(np.abs(sol.decomposition.gamma - ref.decomposition.gamma)) < 1e-8
    assert sol.residual < 1e-6
