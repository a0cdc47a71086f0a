"""Acceptance gate: every headline number and property at its stated
tolerance, one printed verdict line per criterion."""

import time

import numpy as np

from infocontracts import (Contract, Experiment, EnvelopeCurve, Garbling,
                           NoPatternFoundError, ProblemInstance, ShannonCost,
                           agent_kkt_residual, best_response_capacity,
                           best_response_shannon, brute_force_pareto,
                           check_blackwell_monotone, concavify, entropy,
                           evaluate_profile, first_best_frontier,
                           net_utility_curve, posterior_matrix,
                           second_best_solve)
from conftest import (comparative_advantage_instance, random_experiment,
                      random_prior)

PI = np.array([2.0 / 3.0, 1.0 / 3.0])
Y = Contract([[0.0, 10.0], [5.0, 5.0]])


def _example():
    return ProblemInstance(("d1", "d2"), ("theta1", "theta2"),
                           [[0.0, 10.0], [5.0, 5.0]], PI, 0.5, ShannonCost())


def _report(name, ok, detail=""):
    print(f"\n{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_unconstrained_best_response():
    t0 = time.perf_counter()
    sol = best_response_shannon(Y, PI)
    elapsed = time.perf_counter() - t0
    post = posterior_matrix(sol.experiment, PI)
    table = np.array([[0.007, 0.993], [0.993, 0.007]])
    ok = (np.max(np.abs(post - table)) < 1e-3
          and abs(sol.cost - 0.596) < 5e-3
          and elapsed < 1.0)
    _report("criterion 1 (first-best experiment, cost 0.596)", ok,
            f"posterior dev {np.max(np.abs(post - table)):.2e}, "
            f"cost {sol.cost:.4f}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_capacity_constrained_best_response():
    t0 = time.perf_counter()
    sol = best_response_capacity(Y, PI, 0.5, ShannonCost())
    elapsed = time.perf_counter() - t0
    post = posterior_matrix(sol.experiment, PI)
    table = np.array([[0.031, 0.969], [0.969, 0.031]])
    ok = (abs(sol.mu - 0.446) < 2e-3
          and np.max(np.abs(post - table)) < 1e-3
          and elapsed < 1.0)
    _report("criterion 2 (capacity dual 0.446)", ok,
            f"mu {sol.mu:.4f}, posterior dev {np.max(np.abs(post - table)):.2e}, "
            f"{elapsed * 1e3:.0f} ms")


def test_criterion_3_first_best_scalars():
    inst = _example()
    cap = best_response_capacity(Y, PI, 0.5, inst.cost_model)
    alpha_p = 1.0 / (1.0 + cap.mu)
    _, top = first_best_frontier(inst, 6.014)
    _, bottom = first_best_frontier(inst, 2.853)
    ok = (abs(alpha_p - 0.692) < 2e-3
          and abs(top.value - 6.014) < 5e-3
          and abs(bottom.value - 2.853) < 5e-3)
    _report("criterion 3 (alpha' and agent-utility range)", ok,
            f"alpha' {alpha_p:.4f}, v_max {top.value:.4f}, v_min {bottom.value:.4f}")


def test_criterion_4_second_best_solve():
    inst = _example()
    t0 = time.perf_counter()
    sol = second_best_solve(inst, xi=0.0, alpha=1.0)
    elapsed = time.perf_counter() - t0
    dev_b = np.max(np.abs(sol.contract.payments - [[0.0, 1.00], [0.702, 0.0]]))
    dev_p = np.max(np.abs(sol.experiment.conditionals
                          - [[0.160, 0.514], [0.840, 0.486]]))
    dev_beta = np.max(np.abs(sol.decomposition.beta - [3.836, 6.596]))
    dev_gamma = np.max(np.abs(sol.decomposition.gamma
                              - [[-3.836, 2.404], [0.462, -1.596]]))
    ok = (dev_b < 0.02 and dev_p < 5e-3 and dev_beta < 0.02
          and dev_gamma < 0.02 and elapsed < 5.0)
    _report("criterion 4 (second-best contract tables)", ok,
            f"contract {dev_b:.3f}, experiment {dev_p:.3f}, beta {dev_beta:.3f}, "
            f"gamma {dev_gamma:.3f}, {elapsed * 1e3:.0f} ms")


def test_criterion_5_payoff_comparison_table():
    inst = _example()
    beta = np.array([3.836, 6.596])
    shifted = Contract(inst.output - beta[None, :])
    truncated = Contract(np.maximum(shifted.payments, 0.0))
    free = best_response_shannon(Y, PI)
    trunc = best_response_shannon(truncated, PI)
    best = second_best_solve(inst, 0.0, 1.0)
    rows = np.array([
        [r.expected_output, r.expected_payment, r.cost]
        for r in (evaluate_profile(shifted, free.experiment, inst),
                  evaluate_profile(truncated, trunc.experiment, inst),
                  best.report)
    ])
    table = np.array([[6.633, 1.877, 0.596],
                      [5.900, 1.704, 0.293],
                      [5.321, 0.566, 0.067]])
    dev = np.max(np.abs(rows - table))
    _report("criterion 5 (payoff comparison table)", dev < 0.01,
            f"max deviation {dev:.4f}")


def test_criterion_6_truncated_contract_experiment():
    sol = best_response_shannon(Contract([[0.0, 3.404], [1.164, 0.0]]), PI)
    dev = np.max(np.abs(sol.experiment.conditionals
                        - [[0.211, 0.963], [0.789, 0.037]]))
    _report("criterion 6 (truncated-contract experiment)", dev < 2e-3,
            f"max deviation {dev:.2e}")


def _oracle_envelope(x, y):
    n = len(x)
    env = y.copy()
    for i in range(n):
        for j in range(i + 1, n):
            slope = (y[j] - y[i]) / (x[j] - x[i])
            env[i:j + 1] = np.maximum(env[i:j + 1],
                                      y[i] + slope * (x[i:j + 1] - x[i]))
    return env


def test_criterion_7_geometry():
    b = Contract([[0.0, 2.0], [1.0, 1.0]])
    curve = net_utility_curve(b, ShannonCost())
    conc = concavify(curve, 0.45)
    dev = np.max(np.abs(np.sort(conc.contacts) - [0.268941, 0.731059]))
    rng = np.random.default_rng(0)
    exact = 0
    for _ in range(50):
        n = int(rng.integers(30, 90))
        grid = np.unique(np.sort(rng.uniform(0.01, 0.99, size=n)))
        vals = rng.normal(0, 1, len(grid)) + 2 * np.array(
            [entropy(np.array([1 - q, q])) for q in grid])
        c = concavify(EnvelopeCurve(grid, vals, np.zeros(len(grid), int)),
                      float(grid[len(grid) // 2]))
        if np.max(np.abs(c.envelope - _oracle_envelope(grid, vals))) < 1e-10:
            exact += 1
    _report("criterion 7 (contact posteriors and envelope oracle)",
            dev < 2e-4 and exact == 50,
            f"contact dev {dev:.2e}, {exact}/50 envelopes exact")


def test_criterion_8_property_suites():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    inst = _example()
    model = inst.cost_model
    notes = []

    # transfer invariance of best responses, 100 random instances
    worst = 0.0
    for _ in range(100):
        b = Contract(rng.uniform(0, 5, size=(2, 2)))
        beta = rng.uniform(-2, 2, size=2)
        pi = random_prior(rng, 2)
        p1 = best_response_shannon(b, pi).experiment.conditionals
        p2 = best_response_shannon(Contract(b.payments - beta), pi).experiment.conditionals
        worst = max(worst, float(np.max(np.abs(p1 - p2))))
    assert worst < 1e-6
    notes.append(f"transfer {worst:.1e}")

    # binding-capacity scale invariance over an alpha grid
    base = best_response_capacity(Y, PI, 0.5, model)
    alpha_bind = 1.0 / (1.0 + base.mu)
    worst = 0.0
    for alpha in np.linspace(alpha_bind + 1e-4, 1.0, 6):
        p = best_response_capacity(Contract(alpha * Y.payments), PI, 0.5, model)
        worst = max(worst, float(np.max(np.abs(p.experiment.conditionals
                                               - base.experiment.conditionals))))
    assert worst < 1e-5
    notes.append(f"scale {worst:.1e}")

    # Blackwell monotonicity under 1000 random garblings
    violations = 0
    for _ in range(1000):
        p = Experiment(random_experiment(rng, 2, 2))
        pi = random_prior(rng, 2)
        g = Garbling(random_experiment(rng, 2, 2).T)
        w = check_blackwell_monotone(model, p, g, pi)
        violations += w.cost_after > w.cost_before + 1e-10
    assert violations == 0
    notes.append("blackwell 0 violations")

    # cost convexity on 1000 random triples
    for _ in range(1000):
        p1 = random_experiment(rng, 2, 2)
        p2 = random_experiment(rng, 2, 2)
        pi = random_prior(rng, 2)
        t = rng.uniform()
        c_mix = model.value(Experiment(t * p1 + (1 - t) * p2), pi)
        bound = t * model.value(Experiment(p1), pi) \
            + (1 - t) * model.value(Experiment(p2), pi)
        assert c_mix <= bound + 1e-10
    notes.append("convexity ok")

    # agent KKT residual below 1e-6 at solver outputs
    worst = 0.0
    for _ in range(25):
        b = Contract(rng.uniform(0.2, 5, size=(2, 2)))
        pi = random_prior(rng, 2)
        sol = best_response_shannon(b, pi)
        worst = max(worst, agent_kkt_residual(b, pi, model, sol.experiment)[0])
    assert worst < 1e-6
    notes.append(f"agent KKT {worst:.1e}")

    # dual identity and per-state minimum payment at second-best solutions
    for xi in (0.0, 0.5):
        sol = second_best_solve(inst, xi, 1.0)
        assert np.max(np.abs(sol.duals.lam.sum(axis=0)
                             - (1 - xi) * inst.prior)) < 1e-6
        assert np.max(np.abs(sol.contract.payments.min(axis=0))) < 1e-8
    notes.append("duals ok")

    # welfare sandwich for scaled contracts (both inequality chains)
    p = best_response_capacity(Y, PI, 0.5, model)
    rep = evaluate_profile(Y, p.experiment, inst)
    for alpha in (0.3, 0.6, 0.9):
        y_a = Contract(alpha * Y.payments)
        pa = best_response_capacity(y_a, PI, 0.5, model)
        rep_a = evaluate_profile(y_a, pa.experiment, inst)
        gap_y = rep.expected_output - rep_a.expected_output
        gap_c = rep.cost - rep_a.cost
        assert gap_y >= gap_c - 1e-8 >= alpha * gap_y - 2e-8
    b_fb, sol_fb = first_best_frontier(inst, 2.853)
    rep_fb = evaluate_profile(b_fb, sol_fb.experiment, inst)
    for alpha in (0.6, 0.8, 1.0):
        pert = ProblemInstance(inst.decisions, inst.states, alpha * inst.output,
                               inst.prior, inst.capacity, model)
        b_a, sol_a = first_best_frontier(pert, rep_fb.agent_utility)
        rep_a = evaluate_profile(b_a, sol_a.experiment, inst)
        gap_y = rep_fb.expected_output - rep_a.expected_output
        gap_b = rep_fb.expected_payment - rep_a.expected_payment
        assert gap_y >= gap_b - 1e-4
        assert gap_b >= alpha * gap_y - 1e-4
        assert gap_y >= -1e-4
        assert rep_fb.cost - rep_a.cost >= gap_b - 1e-4
    notes.append("inequality chains ok")

    # Hessians against finite differences of the gradient
    worst = 0.0
    for _ in range(3):
        p = Experiment(random_experiment(rng, 2, 2, interior=0.3))
        pi = random_prior(rng, 2, low=0.3)
        hess = model.hessian(p, pi)
        h = 1e-5
        fd = np.empty_like(hess)
        cond = p.conditionals
        for j in range(4):
            d, s = divmod(j, 2)
            up, dn = cond.copy(), cond.copy()
            up[d, s] += h
            dn[d, s] -= h
            eu = Experiment.__new__(Experiment)
            object.__setattr__(eu, "conditionals", up)
            ed = Experiment.__new__(Experiment)
            object.__setattr__(ed, "conditionals", dn)
            fd[:, j] = ((model.gradient(eu, pi) - model.gradient(ed, pi))
                        / (2 * h)).ravel()
        worst = max(worst, float(np.max(np.abs(hess - fd))))
    assert worst < 1e-5
    notes.append(f"hessian FD {worst:.1e}")

    # KKT solution dominates the grid oracle on 20 random instances
    slack = np.inf
    for _ in range(20):
        case = comparative_advantage_instance(rng)
        sol = None
        for xi in (0.0, 0.3, 0.6, 0.8, 0.9):
            try:
                sol = second_best_solve(case, xi=xi, alpha=1.0)
                break
            except NoPatternFoundError:
                continue
        assert sol is not None
        bc, bp = brute_force_pareto(case, r=sol.report.agent_utility, grid_n=13)
        oracle = evaluate_profile(bc, bp, case).principal_utility
        grid_error = np.max(case.output) / 24
        assert sol.report.principal_utility >= oracle - grid_error
        slack = min(slack, sol.report.principal_utility - oracle + grid_error)
    notes.append(f"oracle dominance (worst slack {slack:.3f})")

    elapsed = time.perf_counter() - t0
    ok = elapsed < 120.0
    _report("criterion 8 (property suites)", ok,
            "; ".join(notes) + f"; {elapsed:.1f} s")
