"""Pareto-optimal contracts: first-best piece rates and transfers, the
capacity-equivalent scaling, and second-best contracts with the optimal
distortion recovered from a KKT system.

The second-best solver works pattern by pattern: fix which payments sit on
a liability limit, then solve the coupled system

* agent optimality (within each state, pi b minus the cost gradient is
  constant across decisions),
* the principal first-order condition b = alpha y - beta - gamma, with
  gamma the Hessian contraction against phi = p(1-xi) - lambda/pi,
* the multiplier accounting sum_d lambda(d,theta) = (1-xi) pi(theta) plus
  complementary slackness,

as one root-finding problem in the experiment, reconstructing multipliers
by a linear solve at every iterate.  The first pattern whose solution
satisfies all sign and feasibility requirements wins; patterns are ordered
"one payment at zero per state, lowest-output cell first".
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .agent import (AgentSolution, _logit_kernel, agent_kkt_residual,
                    best_response_capacity, best_response_general,
                    best_response_shannon)
from .costs import BregmanMatrixCost, ShannonCost
from .errors import (InconsistentProfileError, NoConvergenceError,
                     NoPatternFoundError, OutOfRangeError, TooLargeError)
from .model import (Contract, Experiment, PayoffReport, ProblemInstance,
                    evaluate_profile, marginal)


@dataclass(frozen=True)
class Decomposition:
    """Contract split b = alpha y - beta - gamma (gamma_hat for Shannon)."""

    alpha: float
    beta: np.ndarray
    gamma: np.ndarray
    gamma_hat: np.ndarray | None = None

    def reconstruct(self, output) -> np.ndarray:
        return self.alpha * np.asarray(output, float) - self.beta[None, :] - self.gamma


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers certifying optimality of a second-best profile."""

    lam: np.ndarray
    xi: float
    tau: np.ndarray
    rho: np.ndarray
    phi: np.ndarray
    mu: float = 0.0


@dataclass(frozen=True)
class ContractSolution:
    """A solved Pareto problem: profile, certificates, and payoffs."""

    contract: Contract
    experiment: Experiment
    duals: DualCertificate
    decomposition: Decomposition
    report: PayoffReport
    pattern: tuple
    residual: float


def _shannon_scale(model):
    """Scale factor if the model is of mutual-information form, else None."""
    if isinstance(model, ShannonCost):
        return model.scale
    if isinstance(model, BregmanMatrixCost) and model.name == "inverse_fisher":
        return model.scale
    return None


def _unconstrained_best_response(b, inst) -> AgentSolution:
    s = _shannon_scale(inst.cost_model)
    if s is not None:
        return best_response_shannon(b, inst.prior, mu=0.0, scale=s)
    return best_response_general(b, inst.prior, inst.cost_model)


def alpha_prime(inst: ProblemInstance, tol=1e-6) -> float:
    """Largest piece rate at which the capacity never binds for contract
    alpha y; 1.0 when it is slack even at full output."""
    if inst.capacity <= 0:
        raise ValueError("capacity must be positive")
    y = inst.output_contract

    def cost_at(alpha):
        return _unconstrained_best_response(Contract(alpha * y.payments), inst).cost

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


def first_best_frontier(inst: ProblemInstance, r, tol=1e-6, slack=5e-3):
    """First-best contract alpha y - beta delivering the agent utility r.

    Walks the frontier by lowering alpha from 1 to alpha' with beta = 0,
    then raising beta toward the per-state output minima (so that at the
    lower endpoint the minimum payment in each state touches zero).
    Targets within `slack` of the achievable range clamp to the endpoint.
    """
    ap = alpha_prime(inst, tol=tol)
    y = inst.output_contract
    base = best_response_capacity(y, inst.prior, inst.capacity, inst.cost_model)
    joint = base.experiment.conditionals * inst.prior[None, :]
    e_y = float(np.sum(joint * inst.output))
    cost = base.cost
    min_y = inst.output.min(axis=0)
    e_min = float(inst.prior @ min_y)

    v_top = e_y - cost
    v_mid = ap * e_y - cost
    v_bottom = ap * (e_y - e_min) - cost
    if r > v_top + slack or r < v_bottom - slack:
        raise OutOfRangeError(
            f"agent utility {r} outside the first-best range "
            f"[{v_bottom:.6f}, {v_top:.6f}]"
        )
    r = min(max(r, v_bottom), v_top)
    if r >= v_mid:
        alpha = min(max((r + cost) / e_y, ap), 1.0)
        beta = np.zeros(inst.n_states)
    else:
        alpha = ap
        t = (v_mid - r) / (ap * e_min) if e_min > 0 else 0.0
        beta = min(t, 1.0) * ap * min_y
    contract = Contract(alpha * inst.output - beta[None, :])
    sol = best_response_capacity(contract, inst.prior, inst.capacity, inst.cost_model)
    return contract, sol


# ---------------------------------------------------------------------------
# second-best KKT machinery


def _binding_patterns(inst, alpha, max_patterns=512):
    """Yield (zeros, tops) binding patterns, heuristic ordering first.

    Cells with y = 0 are forced to zero (both limits coincide).  Every
    pattern places at least one zero payment in every state.
    """
    n_d, n_s = inst.output.shape
    forced = frozenset((d, s) for d in range(n_d) for s in range(n_s)
                       if inst.output[d, s] <= 0)
    per_state = []
    for s in range(n_s):
        order = sorted(range(n_d), key=lambda d: (alpha * inst.output[d, s], d))
        per_state.append(order)

    count = 0
    seen = set()
    for choice in itertools.product(*per_state):
        zeros = frozenset(forced | {(d, s) for s, d in enumerate(choice)})
        if zeros in seen:
            continue
        seen.add(zeros)
        yield zeros, frozenset()
        count += 1
        if count >= max_patterns:
            return
    # fallback: allow payments pinned at the principal's limit as well
    base_patterns = list(seen)
    all_cells = [(d, s) for d in range(n_d) for s in range(n_s)]
    for zeros in base_patterns:
        rest = [c for c in all_cells if c not in zeros and inst.output[c] > 0]
        for k in range(1, len(rest) + 1):
            for tops in itertools.combinations(rest, k):
                yield zeros, frozenset(tops)
                count += 1
                if count >= max_patterns:
                    return


def _gamma_coefficients(model, cond, pi, xi, active):
    """Linear form gamma(d, s) = const(d, s) + sum_a coeff[(d, s), a] lam_a."""
    n_d, n_s = cond.shape
    s = _shannon_scale(model)
    if s is not None:
        m = cond @ pi
        const = np.zeros((n_d, n_s))
        coeff = np.zeros((n_d, n_s, len(active)))
        for a, (da, sa) in enumerate(active):
            coeff[da, :, a] += s / m[da]
            coeff[da, sa, a] -= s / (cond[da, sa] * pi[sa])
        return const, coeff
    exp = Experiment(cond / cond.sum(axis=0, keepdims=True))
    hess = model.hessian(exp, pi)
    const = ((hess @ ((1.0 - xi) * cond).ravel()).reshape(n_d, n_s)) / pi[None, :]
    coeff = np.zeros((n_d, n_s, len(active)))
    for a, (da, sa) in enumerate(active):
        col = hess[:, da * n_s + sa].reshape(n_d, n_s)
        coeff[:, :, a] = -col / (pi[None, :] * pi[sa])
    return const, coeff


def _multiplier_solve(inst, alpha, xi, cond, zeros, tops):
    """Recover (lam, beta) from the binding-cell equations and the
    per-state multiplier sums, at a fixed experiment."""
    pi = inst.prior
    n_d, n_s = cond.shape
    active = sorted(zeros | tops)
    n_a = len(active)
    const, coeff = _gamma_coefficients(inst.cost_model, cond, pi, xi, active)

    size = n_a + n_s
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    for i, (d, s) in enumerate(active):
        target = 0.0 if (d, s) in zeros else inst.output[d, s]
        mat[i, :n_a] = coeff[d, s]
        mat[i, n_a + s] = 1.0
        rhs[i] = alpha * inst.output[d, s] - target - const[d, s]
    for s in range(n_s):
        for i, (da, sa) in enumerate(active):
            if sa == s:
                mat[n_a + s, i] = 1.0
        rhs[n_a + s] = (1.0 - xi) * pi[s]
    sol = np.linalg.solve(mat, rhs)
    lam = np.zeros((n_d, n_s))
    for i, (d, s) in enumerate(active):
        lam[d, s] = sol[i]
    beta = sol[n_a:]
    gamma = const + coeff @ sol[:n_a]
    return lam, beta, gamma


def _agent_inverse(inst, cond, refs):
    """Contract consistent with agent optimality at `cond`, normalized to
    pay zero at each state's reference cell."""
    s = _shannon_scale(inst.cost_model)
    if s is not None:
        m = cond @ inst.prior
        levels = s * np.log(cond / m[:, None])
    else:
        exp = Experiment(cond / cond.sum(axis=0, keepdims=True))
        levels = inst.cost_model.gradient(exp, inst.prior) / inst.prior[None, :]
    return levels - levels[refs, np.arange(inst.n_states)][None, :]


def _pattern_residuals(inst, alpha, xi, zeros, tops, refs, free_cells):
    """Residual function of the coupled system in logit coordinates.

    Conditionals are floored away from the simplex boundary so the
    residuals stay finite wherever the root finder wanders; roots of
    interest are interior, far from the floor.
    """
    n_d, n_s = inst.output.shape
    floor = 1e-11 if _shannon_scale(inst.cost_model) is not None else 5e-5

    def cond_of(x):
        z = np.zeros((n_d, n_s))
        z[:-1] = x.reshape(n_d - 1, n_s)
        z -= z.max(axis=0, keepdims=True)
        e = np.exp(z)
        cond = e / e.sum(axis=0, keepdims=True)
        cond = np.clip(cond, floor, None)
        return cond / cond.sum(axis=0, keepdims=True)

    def fun(x):
        cond = cond_of(x)
        b_agent = _agent_inverse(inst, cond, refs)
        lam, beta, gamma = _multiplier_solve(inst, alpha, xi, cond, zeros, tops)
        b_principal = alpha * inst.output - beta[None, :] - gamma
        res = np.empty(len(free_cells))
        for i, (d, s) in enumerate(free_cells):
            if (d, s) in zeros:
                res[i] = b_agent[d, s]
            elif (d, s) in tops:
                res[i] = b_agent[d, s] - inst.output[d, s]
            else:
                res[i] = b_agent[d, s] - b_principal[d, s]
        return res

    return cond_of, fun


def second_best_solve(inst: ProblemInstance, xi, alpha,
                      max_patterns=512, root_tol=1e-9) -> ContractSolution:
    """Second-best Pareto contract at participation weight xi and piece
    rate alpha, capacity handled upstream through alpha.

    Returns the first binding pattern whose solution passes the sign,
    feasibility, and KKT residual checks.
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("xi must lie in [0, 1]")
    n_d, n_s = inst.output.shape
    pi = inst.prior
    failures = []
    for zeros, tops in _binding_patterns(inst, alpha, max_patterns):
        refs = [min(d for d, s in zeros if s == state) for state in range(n_s)]
        free_cells = [(d, s) for s in range(n_s) for d in range(n_d) if d != refs[s]]
        cond_of, fun = _pattern_residuals(inst, alpha, xi, zeros, tops, refs, free_cells)

        solved = None
        for x0 in _starting_points(inst, alpha, n_d, n_s):
            try:
                root = optimize.root(fun, x0, method="hybr")
            except np.linalg.LinAlgError:
                continue
            if root.success and np.max(np.abs(fun(root.x))) < root_tol:
                solved = root.x
                break
        if solved is None:
            failures.append((zeros, tops, "no root"))
            continue

        cond = cond_of(solved)
        try:
            lam, beta, gamma = _multiplier_solve(inst, alpha, xi, cond, zeros, tops)
        except np.linalg.LinAlgError:
            failures.append((zeros, tops, "singular multipliers"))
            continue
        payments = alpha * inst.output - beta[None, :] - gamma
        for d, s in zeros:
            payments[d, s] = 0.0
        for d, s in tops:
            payments[d, s] = inst.output[d, s]
        checks = _pattern_checks(inst, payments, lam, zeros, tops)
        if checks:
            failures.append((zeros, tops, checks))
            continue

        b = Contract(payments)
        exp = Experiment(cond)
        resid = _verify_solution(inst, b, exp, lam, beta, gamma, xi, alpha)
        if resid is None:
            failures.append((zeros, tops, "verification"))
            continue
        residual, rho = resid
        tau = beta * pi - xi * rho
        phi = cond * (1.0 - xi) - lam / pi[None, :]
        s = _shannon_scale(inst.cost_model)
        gamma_hat = None
        if s is not None:
            gamma_hat = s * lam.sum(axis=1) / marginal(exp, pi)
        duals = DualCertificate(lam=lam, xi=float(xi), tau=tau, rho=rho, phi=phi)
        deco = Decomposition(alpha=float(alpha), beta=beta, gamma=gamma,
                             gamma_hat=gamma_hat)
        report = evaluate_profile(b, exp, inst)
        return ContractSolution(contract=b, experiment=exp, duals=duals,
                                decomposition=deco, report=report,
                                pattern=(tuple(sorted(zeros)), tuple(sorted(tops))),
                                residual=residual)
    raise NoPatternFoundError(
        f"no sign-consistent binding pattern among {len(failures)} tried: "
        + "; ".join(str(f[2]) for f in failures[:4])
    )


def _starting_points(inst, alpha, n_d, n_s):
    yield np.zeros((n_d - 1) * n_s)
    try:
        guess = _unconstrained_best_response(Contract(alpha * inst.output), inst)
        cond = np.clip(guess.experiment.conditionals, 1e-9, None)
        cond /= cond.sum(axis=0, keepdims=True)
        logits = np.log(cond)
        yield (logits[:-1] - logits[-1:]).reshape(-1)
    except NoConvergenceError:
        pass


def _pattern_checks(inst, payments, lam, zeros, tops, tol=1e-7):
    """Sign and feasibility screens; returns a reason string or None."""
    forced = {(d, s) for (d, s) in zeros if inst.output[d, s] <= 0}
    for (d, s) in zeros - forced:
        if lam[d, s] < -tol:
            return f"lambda[{d},{s}] negative at a zero payment"
    for (d, s) in tops:
        if lam[d, s] > tol:
            return f"lambda[{d},{s}] positive at a top payment"
    if np.any(payments < -1e-9) or np.any(payments > inst.output + 1e-9):
        return "interior payment escaped the liability limits"
    return None


def _verify_solution(inst, b, exp, lam, beta, gamma, xi, alpha):
    """Final certification: agent KKT, best-response cross-check, and the
    principal reconstruction.  Returns (residual, rho) or None."""
    pi = inst.prior
    try:
        agent_res, rho = agent_kkt_residual(b, pi, inst.cost_model, exp)
    except Exception:
        return None
    if agent_res > 1e-6:
        return None
    s = _shannon_scale(inst.cost_model)
    if s is not None:
        br = best_response_shannon(b, pi, scale=s)
        if np.max(np.abs(br.experiment.conditionals - exp.conditionals)) > 1e-6:
            return None
    gamma_check = gamma_from_duals(exp, pi, inst.cost_model, lam, xi)
    recon = np.max(np.abs(b.payments - (alpha * inst.output - beta[None, :] - gamma_check)))
    slack = np.max(np.abs(lam * np.minimum(b.payments, inst.output - b.payments)))
    sums = np.max(np.abs(lam.sum(axis=0) - (1.0 - xi) * pi))
    residual = max(agent_res, recon, slack, sums)
    if residual > 1e-6:
        return None
    return residual, rho


def gamma_from_duals(p: Experiment, prior, model, lam, xi) -> np.ndarray:
    """Evaluate the optimal-distortion formula from multipliers.

    For Shannon-form costs the closed-form reduction (decision penalty
    minus the binding-cell correction) is cross-checked against the
    Hessian contraction; disagreement raises.
    """
    pi = np.asarray(prior, float)
    lam = np.asarray(lam, float)
    cond = p.conditionals
    hess = model.hessian(p, pi)
    phi = cond * (1.0 - xi) - lam / pi[None, :]
    general = (hess @ phi.ravel()).reshape(cond.shape) / pi[None, :]
    s = _shannon_scale(model)
    if s is not None:
        m = cond @ pi
        reduced = (s * lam.sum(axis=1) / m)[:, None] - s * lam / (cond * pi[None, :])
        if np.max(np.abs(reduced - general)) > 1e-6:
            raise InconsistentProfileError(
                "Shannon reduced-form distortion disagrees with the Hessian contraction"
            )
        return reduced
    return general


def decompose(b: Contract, inst: ProblemInstance, p: Experiment,
              alpha=1.0, residual_tol=1e-4):
    """Recover (alpha, beta, gamma) and duals from a solved profile.

    xi and the active-cell multipliers come from a least-squares fit of
    the within-state principal conditions (beta drops out in differences),
    with nonnegativity projection; beta then absorbs the per-state level.
    """
    pi = inst.prior
    n_d, n_s = inst.output.shape
    y = inst.output
    pay = b.payments
    tol_active = 1e-6
    zeros = {(d, s) for d in range(n_d) for s in range(n_s)
             if pay[d, s] <= tol_active}
    tops = {(d, s) for d in range(n_d) for s in range(n_s)
            if pay[d, s] >= y[d, s] - tol_active and y[d, s] > tol_active}
    active = sorted(zeros | tops)
    n_a = len(active)
    cond = p.conditionals

    # unknowns: lam at active cells, then zeta = 1 - xi
    rows = []
    rhs = []
    hess = inst.cost_model.hessian(p, pi)

    def gamma_row(d, s):
        """coefficients of gamma(d,s) in (lam_active, zeta)."""
        coeffs = np.zeros(n_a + 1)
        block = hess[d * n_s + s].reshape(n_d, n_s)
        for i, (da, sa) in enumerate(active):
            coeffs[i] = -block[da, sa] / (pi[s] * pi[sa])
        coeffs[n_a] = float((block * cond).sum()) / pi[s]
        return coeffs

    for s in range(n_s):
        base = gamma_row(0, s)
        for d in range(1, n_d):
            row = gamma_row(d, s) - base
            rows.append(row)
            rhs.append(alpha * (y[d, s] - y[0, s]) - (pay[d, s] - pay[0, s]))
    for s in range(n_s):
        row = np.zeros(n_a + 1)
        for i, (da, sa) in enumerate(active):
            if sa == s:
                row[i] = 1.0
        row[n_a] = -pi[s]
        rows.append(row)
        rhs.append(0.0)
    sol, *_ = np.linalg.lstsq(np.asarray(rows), np.asarray(rhs), rcond=None)
    zeta = float(np.clip(sol[n_a], 0.0, 1.0))
    xi = 1.0 - zeta
    lam = np.zeros((n_d, n_s))
    for i, (d, s) in enumerate(active):
        val = sol[i]
        if (d, s) in zeros and y[d, s] > tol_active:
            val = max(val, 0.0)
        elif (d, s) in tops:
            val = min(val, 0.0)
        lam[d, s] = val

    gamma = gamma_from_duals(p, pi, inst.cost_model, lam, xi)
    beta = np.mean(alpha * y - gamma - pay, axis=0)
    recon = alpha * y - beta[None, :] - gamma
    resid = float(np.max(np.abs(recon - pay)))
    if resid > residual_tol:
        raise InconsistentProfileError(
            f"profile does not fit the optimality system (residual {resid:.2e})"
        )
    _, rho = agent_kkt_residual(b, pi, inst.cost_model, p)
    tau = beta * pi - xi * rho
    phi = cond * (1.0 - xi) - lam / pi[None, :]
    s_sh = _shannon_scale(inst.cost_model)
    gamma_hat = None
    if s_sh is not None:
        gamma_hat = s_sh * lam.sum(axis=1) / marginal(p, pi)
    deco = Decomposition(alpha=float(alpha), beta=beta, gamma=gamma, gamma_hat=gamma_hat)
    duals = DualCertificate(lam=lam, xi=xi, tau=tau, rho=rho, phi=phi)
    return deco, duals


def solve_for_reservation(inst: ProblemInstance, r, alpha=1.0,
                          v_tol=1e-4) -> ContractSolution:
    """Bisect the participation weight xi until the agent utility hits r.

    Returns the xi = 0 solution directly when the participation constraint
    is slack at r.  A participation weight at which no interior critical
    point exists (the informative regime is not stationary there) is
    treated as delivering too little utility, pushing xi upward.
    """
    high = second_best_solve(inst, 1.0, alpha)
    if high.report.agent_utility < r - v_tol:
        raise OutOfRangeError(
            f"utility {r} above the second-best range at alpha={alpha} "
            f"(max {high.report.agent_utility:.6f})"
        )
    try:
        low = second_best_solve(inst, 0.0, alpha)
        if low.report.agent_utility >= r:
            return low
    except NoPatternFoundError:
        pass
    lo, hi = 0.0, 1.0
    sol = high
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        try:
            sol = second_best_solve(inst, mid, alpha)
        except NoPatternFoundError:
            lo = mid
            continue
        v = sol.report.agent_utility
        if abs(v - r) <= v_tol:
            return sol
        if v < r:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    return sol


def alpha_star(inst: ProblemInstance, r, tol=1e-4) -> float:
    """Piece rate substituting for the capacity constraint in the
    perturbed (capacity-free) Pareto problem at reservation utility r."""

    def capacity_slack(alpha):
        # vacuously slack when r is unattainable at this alpha
        try:
            sol = solve_for_reservation(inst, r, alpha)
        except OutOfRangeError:
            return True
        return sol.report.cost < inst.capacity

    if capacity_slack(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if capacity_slack(mid):
            lo = mid
        else:
            hi = mid
    return lo


def brute_force_pareto(inst: ProblemInstance, r=-np.inf, grid_n=21):
    """Exhaustive verification oracle on a payment grid.

    Every payment b(d, theta) ranges over a grid in [0, y(d, theta)]; the
    agent responds optimally (no capacity constraint), computed for the
    whole grid in one batch by the agent's logit kernel, with decisions
    paid identically splitting their marginal equally; the best grid
    contract maximizes the principal's payoff subject to the agent
    clearing utility r.  Only for tiny instances.
    """
    n_d, n_s = inst.output.shape
    if n_d * n_s > 4:
        raise TooLargeError("oracle supports at most 4 payment cells")
    if grid_n > 41:
        raise TooLargeError("oracle grid is capped at 41 points per payment")
    s = _shannon_scale(inst.cost_model)
    if s is None:
        raise TooLargeError("oracle requires a mutual-information cost model")
    pi = inst.prior

    axes = []
    for d in range(n_d):
        for st in range(n_s):
            top = inst.output[d, st]
            axes.append(np.linspace(0.0, top, grid_n) if top > 0 else np.array([0.0]))
    mesh = np.meshgrid(*axes, indexing="ij")
    contracts = np.stack([m.ravel() for m in mesh], axis=1).reshape(-1, n_d, n_s)
    q, p, _ = _logit_kernel(contracts / s, pi)

    joint = p * pi[None, None, :]
    e_y = np.sum(joint * inst.output[None], axis=(1, 2))
    e_b = np.sum(joint * contracts, axis=(1, 2))
    safe = np.maximum(p, 1e-300)
    ratio = np.log(safe / np.maximum(q[:, :, None], 1e-300))
    info = np.sum(np.where(p > 1e-300, joint * ratio, 0.0), axis=(1, 2))
    cost = s * info
    v_a = e_b - cost
    principal = np.where(v_a >= r - 1e-12, e_y - e_b, -np.inf)
    best = int(np.argmax(principal))
    if not np.isfinite(principal[best]):
        raise OutOfRangeError(f"no grid contract attains agent utility {r}")
    cond = p[best] / p[best].sum(axis=0, keepdims=True)
    return Contract(contracts[best]), Experiment(cond)


def gamma_risk_averse(p: Experiment, prior, model, lam, xi, b: Contract,
                      u_prime) -> np.ndarray:
    """Optimal distortion when the agent has concave utility over wealth.

    `u_prime` is the marginal utility, applied to contract payments; with
    u_prime identically 1 this reduces to `gamma_from_duals`.
    """
    pi = np.asarray(prior, float)
    lam = np.asarray(lam, float)
    cond = p.conditionals
    n_d, n_s = cond.shape
    hess = model.hessian(p, pi)
    up = u_prime(b.payments)
    if np.any(up <= 0):
        raise ValueError("marginal utility must be positive on the payment range")
    gamma = np.zeros((n_d, n_s))
    for d in range(n_d):
        for s in range(n_s):
            block = hess[d * n_s + s].reshape(n_d, n_s)
            total = 0.0
            for dp in range(n_d):
                for sp in range(n_s):
                    weight = 1.0 / up[d, sp]
                    inner = cond[dp, sp] * (1.0 - up[d, sp] * xi) - lam[dp, sp] / pi[sp]
                    total += weight * inner * block[dp, sp]
            gamma[d, s] = total / pi[s]
    return gamma


def gamma_risk_averse_hw(p: Experiment, prior, model, lam, b: Contract,
                         u_prime) -> np.ndarray:
    """Risk-averse distortion specialized to information-cost-matrix models:
    same-decision complementarities weighted by (joint - lambda)/u'."""
    pi = np.asarray(prior, float)
    lam = np.asarray(lam, float)
    cond = p.conditionals
    n_d, n_s = cond.shape
    up = u_prime(b.payments)
    if isinstance(model, BregmanMatrixCost):
        k_of = model.info_matrix
    else:
        s = _shannon_scale(model)
        if s is None:
            raise ValueError("needs an information-cost-matrix model")
        from .costs import inverse_fisher_matrix

        def k_of(q):
            return s * inverse_fisher_matrix(q)

    m = cond @ pi
    gamma = np.zeros((n_d, n_s))
    for d in range(n_d):
        q = cond[d] * pi / m[d]
        k = k_of(q)
        for s_ in range(n_s):
            total = 0.0
            for sp in range(n_s):
                joint = cond[d, sp] * pi[sp]
                total += (k[s_, sp] / (q[s_] * q[sp])) * (joint - lam[d, sp]) / up[d, sp]
            gamma[d, s_] = total
    return gamma


@dataclass(frozen=True)
class SecuritySplit:
    """Project payoffs split into debt and inside/outside equity."""

    face_value: np.ndarray
    debt: np.ndarray
    outside_equity: np.ndarray
    inside_equity: np.ndarray


def debt_equity_split(output, alpha_star_, beta, gamma_hat) -> SecuritySplit:
    """Split y into debt with face (beta + gamma_hat)/alpha* and an
    alpha* : (1 - alpha*) equity division; the pieces sum back to y."""
    if alpha_star_ <= 0:
        raise ValueError("piece rate must be positive to define the split")
    y = np.asarray(output, float)
    beta = np.asarray(beta, float)
    gamma_hat = np.asarray(gamma_hat, float)
    face = (beta[None, :] + gamma_hat[:, None]) / alpha_star_
    debt = np.minimum(y, face)
    resid = np.maximum(0.0, y - face)
    return SecuritySplit(
        face_value=face,
        debt=debt,
        outside_equity=(1.0 - alpha_star_) * resid,
        inside_equity=alpha_star_ * resid,
    )
