"""Pareto-optimal contracts: first-best piece rates and transfers, the
capacity-equivalent scaling, and second-best contracts with the optimal
distortion recovered from a KKT system.

The second-best solver takes the mutual-information cost, scale s, and
refuses any other.  It fixes which payments sit on a liability limit (the
binding pattern), then solves the coupled system

* agent optimality (within each state, pi b minus the cost gradient is
  constant across decisions: b is s log(p(d|theta) / p(d)) up to a
  per-state level),
* the principal first-order condition b = alpha y - beta - gamma, with
  gamma the distortion in closed form, linear in the multipliers: s
  sum_theta' lambda(d,theta') / p(d) - s lambda(d,theta) / (p(d|theta)
  pi(theta)), a decision-dependent transfer where lambda = 0 (Result 4);
  `gamma_from_duals` certifies it against the general form, the Hessian
  contraction with phi = p(1-xi) - lambda/pi,
* the multiplier accounting sum_d lambda(d,theta) = (1-xi) pi(theta) plus
  complementary slackness,

as one root-finding problem in the experiment's logits, reconstructing
multipliers by a linear solve at every iterate.  The root is found by a
damped Newton method (`_newton`: forward-difference Jacobian, Armijo
backtracking).  There is one pattern (`_pattern`): each state pays zero at
its lowest-output cell, and so does every cell with no positive output.
Its root must pass every sign, feasibility and KKT check; else the solve
raises NoPatternFoundError.

A reservation utility r picks one point of the frontier that xi traces.
The search solves xi = 1, then the same pattern system bordered with
V_A - r = 0 for the logits and xi at once (`_land`), and certifies the
root with one more solve; when that fails, only xi = 0 is checked.  The
piece rate alpha* that stands in for the capacity is a multiplier, 1 / (1
+ nu): where the answer at alpha = 1 costs more than the capacity, the
system bordered by both V_A - r and cost - capacity is solved for the
logits, xi and alpha at once (`_alpha_search`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .agent import (_logit_kernel, agent_kkt_residual, best_response_capacity,
                    best_response_general, best_response_shannon)
from .errors import (BoundaryPointError, InconsistentProfileError, NoConvergenceError,
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


def alpha_prime(inst: ProblemInstance) -> float:
    """Largest piece rate at which the capacity never binds for contract
    alpha y; 1.0 when it is slack even at full output.  The best response
    to alpha y is the one to y at cost scale 1/alpha, so alpha' = 1/(1 +
    mu) is read off the capacity solve at y."""
    if inst.capacity <= 0:
        raise ValueError("capacity must be positive")
    base = best_response_capacity(inst.output_contract, inst.prior, inst.capacity,
                                  inst.cost_model)
    return 1.0 / (1.0 + base.mu)


def first_best_frontier(inst: ProblemInstance, r, slack=5e-3):
    """First-best contract alpha y - beta delivering the agent utility r.

    Walks the frontier by lowering alpha from 1 to alpha' with beta = 0,
    then raising beta toward the per-state output minima (so that at the
    lower endpoint the minimum payment in each state touches zero).
    Targets within `slack` of the achievable range clamp to the endpoint.
    alpha' is read off the capacity solve at y: the best response to
    alpha y is the one to y at cost scale 1/alpha, so the capacity binds
    from alpha' = 1/(1 + mu) on.

    The agent is solved once, at y.  Neither alpha nor beta changes the
    experiment: E_p[alpha y - beta] - (1 + mu') c(p) is alpha (E_p[y] -
    (1 + mu) c(p)) less the constant E_pi[beta] when 1 + mu' = alpha (1 +
    mu), so the solution at y answers for the contract with the same
    experiment and cost, mu' = alpha (1 + mu) - 1, rho shifted to alpha
    rho - pi beta, and the residual, in payment units of the penalized
    problem, scaled by alpha; an Everett mixture at y stays one.
    """
    if inst.capacity <= 0:
        raise ValueError("capacity must be positive")
    y = inst.output_contract
    base = best_response_capacity(y, inst.prior, inst.capacity, inst.cost_model)
    ap = 1.0 / (1.0 + base.mu)
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
    sol = replace(base, mu=max(alpha * (1.0 + base.mu) - 1.0, 0.0),
                  rho=alpha * base.rho - inst.prior * beta,
                  value=float(np.sum(joint * contract.payments)) - cost,
                  residual=alpha * base.residual)
    return contract, sol


# ---------------------------------------------------------------------------
# second-best KKT machinery


_ROOT_TOL = 1e-9   # max |residual| of a certified pattern root


def _pattern(inst, alpha):
    """The binding pattern: the cells paid zero.  Each state pays zero at
    its lowest-alpha-y cell (the lowest index on ties), and so does every
    cell with y <= 0, where both liability limits coincide."""
    y = inst.output
    lowest = np.argmin(alpha * y, axis=0)
    return frozenset((d, s) for d in range(inst.n_decisions) for s in range(inst.n_states)
                     if y[d, s] <= 0 or d == lowest[s])


def _gamma_coefficients(s, cond, pi, active):
    """Linear form gamma(d, theta) = sum_a coeff[d, theta, a] lam_a of the
    closed-form distortion at cost scale s (`gamma_from_duals`): under
    mutual information gamma has no term in xi."""
    n_d, n_s = cond.shape
    m = cond @ pi
    coeff = np.zeros((n_d, n_s, len(active)))
    for a, (da, sa) in enumerate(active):
        coeff[da, :, a] += s / m[da]
        coeff[da, sa, a] -= s / (cond[da, sa] * pi[sa])
    return coeff


def _multiplier_solve(inst, alpha, xi, cond, zeros):
    """Recover (lam, beta) from the zero-payment equations and the
    per-state multiplier sums, at a fixed experiment."""
    pi = inst.prior
    n_d, n_s = cond.shape
    active = sorted(zeros)
    n_a = len(active)
    coeff = _gamma_coefficients(inst.cost_model.logit_scale, cond, pi, active)

    size = n_a + n_s
    mat = np.zeros((size, size))
    rhs = np.zeros(size)
    for i, (d, s) in enumerate(active):
        mat[i, :n_a] = coeff[d, s]
        mat[i, n_a + s] = 1.0
        rhs[i] = alpha * inst.output[d, s]
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
    gamma = coeff @ sol[:n_a]
    return lam, beta, gamma


def _agent_inverse(inst, cond, refs):
    """Contract consistent with agent optimality at `cond`, the logit
    levels s log(p(d|theta) / p(d)), normalized to pay zero at each
    state's reference cell."""
    m = cond @ inst.prior
    levels = inst.cost_model.logit_scale * np.log(cond / m[:, None])
    return levels - levels[refs, np.arange(inst.n_states)][None, :]


def _pattern_residuals(inst, zeros):
    """Residual function of the coupled system in logit coordinates.

    Returns (cond_of, fun): `cond_of(x)` is the experiment of the logits
    x, and `fun(x, xi, alpha)` returns the residuals at participation
    weight xi and piece rate alpha with that experiment and the
    principal's payments alpha y - beta - gamma, which are zero at the
    pattern's cells `zeros`.  Each reference cell (the first zero of its
    state) pays zero and has no residual.  Conditionals are floored at
    1e-11 so the residuals stay finite wherever the root finder wanders;
    roots of interest are interior, far from the floor.
    """
    n_d, n_s = inst.output.shape
    floor = 1e-11
    refs = [min(d for d, s in zeros if s == state) for state in range(n_s)]
    free_cells = [(d, s) for s in range(n_s) for d in range(n_d) if d != refs[s]]

    def cond_of(x):
        z = np.zeros((n_d, n_s))
        z[:-1] = x.reshape(n_d - 1, n_s)
        z -= z.max(axis=0, keepdims=True)
        e = np.exp(z)
        cond = e / e.sum(axis=0, keepdims=True)
        cond = np.clip(cond, floor, None)
        return cond / cond.sum(axis=0, keepdims=True)

    def fun(x, xi, alpha):
        cond = cond_of(x)
        b_agent = _agent_inverse(inst, cond, refs)
        lam, beta, gamma = _multiplier_solve(inst, alpha, xi, cond, zeros)
        b_principal = alpha * inst.output - beta[None, :] - gamma
        res = np.empty(len(free_cells))
        for i, (d, s) in enumerate(free_cells):
            if (d, s) in zeros:
                res[i] = b_agent[d, s]
            else:
                res[i] = b_agent[d, s] - b_principal[d, s]
        return res, cond, b_principal

    return cond_of, fun


def second_best_solve(inst: ProblemInstance, xi, alpha, *,
                      _warm=None) -> ContractSolution:
    """Second-best Pareto contract at participation weight xi and piece
    rate alpha, capacity handled upstream through alpha.

    Solves the binding pattern (`_pattern`) from the logits of the
    unconstrained best response to alpha y.  When that fails at xi > 0,
    the pattern is solved once more from the xi = 0 solution at the same
    alpha, if that one solves.  Raises NoPatternFoundError, naming the
    pattern and why it failed, when no root passes the sign, feasibility,
    and KKT residual checks; and at once for a model without a logit scale
    (a tabulated uncertainty function), whose Hessian is zero, so that the
    pattern system has no smooth root.

    `_warm` is internal to the reservation search: starting logits from
    solutions at a nearby (xi, alpha), tried before the best response; the
    xi = 0 retry is then skipped.
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("xi must lie in [0, 1]")
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    if inst.cost_model.logit_scale is None:
        raise NoPatternFoundError(
            "the Hessian of a tabulated uncertainty function is zero, so no "
            "binding pattern has a smooth root; the contract layer needs the "
            "mutual-information cost")
    zeros = _pattern(inst, alpha)
    response = _response_start(inst, alpha)
    if _warm is not None:
        return _solve_pattern(inst, xi, alpha, zeros, [_warm, response()])
    try:
        return _solve_pattern(inst, xi, alpha, zeros, [response()])
    except NoPatternFoundError as exc:
        if xi == 0.0:
            raise
        try:
            base = _solve_pattern(inst, 0.0, alpha, zeros, [response()])
            return _solve_pattern(inst, xi, alpha, zeros, [[_logits(base.experiment)]])
        except NoPatternFoundError:
            raise exc from None


def _logits(exp):
    logits = np.log(exp.conditionals)
    return (logits[:-1] - logits[-1:]).reshape(-1)


def _response_start(inst, alpha):
    """Starting logits of the cold solves: those of the unconstrained best
    response to alpha y, computed once when first needed, or none when it
    does not converge."""
    response = []

    def starts():
        if not response:
            try:
                guess = best_response_general(Contract(alpha * inst.output), inst.prior,
                                              inst.cost_model)
            except NoConvergenceError:
                response.append(None)
            else:
                cond = np.clip(guess.experiment.conditionals, 1e-9, None)
                response.append(_logits(Experiment(cond / cond.sum(axis=0, keepdims=True))))
        if response[0] is not None:
            yield response[0]
    return starts


def _solve_pattern(inst, xi, alpha, zeros, groups):
    """Solve the binding pattern `zeros` from each group of starting logits
    in turn: the first root that a group reaches is checked, and the first
    that passes every check is returned.  Raises NoPatternFoundError with
    the reason each group failed."""
    cond_of, residuals = _pattern_residuals(inst, zeros)

    def fun(x):
        return residuals(x, xi, alpha)[0]

    reasons = []
    for starts in groups:
        root = _first_root(fun, starts)
        outcome = "no root" if root is None else _certify(inst, xi, alpha, zeros,
                                                          cond_of(root))
        if isinstance(outcome, ContractSolution):
            return outcome
        reasons.append(outcome)
    raise NoPatternFoundError(
        f"binding pattern {sorted(zeros)} at xi={xi}, alpha={alpha}: "
        + "; ".join(reasons))


def _first_root(fun, starts):
    """The first Newton root of fun from `starts`, or None."""
    for x0 in starts:
        try:
            root = _newton(fun, x0, 1e-3 * _ROOT_TOL)
        except np.linalg.LinAlgError:
            continue
        if root is not None and np.max(np.abs(fun(root))) < _ROOT_TOL:
            return root
    return None


def _certify(inst, xi, alpha, zeros, cond):
    """The solution of the pattern at the root experiment `cond`, or the
    reason it fails the sign, feasibility, or KKT checks."""
    pi = inst.prior
    try:
        lam, beta, gamma = _multiplier_solve(inst, alpha, xi, cond, zeros)
    except np.linalg.LinAlgError:
        return "singular multipliers"
    payments = alpha * inst.output - beta[None, :] - gamma
    for d, s in zeros:
        payments[d, s] = 0.0
    checks = _pattern_checks(inst, payments, lam, zeros)
    if checks:
        return checks

    b = Contract(payments)
    exp = Experiment(cond)
    resid = _verify_solution(inst, b, exp, lam, beta, gamma, xi, alpha)
    if resid is None:
        return "verification"
    residual, rho = resid
    tau = beta * pi - xi * rho
    phi = cond * (1.0 - xi) - lam / pi[None, :]
    gamma_hat = inst.cost_model.logit_scale * lam.sum(axis=1) / marginal(exp, pi)
    duals = DualCertificate(lam=lam, xi=float(xi), tau=tau, rho=rho, phi=phi)
    deco = Decomposition(alpha=float(alpha), beta=beta, gamma=gamma,
                         gamma_hat=gamma_hat)
    report = evaluate_profile(b, exp, inst)
    return ContractSolution(contract=b, experiment=exp, duals=duals,
                            decomposition=deco, report=report,
                            pattern=tuple(sorted(zeros)), residual=residual)


_FD_STEP = float(np.sqrt(np.finfo(float).eps))


def _newton(fun, x0, tol):
    """Damped Newton root of a square system: x with max|fun(x)| < tol, or
    None when the Jacobian is singular, a step or its residual is not
    finite, the line search stalls, or 50 steps do not suffice.

    The Jacobian is a forward difference with step sqrt(eps) max(1, |x_j|).
    Each step starts at the full Newton step and halves it until
    ||F||^2 falls by the Armijo factor 1 - 1e-4 t; below t = 1e-3 the
    start is given up, since a pattern without a root would otherwise
    spend its evaluations on ever shorter steps.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    if not np.all(np.isfinite(f)):
        return None
    for _ in range(50):
        if np.max(np.abs(f)) < tol:
            return x
        try:
            step = np.linalg.solve(_jacobian(fun, x, f), -f)
        except np.linalg.LinAlgError:
            return None
        if not np.all(np.isfinite(step)):
            return None
        norm2 = f @ f
        t = 1.0
        while True:
            trial = x + t * step
            f_trial = fun(trial)
            if not np.all(np.isfinite(f_trial)):
                return None
            if f_trial @ f_trial <= (1.0 - 1e-4 * t) * norm2:
                break
            t *= 0.5
            if t < 1e-3:
                return None
        x, f = trial, f_trial
    return x if np.max(np.abs(f)) < tol else None


def _jacobian(fun, x, f):
    """Forward-difference Jacobian of fun at x, where fun(x) = f."""
    h = _FD_STEP * np.maximum(1.0, np.abs(x))
    jac = np.empty((f.size, x.size))
    for j in range(x.size):
        shifted = x.copy()
        shifted[j] += h[j]
        jac[:, j] = (fun(shifted) - f) / h[j]
    return jac


def _pattern_checks(inst, payments, lam, zeros, tol=1e-7):
    """Sign and feasibility screens; returns a reason string or None."""
    for d, s in zeros:
        if inst.output[d, s] > 0 and lam[d, s] < -tol:
            return f"lambda[{d},{s}] negative at a zero payment"
    if np.any(payments < -1e-9) or np.any(payments > inst.output + 1e-9):
        return "interior payment escaped the liability limits"
    return None


def _verify_solution(inst, b, exp, lam, beta, gamma, xi, alpha):
    """Final certification: agent KKT, best-response cross-check, and the
    principal reconstruction.  Returns (residual, rho) or None."""
    pi = inst.prior
    try:
        agent_res, rho = agent_kkt_residual(b, pi, inst.cost_model, exp)
    except BoundaryPointError:
        return None
    if agent_res > 1e-6:
        return None
    br = best_response_shannon(b, pi, scale=inst.cost_model.logit_scale)
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
    s = model.logit_scale
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
    s_sh = inst.cost_model.logit_scale
    gamma_hat = None
    if s_sh is not None:
        gamma_hat = s_sh * lam.sum(axis=1) / marginal(p, pi)
    deco = Decomposition(alpha=float(alpha), beta=beta, gamma=gamma, gamma_hat=gamma_hat)
    duals = DualCertificate(lam=lam, xi=xi, tau=tau, rho=rho, phi=phi)
    return deco, duals


_CAPACITY_MARGIN = 1e-9   # relative gap below the capacity at which the cost row aims


def _bordered(inst, zeros, r, xi=None, alpha=None):
    """The pattern system of the cells `zeros`, bordered by V_A - r = 0
    when xi is free (None) and by cost - capacity = 0 when alpha is free,
    as a function of z: the experiment logits, then the free ones of xi
    and alpha in that order.  V_A comes from the principal's payments of
    the same multiplier solve.  The cost row aims `_CAPACITY_MARGIN` below
    the capacity, so that its certified root does not exceed it."""
    pi = inst.prior
    _, residuals = _pattern_residuals(inst, zeros)
    n_free = (xi is None) + (alpha is None)
    target = inst.capacity * (1.0 - _CAPACITY_MARGIN)

    def fun(z):
        k = len(z) - n_free
        res, cond, pay = residuals(z[:k], z[k] if xi is None else xi,
                                   z[-1] if alpha is None else alpha)
        cost = inst.cost_model.value(Experiment(cond), pi)
        rows = [res]
        if xi is None:
            rows.append([float(np.sum(cond * pi[None, :] * pay)) - cost - r])
        if alpha is None:
            rows.append([cost - target])
        return np.concatenate(rows)

    return fun


def _bordered_root(fun, z0):
    """Newton root of a bordered system from z0, or None."""
    try:
        return _newton(fun, z0, 1e-12)
    except np.linalg.LinAlgError:
        return None


def _land(inst, sol, r, v_tol):
    """The solution at the piece rate of `sol` whose agent utility is r,
    or None.

    The pattern system at the piece rate of `sol`, bordered with
    V_A(x, xi) - r = 0, is solved for the experiment logits x and xi
    together, from `sol` (the bordered system of continuation methods;
    Allgower & Georg), and the root is certified by one solve warm from it.
    A root at xi < 0 means participation is slack: the landing is the
    xi = 0 solution.

    Each of two optimal contracts does at least as well as the other at
    its own weight, so (xi' - xi)(V_A' - V_A) >= 0.  A root where V_A
    falls as xi rises along its branch of pattern roots therefore lies on
    a branch of stationary points that is not optimal, which a Newton
    step can jump to; it is refused.  None as well when there is no root,
    xi > 1, or the certified solution misses r by more than v_tol (at
    xi = 0: falls short of r).
    """
    alpha = sol.decomposition.alpha
    bordered = _bordered(inst, _pattern(inst, alpha), r, alpha=alpha)
    z = _bordered_root(bordered, np.append(_logits(sol.experiment), sol.duals.xi))
    if z is None or z[-1] > 1.0:
        return None
    if z[-1] < 0.0:
        xi, start = 0.0, _logits(sol.experiment)
    elif _branch_slope(bordered, z) > 0.0:
        xi, start = float(z[-1]), z[:-1]
    else:
        return None
    try:
        landed = second_best_solve(inst, xi, alpha, _warm=[start])
    except NoPatternFoundError:
        return None
    v = landed.report.agent_utility
    if abs(v - r) > v_tol and not (xi == 0.0 and v >= r):
        return None
    return landed


def _branch_slope(bordered, z):
    """Derivative of the last residual of `bordered` in the last unknown,
    along the roots of the other residuals through z: their tangent
    (dx, 1) has F_x dx + F_xi = 0.  NaN where F_x is singular."""
    jac = _jacobian(bordered, z, bordered(z))
    try:
        dx = np.linalg.solve(jac[:-1, :-1], -jac[:-1, -1])
    except np.linalg.LinAlgError:
        return np.nan
    return jac[-1, :-1] @ dx + jac[-1, -1]


def _xi_search(inst, r, alpha, v_tol):
    """(solution at piece rate alpha whose agent utility is r within
    v_tol, the xi = 1 solution at alpha).

    The xi = 1 solution is carried onto r by `_land`, or is the answer
    when it already hits r.  Else xi = 0 is solved once, warm from it, and
    answers when participation is slack at r.  Raises OutOfRangeError when
    the utility at xi = 1 falls short of r, and NoConvergenceError in
    every other case.
    """
    top = second_best_solve(inst, 1.0, alpha)
    v = top.report.agent_utility
    if v < r - v_tol:
        raise OutOfRangeError(
            f"utility {r} above the second-best range at alpha={alpha} (max {v:.6f})")
    landed = _land(inst, top, r, v_tol)
    if landed is not None:
        return landed, top
    if abs(v - r) <= v_tol:
        return top, top
    end = None
    try:
        end = second_best_solve(inst, 0.0, alpha, _warm=[_logits(top.experiment)])
    except NoPatternFoundError:
        pass
    if end is not None and end.report.agent_utility - r >= -v_tol:
        return end, top
    miss = "no solution" if end is None else f"agent utility {end.report.agent_utility:.6f}"
    raise NoConvergenceError(
        f"xi search for utility {r} at alpha={alpha}: agent utility {v:.6f} at "
        f"xi=1 and {miss} at xi=0, not within {v_tol:g}"
    )


def solve_for_reservation(inst: ProblemInstance, r, alpha=1.0,
                          v_tol=1e-4) -> ContractSolution:
    """Second-best contract at piece rate alpha whose agent utility is r
    within v_tol.  The participation weight xi is found by one bordered
    Newton solve from the xi = 1 solution (`_land`).

    Returns the xi = 0 solution directly when the participation constraint
    is slack at r.  Raises OutOfRangeError when r exceeds the utility at
    xi = 1, and NoConvergenceError when the landing fails and neither the
    xi = 1 solution nor the xi = 0 one answers.
    """
    return _xi_search(inst, r, alpha, v_tol)[0]


def _alpha_search(inst, r, v_tol=1e-4):
    """(alpha*, the reservation solution at alpha*), alpha* the piece rate
    at which the capacity just binds: alpha* = 1 / (1 + nu), nu the
    capacity multiplier.

    The xi search at alpha = 1 answers, with alpha* = 1, when its solution
    costs at most the capacity.  Else the pattern system, bordered by
    V_A - r and by cost - capacity (`_bordered`), is solved for the
    logits, xi and alpha at once from that solution, and the root is
    certified by one solve warm from it.  A root at xi < 0 lands at xi = 0
    (participation is slack), and a root at xi > 1, or none, at xi = 1: at
    that end the cost row alone is solved for alpha, from the xi = 1,
    alpha = 1 solution (at xi = 0, from the xi search's answer).  Raises
    OutOfRangeError when the utility at xi = 1 falls short of r, at
    alpha = 1 or at the end's alpha, and NoConvergenceError when the
    answer misses r or the capacity.
    """
    sol, top = _xi_search(inst, r, 1.0, v_tol)
    if sol.report.cost <= inst.capacity:
        return 1.0, sol
    zeros = _pattern(inst, 1.0)
    z = _bordered_root(_bordered(inst, zeros, r),
                       np.append(_logits(sol.experiment), [sol.duals.xi, 1.0]))
    if z is not None and 0.0 <= z[-2] <= 1.0 and 0.0 < z[-1] <= 1.0:
        xi, alpha, start = float(z[-2]), float(z[-1]), z[:-2]
    else:
        xi, near = (0.0, sol) if z is not None and z[-2] < 0.0 else (1.0, top)
        end = _bordered_root(_bordered(inst, zeros, r, xi=xi),
                             np.append(_logits(near.experiment), 1.0))
        if end is None or not 0.0 < end[-1] <= 1.0:
            raise NoConvergenceError(
                f"alpha search for utility {r}: no piece rate where the cost meets "
                f"the capacity {inst.capacity} at xi={xi:g}")
        alpha, start = float(end[-1]), end[:-1]
    landed = second_best_solve(inst, xi, alpha, _warm=[start])
    v, cost = landed.report.agent_utility, landed.report.cost
    if xi == 1.0 and v < r - v_tol:
        raise OutOfRangeError(
            f"utility {r} above the second-best range at alpha={alpha} (max {v:.6f})")
    if v - r < -v_tol or (xi > 0.0 and v - r > v_tol) or cost > inst.capacity:
        raise NoConvergenceError(
            f"alpha search for utility {r}: agent utility {v:.6f} and cost {cost:.6g} "
            f"at xi={xi:.6g}, alpha={alpha:.6g}, not within {v_tol:g} of r and "
            f"at most the capacity {inst.capacity}")
    return alpha, landed


def alpha_star(inst: ProblemInstance, r) -> float:
    """Piece rate substituting for the capacity constraint in the
    perturbed (capacity-free) Pareto problem at reservation utility r: 1
    when the capacity is slack at the reservation solution at alpha = 1,
    else the piece rate at which it just binds, solved for together with
    xi (`_alpha_search`).  Raises what the reservation request raises,
    OutOfRangeError for a utility beyond the second-best range."""
    return _alpha_search(inst, r)[0]


def brute_force_pareto(inst: ProblemInstance, r=-np.inf, grid_n=21):
    """Exhaustive verification oracle on a payment grid.

    Every payment b(d, theta) ranges over a grid in [0, y(d, theta)]; the
    agent responds optimally (no capacity constraint), computed for the
    whole grid in one batch by the agent's logit kernel, with decisions
    paid identically splitting their marginal equally; the best grid
    contract maximizes the principal's payoff subject to the agent
    clearing utility r.  Only for tiny instances.
    """
    if grid_n < 2:
        raise ValueError("oracle grid needs at least 2 points per payment")
    n_d, n_s = inst.output.shape
    if n_d * n_s > 4:
        raise TooLargeError("oracle supports at most 4 payment cells")
    if grid_n > 41:
        raise TooLargeError("oracle grid is capped at 41 points per payment")
    s = inst.cost_model.logit_scale
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
    """Risk-averse distortion in information-cost-matrix form:
    same-decision complementarities k(q)/(q q^T) weighted by
    (joint - lambda)/u'.  Block d of the cost Hessian is
    p(d) k(q_d) / (p(.|d) p(.|d)^T), so k(q)/(q q^T) is that block times
    p(d) / (pi pi^T)."""
    pi = np.asarray(prior, float)
    lam = np.asarray(lam, float)
    cond = p.conditionals
    n_d, n_s = cond.shape
    up = u_prime(b.payments)
    hess = model.hessian(p, pi).reshape(n_d, n_s, n_d, n_s)
    blocks = hess[np.arange(n_d), :, np.arange(n_d), :]
    k_qq = blocks * (cond @ pi)[:, None, None] / np.outer(pi, pi)
    weight = (cond * pi[None, :] - lam) / up
    return (k_qq @ weight[:, :, None])[:, :, 0]


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
