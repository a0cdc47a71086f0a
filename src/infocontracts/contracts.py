"""Pareto-optimal contracts: first-best piece rates and transfers, the
capacity-equivalent scaling, and second-best contracts with the optimal
distortion recovered from a KKT system, all under the mutual-information
cost, scale s.

`second_best_solve` takes the participation weight xi and the piece rate
alpha.  It fixes which payments sit on a liability limit (`_pattern`: each
state's lowest-output cell and every cell with no positive output), then
solves agent optimality (b is s log(p(d|theta) / p(d)) up to a per-state
level), the principal's condition b = alpha y - beta - gamma and the
multiplier sums sum_d lambda(d,theta) = (1-xi) pi(theta) as one root in
the experiment's logits (`_newton`).  gamma is the distortion in closed
form, s sum_theta' lambda(d,theta') / p(d) - s lambda(d,theta) /
(p(d|theta) pi(theta)), a decision-dependent transfer where lambda = 0
(Result 4); `gamma_from_duals` certifies it against the Hessian
contraction.  A root that fails a sign, feasibility or KKT check raises
NoPatternFoundError.

A reservation utility r is one reduced problem (`reduced`): an experiment
on a support of decisions and one level per state, maximizing alpha E_p y
- s I(p) - pi.c, the surplus less the agent's rent, under the liability
limits, pi.c >= r and, for `alpha_star`, the capacity.  xi and alpha* =
1 / (1 + nu) are its multipliers, and its answer passes the checks of
`second_best_solve` (`_certify`), extended to decisions never taken.
From the first-best floor up the answer is the first-best contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import reduced
from .agent import (_logit_kernel, agent_kkt_residual, best_response_capacity,
                    best_response_general, best_response_shannon)
from .errors import (BoundaryPointError, InconsistentProfileError, NoConvergenceError,
                     NoPatternFoundError, OutOfRangeError, TooLargeError)
from .model import (Contract, Experiment, PayoffReport, ProblemInstance,
                    evaluate_profile, marginal)

FRONTIER_SLACK = 5e-3   # first-best targets this close outside the range clamp
V_TOL = 1e-4            # how near a reservation answer's agent utility is to r


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


def first_best_frontier(inst: ProblemInstance, r):
    """First-best contract alpha y - beta delivering the agent utility r.

    Walks the frontier by lowering alpha from 1 to alpha' with beta = 0,
    then raising beta toward the per-state output minima (so that at the
    lower endpoint the minimum payment in each state touches zero).
    Targets within FRONTIER_SLACK of the achievable range clamp to the
    endpoint; a NaN target raises ValueError.
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
    if np.isnan(r):
        raise ValueError("agent utility must not be NaN")
    base = best_response_capacity(inst.output_contract, inst.prior, inst.capacity,
                                  inst.cost_model)
    return _frontier(inst, base, r, FRONTIER_SLACK)[:2]


def _frontier_ends(inst, base):
    """(v_bottom, v_mid, v_top, alpha', E_p y, E_pi min_d y) of the first-best
    frontier through the capacity solution `base` at y."""
    ap = 1.0 / (1.0 + base.mu)
    joint = base.experiment.conditionals * inst.prior[None, :]
    e_y = float(np.sum(joint * inst.output))
    e_min = float(inst.prior @ inst.output.min(axis=0))
    cost = base.cost
    return ap * (e_y - e_min) - cost, ap * e_y - cost, e_y - cost, ap, e_y, e_min


def _frontier(inst, base, r, slack):
    """(contract, agent solution, alpha) of `first_best_frontier` from the
    capacity solution `base` at y."""
    v_bottom, v_mid, v_top, ap, e_y, e_min = _frontier_ends(inst, base)
    if r > v_top + slack or r < v_bottom - slack:
        raise OutOfRangeError(
            f"agent utility {r} outside the first-best range "
            f"[{v_bottom:.6f}, {v_top:.6f}]"
        )
    r = min(max(r, v_bottom), v_top)
    if r >= v_mid:
        alpha = min(max((r + base.cost) / e_y, ap), 1.0)
        beta = np.zeros(inst.n_states)
    else:
        alpha = ap
        t = (v_mid - r) / (ap * e_min) if e_min > 0 else 0.0
        beta = min(t, 1.0) * ap * inst.output.min(axis=0)
    contract = Contract(alpha * inst.output - beta[None, :])
    joint = base.experiment.conditionals * inst.prior[None, :]
    sol = replace(base, mu=max(alpha * (1.0 + base.mu) - 1.0, 0.0),
                  rho=alpha * base.rho - inst.prior * beta,
                  value=float(np.sum(joint * contract.payments)) - base.cost,
                  residual=alpha * base.residual)
    return contract, sol, alpha


# ---------------------------------------------------------------------------
# second-best KKT machinery


_ROOT_TOL = 1e-9   # max |residual| of a certified pattern root
_SIGN_TOL = 1e-7   # multiplier size the sign screens tolerate


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


def _pattern_residuals(inst, zeros, xi, alpha):
    """Residual function of the coupled system in logit coordinates.

    Returns (cond_of, fun): `cond_of(x)` is the experiment of the logits
    x, and `fun(x)` returns the residuals at participation weight xi and
    piece rate alpha with that experiment and the principal's payments
    alpha y - beta - gamma, which are zero at the pattern's cells `zeros`.
    Each reference cell (the first zero of its state) pays zero and has no
    residual.  Conditionals are floored at 1e-11 so the residuals stay
    finite wherever the root finder wanders; roots of interest are
    interior, far from the floor.
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

    def fun(x):
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
        return res

    return cond_of, fun


def second_best_solve(inst: ProblemInstance, xi, alpha) -> ContractSolution:
    """Second-best Pareto contract at participation weight xi and piece
    rate alpha, capacity handled upstream through alpha.

    Solves the binding pattern (`_pattern`) from the logits of the
    unconstrained best response to alpha y, computed once.  When that
    fails at xi > 0, the pattern is solved once more from the xi = 0
    solution at the same alpha, if that one solves.  Raises
    NoPatternFoundError, naming the pattern and why it failed, when no
    root passes the sign, feasibility, and KKT residual checks; and at
    once for a model without a logit scale (a tabulated uncertainty
    function), whose Hessian is zero, so that the pattern system has no
    smooth root.
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
    start = _response_logits(inst, alpha)
    try:
        return _solve_pattern(inst, xi, alpha, zeros, start)
    except NoPatternFoundError as exc:
        if xi == 0.0:
            raise
        try:
            base = _solve_pattern(inst, 0.0, alpha, zeros, start)
            return _solve_pattern(inst, xi, alpha, zeros, _logits(base.experiment))
        except NoPatternFoundError:
            raise exc from None


def _logits(exp):
    logits = np.log(exp.conditionals)
    return (logits[:-1] - logits[-1:]).reshape(-1)


def _response_logits(inst, alpha):
    """Starting logits of the cold solves: those of the unconstrained best
    response to alpha y, or None when it does not converge."""
    try:
        guess = best_response_general(Contract(alpha * inst.output), inst.prior,
                                      inst.cost_model)
    except NoConvergenceError:
        return None
    cond = np.clip(guess.experiment.conditionals, 1e-9, None)
    return _logits(Experiment(cond / cond.sum(axis=0, keepdims=True)))


def _solve_pattern(inst, xi, alpha, zeros, start):
    """Solve the binding pattern `zeros` by Newton's method from the
    logits `start` (none: no root) and check the root.  Raises
    NoPatternFoundError with the reason it failed."""
    cond_of, fun = _pattern_residuals(inst, zeros, xi, alpha)
    root = None
    if start is not None:
        try:
            root = _newton(fun, start, 1e-3 * _ROOT_TOL)
        except np.linalg.LinAlgError:
            pass
    outcome = "no root"
    if root is not None and np.max(np.abs(fun(root))) < _ROOT_TOL:
        outcome = _pattern_solution(inst, xi, alpha, zeros, cond_of(root))
        if isinstance(outcome, ContractSolution):
            return outcome
    raise NoPatternFoundError(
        f"binding pattern {sorted(zeros)} at xi={xi}, alpha={alpha}: {outcome}")


def _pattern_solution(inst, xi, alpha, zeros, cond):
    """The solution of the pattern at the root experiment `cond`, or the
    reason it fails the sign, feasibility, or KKT checks."""
    try:
        lam, beta, gamma = _multiplier_solve(inst, alpha, xi, cond, zeros)
    except np.linalg.LinAlgError:
        return "singular multipliers"
    payments = alpha * inst.output - beta[None, :] - gamma
    for d, s in zeros:
        payments[d, s] = 0.0
    return _certify(inst, xi, alpha, Experiment(cond), payments, lam, beta, gamma,
                    tuple(sorted(zeros)))


def _certify(inst, xi, alpha, exp, payments, lam, beta, gamma, pattern, mu=0.0):
    """The solution of the profile (payments, exp) with multipliers (lam,
    xi) and the split alpha y - beta - gamma, or the reason it fails the
    sign, feasibility, or KKT checks (`_pattern_checks`,
    `_verify_solution`, at the agent's capacity dual mu)."""
    pi = inst.prior
    checks = _pattern_checks(inst, payments, lam)
    if checks:
        return checks
    b = Contract(payments)
    resid = _verify_solution(inst, b, exp, lam, beta, gamma, xi, alpha, mu)
    if resid is None:
        return "verification"
    residual, rho = resid
    cond = exp.conditionals
    tau = beta * pi - xi * rho
    phi = cond * (1.0 - xi) - lam / pi[None, :]
    m = marginal(exp, pi)
    gamma_hat = np.divide(inst.cost_model.logit_scale * lam.sum(axis=1), m,
                          out=np.zeros_like(m), where=m > 0)
    duals = DualCertificate(lam=lam, xi=float(xi), tau=tau, rho=rho, phi=phi, mu=float(mu))
    deco = Decomposition(alpha=float(alpha), beta=beta, gamma=gamma,
                         gamma_hat=gamma_hat)
    report = evaluate_profile(b, exp, inst)
    return ContractSolution(contract=b, experiment=exp, duals=duals,
                            decomposition=deco, report=report,
                            pattern=pattern, residual=residual)


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


def _pattern_checks(inst, payments, lam):
    """Sign and feasibility screens; returns a reason string or None.  A
    multiplier is nonnegative where a positive output is paid zero and
    nonpositive where a positive payment is the whole output."""
    y = inst.output
    for d, s in zip(*np.nonzero((lam < -_SIGN_TOL) & (payments <= 0.0) & (y > 0))):
        return f"lambda[{d},{s}] negative at a zero payment"
    for d, s in zip(*np.nonzero((lam > _SIGN_TOL) & (payments >= y) & (payments > 0.0))):
        return f"lambda[{d},{s}] positive at a full-output payment"
    if np.any(payments < -1e-9) or np.any(payments > y + 1e-9):
        return "interior payment escaped the liability limits"
    return None


def _verify_solution(inst, b, exp, lam, beta, gamma, xi, alpha, mu=0.0):
    """Final certification at the agent's capacity dual mu: agent KKT,
    best-response cross-check, and the principal reconstruction on the
    decisions taken.  Returns (residual, rho) or None.

    The best response must reproduce the experiment or, on a smaller
    support, where decisions may tie, reach no higher agent objective."""
    pi = inst.prior
    try:
        agent_res, rho = agent_kkt_residual(b, pi, inst.cost_model, exp, mu)
    except BoundaryPointError:
        return None
    if agent_res > 1e-6:
        return None
    used = exp.conditionals.any(axis=1)
    br = best_response_shannon(b, pi, mu=mu, scale=inst.cost_model.logit_scale)
    if np.max(np.abs(br.experiment.conditionals - exp.conditionals)) > 1e-6:
        own = float(np.sum(exp.conditionals * pi[None, :] * b.payments))
        own -= (1.0 + mu) * inst.cost_model.value(exp, pi)
        if used.all() or own < br.value - mu * br.cost - 1e-9:
            return None
    gamma_check = gamma_from_duals(exp, pi, inst.cost_model, lam, xi)
    recon = np.max(np.abs(b.payments - (alpha * inst.output - beta[None, :] - gamma_check))[used])
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
    Hessian contraction; disagreement raises.  A decision never taken
    (p(d) = 0) has no distortion: its row is 0.
    """
    pi = np.asarray(prior, float)
    lam = np.asarray(lam, float)
    cond = p.conditionals
    used = cond.any(axis=1)
    if not used.all():
        gamma = np.zeros(cond.shape)
        gamma[used] = gamma_from_duals(Experiment(cond[used]), pi, model, lam[used], xi)
        return gamma
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


# ---------------------------------------------------------------------------
# reservation requests: one reduced solve (`reduced`)


def _reduced_solution(inst, prob, r, z, mult, lam):
    """The contract of a KKT point of the reduced problem, certified, or
    the reason it fails.  With nu the capacity's multiplier and xi_c the
    participation one, the piece rate is alpha / (1 + nu), xi is 1 - (1 -
    xi_c) / (1 + nu), and lambda the net liability multipliers (lower less
    upper) over 1 + nu.  The agent's utility must reach r within V_TOL, and
    hit it where participation binds (xi_c > 0)."""
    support, shape = prob.support, inst.output.shape
    q, u, c = prob.split(z)
    cond = np.zeros(shape)
    cond[support] = q[:, None] * np.exp(u) / (q @ np.exp(u))
    scale = 1.0 + (lam[prob.rows["capacity"]] if "capacity" in prob.rows else 0.0)
    xi_c = lam[prob.rows["participation"]] if prob.elastic else 0.0
    net = np.zeros(prob.k * prob.n)
    net[prob.cells] = lam[prob.rows["lower"]] - lam[prob.rows["upper"]]
    net[prob.fixed] = mult[prob.k + prob.n:]
    lam_full = np.zeros(shape)
    lam_full[support] = net.reshape(prob.k, prob.n) / scale
    # the payments s u + c, the limits they meet to rounding made exact
    pay = np.clip(prob.s * u + c, 0.0, prob.y)
    pay[pay <= 1e-12] = 0.0
    top = prob.y - pay <= 1e-12
    pay[top] = prob.y[top]
    payments = np.zeros(shape)
    payments[support] = pay
    sol = _decomposed(inst, Experiment(cond), Contract(payments), lam_full,
                      1.0 - (1.0 - xi_c) / scale, prob.alpha / scale)
    if isinstance(sol, ContractSolution):
        miss = sol.report.agent_utility - r
        if miss < -V_TOL or (xi_c > 0.0 and miss > V_TOL):
            return f"agent utility {sol.report.agent_utility:.6f}, not within {V_TOL:g} of {r}"
    return sol


def _decomposed(inst, exp, b, lam, xi, alpha, mu=0.0):
    """Certify the contract b with experiment exp and multipliers (lam,
    xi) at piece rate alpha: gamma from the duals on the decisions taken,
    beta the mean of alpha y - b - gamma there, and gamma = alpha y - beta
    - b on a decision never taken."""
    used = exp.conditionals.any(axis=1)
    try:
        gamma = gamma_from_duals(exp, inst.prior, inst.cost_model, lam, xi)
    except (BoundaryPointError, InconsistentProfileError) as exc:
        return str(exc)
    beta = np.mean((alpha * inst.output - b.payments - gamma)[used], axis=0)
    gamma[~used] = (alpha * inst.output - beta[None, :] - b.payments)[~used]
    pattern = tuple(zip(*(axis.tolist() for axis in np.nonzero(b.payments == 0.0))))
    return _certify(inst, xi, alpha, exp, b.payments, lam, beta, gamma, pattern, mu)


def _single_solution(inst, d, r, alpha):
    """The uninformative contract that pays only decision d, t y_d with
    pi.(t y_d) = max(r, 0): participation binds (xi = 1, no liability
    multiplier) when r > 0; else it pays nothing, with xi = 0 and lambda =
    pi on d's cells."""
    payments, cond, lam = (np.zeros(inst.output.shape) for _ in range(3))
    cond[d] = 1.0
    if r > 0.0:
        payments[d] = r / (inst.prior @ inst.output[d]) * inst.output[d]
    else:
        lam[d] = inst.prior
    return _decomposed(inst, Experiment(cond), Contract(payments), lam, float(r > 0.0), alpha)


def _full_output_response(sub):
    """The agent's solution to the full-output contract of `sub` under its
    capacity, solved 1e-10 of the capacity below it and to that tolerance,
    so that its cost does not exceed the capacity."""
    tol = 1e-10 * sub.capacity if np.isfinite(sub.capacity) else 1e-8
    return best_response_capacity(sub.output_contract, sub.prior, sub.capacity - tol,
                                  sub.cost_model, cost_tol=tol)


def _first_best_on(inst, support, r, alpha, capacity, base=None):
    """The first-best contract (`first_best_frontier`) on the decisions
    `support` at output alpha y and the given capacity whose agent utility
    is r, certified with lambda = 0 and xi = 1 at the agent's dual, or the
    reason it fails; `base` is `_full_output_response` there, when known.
    Raises OutOfRangeError outside the first-best range."""
    sub = replace(inst, decisions=[inst.decisions[d] for d in support],
                  output=alpha * inst.output[support], capacity=capacity)
    contract, agent, rate = _frontier(sub, base or _full_output_response(sub), r, V_TOL)
    payments, cond = np.zeros(inst.output.shape), np.zeros(inst.output.shape)
    payments[support], cond[support] = contract.payments, agent.experiment.conditionals
    return _decomposed(inst, Experiment(cond), Contract(payments), np.zeros(cond.shape),
                       1.0, alpha * rate, agent.mu)


def _reduced_candidate(inst, r, alpha, capacity, start):
    """The certified answer of the reduced problem (`reduced.solve`) from
    the experiment `start`, or the reason there is none."""
    try:
        prob, point = reduced.solve(inst, r, alpha, capacity, start)
        if point is None:
            return _first_best_on(inst, prob.support, r, alpha, capacity)
    except (NoConvergenceError, OutOfRangeError) as exc:
        return str(exc)
    return _reduced_solution(inst, prob, r, *point)


def solve_for_reservation(inst: ProblemInstance, r, alpha=1.0) -> ContractSolution:
    """Pareto contract whose agent utility is r within V_TOL, or at least
    r where participation is slack: one reduced solve (`reduced`).

    A contract is an experiment and one level per state (the logit rule),
    and the problem maximizes alpha E_p y - s I(p) - pi.c under the
    liability limits and pi.c >= r, at piece rate alpha and without the
    capacity.  With alpha None it also imposes s I(p) <= capacity at alpha
    = 1; then the piece rate alpha* = 1 / (1 + nu), nu the capacity's
    multiplier, is the decomposition's alpha.  The participation weight xi
    is the multiplier of pi.c >= r, normalized as in `second_best_solve`.

    From the first-best floor up (the agent utility of the first-best
    experiment paying 0 in each state's lowest cell) the answer is the
    first-best contract (`first_best_frontier`; at alpha given, that of
    alpha y without capacity).  Below it the answer is the better, by
    alpha E_p y - E_p b, of the reduced problem's and the contracts that
    pay a single decision.  Raises OutOfRangeError above the first-best
    range, NoPatternFoundError for a model without a logit scale or an
    output below 0, NoConvergenceError when no candidate is certified, and
    ValueError for a NaN r.
    """
    if np.isnan(r):
        raise ValueError("reservation utility must not be NaN")
    if inst.cost_model.logit_scale is None:
        raise NoPatternFoundError(
            "the reservation problem needs the logit rule of the mutual-information cost")
    if np.any(inst.output < 0.0):
        raise NoPatternFoundError("an output below 0 leaves no payment within both "
                                  "liability limits")
    if alpha is not None and not alpha > 0.0:
        raise ValueError("alpha must be positive")
    piece, capacity = (1.0, inst.capacity) if alpha is None else (float(alpha), np.inf)
    top = replace(inst, output=piece * inst.output, capacity=capacity)
    base = _full_output_response(top)
    every = np.arange(inst.n_decisions)
    if r >= _frontier_ends(top, base)[0]:
        answer = _first_best_on(inst, every, r, piece, capacity, base)
        if isinstance(answer, str):
            raise NoConvergenceError(f"reservation utility {r}: {answer}")
        return answer

    def value(sol):
        return piece * sol.report.expected_output - sol.report.expected_payment

    found = [_reduced_candidate(inst, r, piece, capacity, base.experiment.conditionals)]
    for d in every:
        reach = float(inst.prior @ inst.output[d])
        best = max((value(s) for s in found if isinstance(s, ContractSolution)), default=-np.inf)
        if r <= reach and piece * reach - max(r, 0.0) > best:
            found.append(_single_solution(inst, d, r, piece))
    answers = [s for s in found if isinstance(s, ContractSolution)]
    if not answers:
        raise NoConvergenceError(f"reservation utility {r}: " + "; ".join(found))
    return max(answers, key=value)


def alpha_star(inst: ProblemInstance, r) -> float:
    """Piece rate substituting for the capacity constraint at reservation
    utility r: the decomposition's alpha of `solve_for_reservation` under
    the capacity, 1 / (1 + nu) with nu the capacity's multiplier (1 where
    it is slack), and the frontier's piece rate from the first-best floor
    up.  Raises what the reservation request raises."""
    return solve_for_reservation(inst, r, None).decomposition.alpha


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
