"""Pareto-optimal contracts: first-best piece rates and transfers, the
capacity-equivalent scaling, and second-best contracts with the optimal
distortion recovered from their multipliers, all under the
mutual-information cost, scale s.

Every second-best contract is one reduced problem (`reduced`): the logit
rule pins the payments to an experiment on a support of decisions and one
level per state, b(d, theta) = s log(p(d|theta) / p(d)) + c_theta, and the
problem maximizes alpha E_p y - s I(p) less the levels' price times pi.c
under the liability limits.  A reservation utility r prices the levels at
1 and adds the row pi.c >= r and, for `alpha_star`, the capacity; xi and
alpha* = 1 / (1 + nu) are their multipliers.  A participation weight xi
(`second_best_solve`) prices the levels at 1 - xi, with no participation
row.  gamma is the distortion of the multipliers lambda in closed form, a
decision-dependent transfer where lambda = 0 (Result 4), written once in
`gamma_from_duals`.
Each answer is certified (`_decomposed`): signs, feasibility, agent
optimality and b = alpha y - beta - gamma.  At xi = 1, and from the
first-best floor of r up, the answer is the first-best contract.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import reduced
from .agent import agent_kkt_residual, best_response_capacity, best_response_shannon
from .errors import (BoundaryPointError, InconsistentProfileError, NoConvergenceError,
                     NoPatternFoundError, OutOfRangeError, TooLargeError)
from .model import (Contract, Experiment, PayoffReport, ProblemInstance,
                    evaluate_profile, marginal)

FRONTIER_SLACK = 5e-3   # first-best targets this close outside the range clamp
V_TOL = 1e-4            # how near a reservation answer's agent utility is to r
_ORACLE_SLICE = 1 << 14  # grid contracts the oracle holds at once


@dataclass(frozen=True)
class Decomposition:
    """Contract split b = alpha y - beta - gamma (gamma_hat for Shannon)."""

    alpha: float
    beta: np.ndarray
    gamma: np.ndarray
    gamma_hat: np.ndarray


@dataclass(frozen=True)
class DualCertificate:
    """Multipliers certifying optimality of a second-best profile."""

    lam: np.ndarray
    xi: float
    tau: np.ndarray
    rho: np.ndarray
    mu: float = 0.0


@dataclass(frozen=True)
class ContractSolution:
    """A solved Pareto problem: profile, certificates, and payoffs."""

    contract: Contract
    experiment: Experiment
    duals: DualCertificate
    decomposition: Decomposition
    report: PayoffReport
    residual: float


def alpha_prime(inst: ProblemInstance) -> float:
    """Largest piece rate at which the capacity never binds for contract
    alpha y; 1.0 when it is slack even at full output.  The best response
    to alpha y is the one to y at cost scale 1/alpha, so alpha' = 1/(1 +
    mu) is read off the capacity solve at y (`best_response_capacity`,
    whose binding answer costs at most CAPACITY_TOL below the capacity),
    the solve every first-best quantity reads."""
    base = best_response_capacity(inst.output_contract, inst.prior, inst.capacity,
                                  inst.cost_model)
    return 1.0 / (1.0 + base.mu)


def first_best_frontier(inst: ProblemInstance, r):
    """First-best contract alpha y - beta delivering the agent utility r.

    Walks the frontier by lowering alpha from 1 to alpha' with beta = 0,
    then raising beta toward the per-state output minima (so that at the
    lower endpoint the minimum payment in each state touches zero).
    Targets within FRONTIER_SLACK of the achievable range clamp to the
    endpoint; a NaN target raises ValueError.  An output of 0 everywhere
    has one point, r = 0 at the zero contract.
    alpha' is read off the capacity solve at y (`best_response_capacity`,
    as in `alpha_prime`): the best response to alpha y is the one to y at
    cost scale 1/alpha, so the capacity binds from alpha' = 1/(1 + mu) on.

    The agent is solved once, at y.  Neither alpha nor beta changes the
    experiment: E_p[alpha y - beta] - (1 + mu') c(p) is alpha (E_p[y] -
    (1 + mu) c(p)) less the constant E_pi[beta] when 1 + mu' = alpha (1 +
    mu), so the solution at y answers for the contract with the same
    experiment and cost, mu' = alpha (1 + mu) - 1, and the residual, in
    payment units of the penalized problem, scaled by alpha; an Everett
    mixture at y stays one.
    """
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
        # e_y = 0 only for an output of 0 everywhere
        alpha = min(max((r + base.cost) / e_y, ap), 1.0) if e_y > 0.0 else 1.0
        beta = np.zeros(inst.n_states)
    else:
        # e_min > 0 here; t = 1 exactly at the bottom pays each state's lowest cell 0
        alpha = ap
        t = 1.0 if r <= v_bottom else min((v_mid - r) / (ap * e_min), 1.0)
        beta = t * ap * inst.output.min(axis=0)
    contract = Contract(alpha * inst.output - beta[None, :])
    joint = base.experiment.conditionals * inst.prior[None, :]
    sol = replace(base, mu=max(alpha * (1.0 + base.mu) - 1.0, 0.0),
                  value=float(np.sum(joint * contract.payments)) - base.cost,
                  residual=alpha * base.residual)
    return contract, sol, alpha


# ---------------------------------------------------------------------------
# decompositions and their certificates


_SIGN_TOL = 1e-7   # multiplier size the sign screens tolerate


def _logit_scale(model, what):
    """The logit scale of the mutual-information cost `model`; any other
    cost raises NoPatternFoundError, saying that `what` needs it."""
    s = model.logit_scale
    if s is None:
        raise NoPatternFoundError(f"{what} needs the logit rule of the mutual-information cost")
    return s


def gamma_from_duals(p: Experiment, prior, model, lam) -> np.ndarray:
    """The optimal distortion of the multipliers `lam` (Result 4), s
    sum_theta' lam(d,theta') / p(d) - s lam(d,theta) / (p(d|theta)
    pi(theta)) at the logit scale s of mutual information (any other cost
    raises NoPatternFoundError): it needs every entry of a decision taken
    above 0, however small, and is 0 on a decision never taken.  `lam`
    may stack multipliers on leading axes."""
    s = _logit_scale(model, "the optimal distortion")
    pi = np.asarray(prior, float)
    lam = np.asarray(lam, float)
    cond = p.conditionals
    used = cond.any(axis=1)
    if np.min(cond[used]) <= 0.0:
        raise BoundaryPointError("a decision taken in some states only has no "
                                 "mutual-information distortion")
    m = np.where(used, cond @ pi, 1.0)
    joint = np.where(used[:, None], cond * pi[None, :], 1.0)
    gamma = (s * lam.sum(axis=-1) / m)[..., None] - s * lam / joint
    return np.where(used[:, None], gamma, 0.0)


def _split(inst, b, gamma, used, alpha):
    """(beta, gamma, reconstruction error) of b = alpha y - beta - gamma,
    gamma from the duals: beta is the mean of alpha y - b - gamma over the
    decisions taken, where the error is measured, and gamma on a decision
    never taken the remainder alpha y - beta - b."""
    y, pay = inst.output, b.payments
    beta = np.mean((alpha * y - pay - gamma)[used], axis=0)
    recon = np.max(np.abs(pay - (alpha * y - beta[None, :] - gamma))[used])
    return beta, np.where(used[:, None], gamma, alpha * y - beta[None, :] - pay), recon


def _records(inst, exp, lam, xi, alpha, beta, gamma, rho, mu=0.0):
    """The decomposition and dual certificate of b = alpha y - beta - gamma
    with multipliers (lam, xi), the agent's levels rho and capacity dual
    mu: tau = beta pi - xi rho and gamma_hat = s sum_theta lam / p(d), 0
    on a decision never taken."""
    pi, m = inst.prior, marginal(exp, inst.prior)
    gamma_hat = np.divide(inst.cost_model.logit_scale * lam.sum(axis=1), m,
                          out=np.zeros_like(m), where=m > 0)
    deco = Decomposition(alpha=float(alpha), beta=beta, gamma=gamma, gamma_hat=gamma_hat)
    duals = DualCertificate(lam=lam, xi=float(xi), tau=beta * pi - xi * rho, rho=rho,
                            mu=float(mu))
    return deco, duals


def _decomposed(inst, exp, b, lam, xi, alpha, mu=0.0):
    """Certify the contract b with experiment exp and multipliers (lam,
    xi) at piece rate alpha and the agent's capacity dual mu, beta and
    gamma split by `_split`.  Returns the solution or the reason it fails
    the checks, cheapest first: lam >= 0 where a positive output is paid 0
    and <= 0 where a positive payment is the whole output; the liability
    limits; the agent's KKT conditions, the reconstruction on the decisions
    taken, slackness and sum_d lam = (1 - xi) pi within 1e-6; and the
    agent's best response, which reproduces the experiment or, on a
    smaller support, where decisions may tie, reaches no higher agent
    objective."""
    pi, y, pay = inst.prior, inst.output, b.payments
    used = exp.conditionals.any(axis=1)
    try:
        gamma = gamma_from_duals(exp, pi, inst.cost_model, lam)
    except BoundaryPointError as exc:
        return str(exc)
    beta, gamma, recon = _split(inst, b, gamma, used, alpha)
    for d, s in zip(*np.nonzero((lam < -_SIGN_TOL) & (pay <= 0.0) & (y > 0))):
        return f"lambda[{d},{s}] negative at a zero payment"
    for d, s in zip(*np.nonzero((lam > _SIGN_TOL) & (pay >= y) & (pay > 0.0))):
        return f"lambda[{d},{s}] positive at a full-output payment"
    if np.any(pay < -1e-9) or np.any(pay > y + 1e-9):
        return "interior payment escaped the liability limits"
    try:
        agent_res, rho = agent_kkt_residual(b, pi, inst.cost_model, exp, mu)
    except BoundaryPointError:
        return "verification"
    slack = np.max(np.abs(lam * np.minimum(pay, y - pay)))
    sums = np.max(np.abs(lam.sum(axis=0) - (1.0 - xi) * pi))
    residual = max(agent_res, recon, slack, sums)
    if residual > 1e-6:
        return "verification"
    br = best_response_shannon(b, pi, mu=mu, scale=inst.cost_model.logit_scale)
    if np.max(np.abs(br.experiment.conditionals - exp.conditionals)) > 1e-6:
        own = float(np.sum(exp.conditionals * pi[None, :] * pay))
        own -= (1.0 + mu) * inst.cost_model.value(exp, pi)
        if used.all() or own < br.value - mu * br.cost - 1e-9:
            return "verification"
    deco, duals = _records(inst, exp, lam, xi, alpha, beta, gamma, rho, mu)
    return ContractSolution(contract=b, experiment=exp, duals=duals, decomposition=deco,
                            report=evaluate_profile(b, exp, inst), residual=residual)


def decompose(b: Contract, inst: ProblemInstance, p: Experiment,
              alpha=1.0, residual_tol=1e-4):
    """Recover (alpha, beta, gamma) and duals from a solved profile.

    xi and the multipliers of the cells at a liability limit on the
    decisions taken come from a least-squares fit, with a sign projection,
    of the state sums sum_d lam = (1 - xi) pi and of the within-state
    principal conditions between decisions taken, in which beta cancels
    and xi does not appear, the distortion (`gamma_from_duals`) being a
    function of lam alone; beta and gamma then split as in the certificate
    (`_split`).  One decision taken does not pin xi down: any lam = (1 -
    xi) pi on its cells fits, and the fit is xi = 1, lam = 0.
    """
    pi, y, pay = inst.prior, inst.output, b.payments
    n_s = y.shape[1]
    used = p.conditionals.any(axis=1)
    taken = np.flatnonzero(used)
    tol_active = 1e-6
    zeros = pay <= tol_active
    tops = (pay >= y - tol_active) & (y > tol_active)
    active = np.flatnonzero((zeros | tops) & used[:, None])
    n_a = len(active)
    # unknowns: lam at the active cells, then zeta = 1 - xi; column a is
    # the distortion of a unit multiplier at cell a
    units = np.eye(y.size)[active].reshape((n_a,) + y.shape)
    cols = np.moveaxis(gamma_from_duals(p, pi, inst.cost_model, units), 0, -1)
    within = (cols[taken[1:]] - cols[taken[:1]]).reshape((len(taken) - 1) * n_s, n_a)
    sums = np.equal.outer(np.arange(n_s), active % n_s).astype(float)
    rows = np.block([[within, np.zeros((len(within), 1))], [sums, -pi[:, None]]])
    net = alpha * y - pay
    rhs = np.concatenate([(net[taken[1:]] - net[taken[:1]]).ravel(), np.zeros(n_s)])
    sol, *_ = np.linalg.lstsq(rows, rhs, rcond=None)
    xi = 1.0 - float(np.clip(sol[n_a], 0.0, 1.0))
    lam = np.zeros(y.shape)
    lam.flat[active] = sol[:n_a]
    lam = np.where(zeros & (y > tol_active), np.maximum(lam, 0.0),
                   np.where(tops, np.minimum(lam, 0.0), lam))

    gamma = gamma_from_duals(p, pi, inst.cost_model, lam)
    beta, gamma, resid = _split(inst, b, gamma, used, alpha)
    if resid > residual_tol:
        raise InconsistentProfileError(
            f"profile does not fit the optimality system (residual {resid:.2e})")
    _, rho = agent_kkt_residual(b, pi, inst.cost_model, p)
    return _records(inst, p, lam, xi, alpha, beta, gamma, rho)


# ---------------------------------------------------------------------------
# second-best contracts: one reduced solve (`reduced`)


def _reduced_solution(inst, prob, r, z, mult, lam):
    """The contract of a KKT point of the reduced problem, certified, or
    the reason it fails.  With nu the capacity's multiplier and xi_c the
    participation one, the piece rate is alpha / (1 + nu), xi is 1 -
    (price - xi_c) / (1 + nu), price being the levels' (1 - xi at a fixed
    weight, where xi_c = 0 and nu = 0), and lambda the net liability
    multipliers (lower less upper) over 1 + nu, which sum to (price -
    xi_c) pi in each state.  The agent's utility must reach r within V_TOL,
    and hit it where participation binds (xi_c > 0)."""
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
                      1.0 - (prob.price - xi_c) / scale, prob.alpha / scale)
    if isinstance(sol, ContractSolution):
        miss = sol.report.agent_utility - r
        if miss < -V_TOL or (xi_c > 0.0 and miss > V_TOL):
            return f"agent utility {sol.report.agent_utility:.6f}, not within {V_TOL:g} of {r}"
    return sol


def _single_solution(inst, d, r, alpha, xi):
    """The uninformative contract that pays only decision d, t y_d with
    pi.(t y_d) = max(r, 0), at participation weight xi: lambda is (1 - xi)
    pi on d's cells, and 0 where participation binds (r > 0, xi = 1)."""
    payments, cond = np.zeros(inst.output.shape), np.zeros(inst.output.shape)
    cond[d] = 1.0
    if r > 0.0:
        payments[d] = r / (inst.prior @ inst.output[d]) * inst.output[d]
    lam = np.zeros(inst.output.shape)
    lam[d] = (1.0 - xi) * inst.prior
    return _decomposed(inst, Experiment(cond), Contract(payments), lam, xi, alpha)


def _first_best_on(inst, support, r, alpha, capacity, base=None):
    """The first-best contract (`first_best_frontier`) on the decisions
    `support` at output alpha y and the given capacity whose agent utility
    is r, certified with lambda = 0 and xi = 1 at the agent's dual, or the
    reason it fails; `base` is the capacity solve of its full-output
    contract (`best_response_capacity`, as in `first_best_frontier`), when
    known.  Raises OutOfRangeError outside the first-best range."""
    sub = replace(inst, decisions=[inst.decisions[d] for d in support],
                  output=alpha * inst.output[support], capacity=capacity)
    if base is None:
        base = best_response_capacity(sub.output_contract, sub.prior, capacity, sub.cost_model)
    contract, agent, rate = _frontier(sub, base, r, V_TOL)
    payments, cond = np.zeros(inst.output.shape), np.zeros(inst.output.shape)
    payments[support], cond[support] = contract.payments, agent.experiment.conditionals
    return _decomposed(inst, Experiment(cond), Contract(payments), np.zeros(cond.shape),
                       1.0, alpha * rate, agent.mu)


def _reduced_candidate(inst, r, alpha, capacity, start, price):
    """The certified answer of the reduced problem (`reduced.solve`) from
    the experiment `start`, or the reason there is none."""
    try:
        prob, point = reduced.solve(inst, r, alpha, capacity, start, price)
        if point is None:
            return _first_best_on(inst, prob.support, r, alpha, capacity)
    except (NoConvergenceError, OutOfRangeError) as exc:
        return str(exc)
    return _reduced_solution(inst, prob, r, *point)


def second_best_solve(inst: ProblemInstance, xi, alpha) -> ContractSolution:
    """Second-best Pareto contract at participation weight xi and piece
    rate alpha, capacity handled upstream through alpha.

    At xi = 1 the levels carry no price: the answer is the first-best
    contract of alpha y at the bottom of its frontier, paying 0 in each
    state's lowest cell.  Below it the answer is one reduced solve
    (`reduced`, the levels priced at 1 - xi and no participation row) from
    the best response to alpha y.  Where that fails or ends at one decision
    and xi > 0, the problem is solved once more from the experiment of the
    xi = 0 answer, if there is one: on the worked example at xi = 0.25 the
    retry answers the two-decision contract (objective 4.917) in place of
    the single-decision one (5.0), which the benchmark's answer check
    rejects.  Where it still ends at one decision, the answer is the
    closed-form contract that pays nothing, with the agent taking the
    decision of the highest expected output and lambda = (1 - xi) pi on its
    cells; so it is at alpha = 0, where every experiment is worth 0 to the
    principal.  Raises NoPatternFoundError for a model without a logit
    scale (a tabulated uncertainty function) and NoConvergenceError when
    the reduced solve fails otherwise.
    """
    if not (0.0 <= xi <= 1.0):
        raise ValueError("xi must lie in [0, 1]")
    if not alpha >= 0.0:
        raise ValueError("alpha must be nonnegative")
    _logit_scale(inst.cost_model, "the second-best problem")
    top = replace(inst, output=alpha * inst.output, capacity=np.inf)
    base = best_response_capacity(top.output_contract, top.prior, np.inf, top.cost_model)
    best = int(np.argmax(inst.output @ inst.prior))
    if alpha == 0.0:
        # every experiment is worth 0 to the principal, and the split of
        # weight among the decisions is free
        answer = _single_solution(inst, best, -np.inf, alpha, xi)
    elif xi == 1.0:
        every = np.arange(inst.n_decisions)
        answer = _first_best_on(inst, every, _frontier_ends(top, base)[0], alpha, np.inf, base)
    else:
        start = base.experiment.conditionals
        answer = _reduced_candidate(inst, -np.inf, alpha, np.inf, start, 1.0 - xi)
        if isinstance(answer, str) and xi > 0.0:
            first = _reduced_candidate(inst, -np.inf, alpha, np.inf, start, 1.0)
            if isinstance(first, ContractSolution):
                answer = _reduced_candidate(inst, -np.inf, alpha, np.inf,
                                            first.experiment.conditionals, 1.0 - xi)
        if answer == reduced.ONE_DECISION:
            answer = _single_solution(inst, best, -np.inf, alpha, xi)
    if isinstance(answer, str):
        raise NoConvergenceError(f"participation weight {xi}, piece rate {alpha}: {answer}")
    return answer


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
    range, NoPatternFoundError for a model without a logit scale,
    NoConvergenceError when no candidate is certified, and ValueError for
    a NaN r.
    """
    if np.isnan(r):
        raise ValueError("reservation utility must not be NaN")
    _logit_scale(inst.cost_model, "the reservation problem")
    if alpha is not None and not alpha > 0.0:
        raise ValueError("alpha must be positive")
    piece, capacity = (1.0, inst.capacity) if alpha is None else (float(alpha), np.inf)
    top = replace(inst, output=piece * inst.output, capacity=capacity)
    base = best_response_capacity(top.output_contract, top.prior, capacity, top.cost_model)
    every = np.arange(inst.n_decisions)
    if r >= _frontier_ends(top, base)[0]:
        answer = _first_best_on(inst, every, r, piece, capacity, base)
        if isinstance(answer, str):
            raise NoConvergenceError(f"reservation utility {r}: {answer}")
        return answer

    def value(sol):
        return piece * sol.report.expected_output - sol.report.expected_payment

    found = [_reduced_candidate(inst, r, piece, capacity, base.experiment.conditionals, 1.0)]
    for d in every:
        reach = float(inst.prior @ inst.output[d])
        best = max((value(s) for s in found if isinstance(s, ContractSolution)), default=-np.inf)
        if r <= reach and piece * reach - max(r, 0.0) > best:
            found.append(_single_solution(inst, d, r, piece, float(r > 0.0)))
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
    agent responds optimally (no capacity constraint), in closed form and
    independently of the agent's solvers (`_grid_response`); the best grid
    contract maximizes the principal's payoff subject to the agent clearing
    utility r.  Only for at most 4 payment cells.  A cost other than
    mutual information raises NoPatternFoundError.
    """
    if grid_n < 2:
        raise ValueError("oracle grid needs at least 2 points per payment")
    if np.isnan(r):
        raise ValueError("reservation utility must not be NaN")
    n_d, n_s = inst.output.shape
    if n_d * n_s > 4:
        raise TooLargeError("oracle supports at most 4 payment cells")
    if grid_n > 41:
        raise TooLargeError("oracle grid is capped at 41 points per payment")
    s = _logit_scale(inst.cost_model, "the grid oracle")
    pi = inst.prior

    axes = [np.linspace(0.0, top, grid_n) if top > 0 else np.array([0.0])
            for top in inst.output.ravel()]
    shape = tuple(len(axis) for axis in axes)
    total = int(np.prod(shape))
    best, found = -np.inf, None
    # slices in the grid's row-major order, keeping the first best, give
    # the answer of one pass over the whole grid in bounded memory
    for first in range(0, total, _ORACLE_SLICE):
        cells = np.unravel_index(np.arange(first, min(first + _ORACLE_SLICE, total)), shape)
        contracts = np.stack([axis[i] for axis, i in zip(axes, cells)],
                             axis=1).reshape(-1, n_d, n_s)
        q, p = _grid_response(contracts / s, pi)
        joint = p * pi[None, None, :]
        e_y = np.sum(joint * inst.output[None], axis=(1, 2))
        e_b = np.sum(joint * contracts, axis=(1, 2))
        ratio = np.log(np.maximum(p, 1e-300) / np.maximum(q[:, :, None], 1e-300))
        info = np.sum(np.where(p > 1e-300, joint * ratio, 0.0), axis=(1, 2))
        principal = np.where(e_b - s * info >= r - 1e-12, e_y - e_b, -np.inf)
        i = int(np.argmax(principal))
        if principal[i] > best:
            best, found = principal[i], (contracts[i], p[i])
    if found is None:
        raise OutOfRangeError(f"no grid contract attains agent utility {r}")
    payments, p = found
    return Contract(payments), Experiment(p / p.sum(axis=0, keepdims=True))


def _grid_response(logits, pi):
    """Logit best responses to a stack of grid contracts, in closed form:
    `logits` (n, n_d, n_s) holds b / s; returns the marginals q and the
    conditionals.  With one decision or one state no information pays, and
    the agent splits equally among the decisions of the best expected
    payment.  With two of each, q_1 maximizes the concave sum_s pi_s
    log(c_s + q_1 delta_s), for w = exp(logits) shifted per state, c = w_2
    and delta = w_1 - w_2: where the deltas differ in sign it is the root
    of the first-order condition, clipped to [0, 1]; else 1 or 0 as
    decision 1 dominates or is dominated, and 1/2 for identical rows.
    """
    w = np.exp(logits - logits.max(axis=1, keepdims=True))
    if 1 in logits.shape[1:]:
        e_b = logits @ pi
        best = e_b == e_b.max(axis=1, keepdims=True)
        q = best / best.sum(axis=1, keepdims=True)
    else:
        delta, c = w[:, 0] - w[:, 1], w[:, 1]
        across = delta[:, 0] * delta[:, 1]
        root = np.divide(delta[:, 0] * c[:, 1] * pi[0] + delta[:, 1] * c[:, 0] * pi[1],
                         -across * pi.sum(), out=np.zeros(len(w)), where=across < 0)
        q1 = np.where(across < 0, np.clip(root, 0.0, 1.0), 0.5 + 0.5 * np.sign(delta.sum(axis=1)))
        q = np.stack([q1, 1.0 - q1], axis=1)
    joint = q[:, :, None] * w
    return q, joint / joint.sum(axis=1, keepdims=True)
