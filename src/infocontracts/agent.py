"""The agent's problem: optimal experiments for a given contract.

Three routes:

* `best_response_shannon` -- the logit best response for mutual-information
  costs: the decision marginal q maximizing sum_s pi_s log sum_d q_d w_ds
  (Matejka & McKay 2015), found by `_logit_kernel`, an active-set Newton
  method that starts at the better of the full-information choice and the
  best single decision, drops decisions exactly and stops on the logit
  certificate; the same kernel solves the grid oracle in `contracts` in
  one batch (deterministic, no randomness);
* `best_response_capacity` -- wraps the above, or the general route when
  the model has no `logit_scale`, in a safeguarded secant (Illinois)
  search on the capacity dual mu so the cost constraint just binds;
* `best_response_general` -- any posterior-separable cost: concavification
  of the net-utility envelope for two states; for more states the logit
  kernel when the model has a `logit_scale`, else entropic mirror ascent
  per state column.

`agent_kkt_residual` certifies a candidate experiment: within each state
the quantity pi(theta) b(d,theta) - dc/dp(d|theta) must be constant across
decisions at an optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from . import geometry
from .costs import CostModel
from .errors import BoundaryPointError, NoConvergenceError
from .model import Contract, Experiment, marginal

LOGIT_TOL = 1e-12
LOGIT_MAX_ITER = 500
LINE_TOL = 1e-14
LINE_MAX_ITER = 60
# largest x = log(1 + mu) the capacity search tries (mu about 1e152), far
# below log of the largest float, where expm1 overflows
MAX_LOG_DUAL = 350.0
_SEGMENT = np.array([1.0, -1.0])


@dataclass(frozen=True)
class AgentSolution:
    """An optimal experiment with its capacity dual and certification data."""

    experiment: Experiment
    mu: float
    rho: np.ndarray
    value: float
    cost: float
    iterations: int
    residual: float


def _logit_kernel(logits, prior, tol=LOGIT_TOL, max_iter=LOGIT_MAX_ITER):
    """Logit best responses for a batch of contracts, by active-set Newton.

    `logits` has shape (n, n_d, n_s) and holds b(d, theta) / temperature.
    For each contract, maximizes sum_s pi_s log D_s, D_s = sum_d q_d w_ds,
    over the decision marginal q in the simplex, with w the per-state
    shifted exp(logits).  Starts at the better, by this objective, of the
    full-information choice and the best single decision.  The objective
    only rises from there, and the full-information choice scores at least
    sum_s pi_s log pi_s, so no density D_s comes near zero even where
    weights underflow.  Each iteration admits the decision with the
    largest g_d once the current support is solved, takes the Newton
    direction on the face sum q = 1 of the support, searches along it for
    the maximum (`_line`), and drops a decision exactly when the step
    reaches q_d = 0.  Stops on the logit certificate g_d = sum_s pi_s w_ds
    / D_s: |g_d - 1| <= tol on the support and g_d <= 1 + tol off it.

    Decisions with identical weight rows solve as one and split its
    marginal equally.  Returns (q, conditionals, iterations), the last
    the number of Newton steps per contract.
    """
    z = np.asarray(logits, float)
    pi = np.asarray(prior, float)
    n, n_d, _ = z.shape
    w = np.exp(z - np.maximum.reduce(z, axis=1, keepdims=True))
    same = np.logical_and.reduce(w[:, :, None, :] == w[:, None, :, :], axis=3)
    group = same.argmax(axis=2)
    lead = group == np.arange(n_d)
    q_out = np.zeros((n, n_d))
    iters = np.zeros(n, dtype=int)

    # the full-information choice puts each state's prior mass on a
    # decision paid best there (every D_s >= pi_s); the best vertex, the
    # decision with the best expected payment, is often optimal outright
    # when information barely pays
    best = np.where(lead[:, :, None], w, -1.0).argmax(axis=1)
    q = (best[:, None, :] == np.arange(n_d)[:, None]) @ pi
    top = np.where(lead, z @ pi, -np.inf).argmax(axis=1)
    with np.errstate(divide="ignore"):
        vertex = np.log(w[np.arange(n), top]) @ pi >= np.log(
            (q[:, None, :] @ w)[:, 0]) @ pi
    q[vertex] = np.arange(n_d) == top[vertex, None]
    live = np.arange(n)
    wl, lead_l, support = w, lead, q > 0
    for it in range(max_iter + 1):
        dens = (q[:, None, :] @ wl)[:, 0]
        ratio = pi / dens
        gap = (wl @ ratio[:, :, None])[:, :, 0] - 1.0
        face = np.maximum.reduce(np.abs(gap) * support, axis=1)
        outside = np.where(support | ~lead_l, -np.inf, gap)
        enter = outside.argmax(axis=1)
        rows = np.arange(len(live))
        solved = (face <= tol) & (outside[rows, enter] <= tol)
        if solved.all():
            q_out[live] = q
            break
        if solved.any():
            q_out[live[solved]] = q[solved]
            keep = ~solved
            live, q, wl, lead_l, support = (live[keep], q[keep], wl[keep],
                                            lead_l[keep], support[keep])
            dens, ratio, gap, face, enter = (dens[keep], ratio[keep], gap[keep],
                                             face[keep], enter[keep])
            rows = rows[:len(live)]
        if it == max_iter:
            raise NoConvergenceError(
                f"logit kernel not certified after {max_iter} Newton steps "
                f"(certificate gap {max(face.max(), gap.max()):.3e})"
            )
        iters[live] += 1
        admit = face <= tol
        support[rows[admit], enter[admit]] = True

        if n_d == 2:
            # the face is a segment: its direction, scaled by the line search
            step = np.sign(gap[:, :1] - gap[:, 1:]) * _SEGMENT
        else:
            # Newton direction on the face sum q = 1, in the coordinates of
            # the support less its largest decision r (whose step is minus the
            # others' sum): M~ step = (g - g_r) with M~_de = M_de - M_dr -
            # M_re + M_rr and M = sum_s pi_s w_ds w_es / D_s^2.  M~ is scaled
            # by M's diagonal, since a decision just admitted to a face can
            # have g_d and M_dd many orders larger than the rest, and gets a
            # 1e-12 ridge: decisions paid almost alike make it singular, and
            # the step then runs along their difference to the boundary,
            # where one of them drops.
            ref = q.argmax(axis=1)
            hess = (wl * (ratio / dens)[:, None, :]) @ wl.transpose(0, 2, 1)
            free = support.copy()
            free[rows, ref] = False
            # (off the support M_dd can underflow to 0)
            unit = np.divide(1.0, np.sqrt(np.diagonal(hess, axis1=1, axis2=2)),
                             out=np.zeros_like(q), where=free)
            cross = hess[rows, ref]
            hess = (hess - cross[:, :, None] - cross[:, None, :]
                    + cross[rows, ref][:, None, None])
            reduced = 1e-12 * np.eye(n_d) + np.where(
                free[:, :, None] & free[:, None, :],
                hess * unit[:, :, None] * unit[:, None, :],
                np.eye(n_d) * ~free[:, None, :])
            rhs = (gap - gap[rows, ref][:, None]) * unit
            step = np.linalg.solve(reduced, rhs[:, :, None])[:, :, 0] * unit
            step[rows, ref] = -np.add.reduce(step, axis=1)

        shrink = support & (step < 0)
        limit = np.divide(q, -step, out=np.full_like(q, np.inf), where=shrink)
        block = limit.argmin(axis=1)
        t_max = limit[rows, block]
        t = _line((step[:, None, :] @ wl)[:, 0] / dens, pi, t_max)
        q = q + t[:, None] * step
        hit = t == t_max
        q[rows[hit], block[hit]] = 0.0
        np.maximum(q, 0.0, out=q)
        q /= np.add.reduce(q, axis=1, keepdims=True)
        support &= q > 0

    if not lead.all():
        q_out = q_out[np.arange(n)[:, None], group] / same.sum(axis=2)
    joint = q_out[:, :, None] * w
    return q_out, joint / np.add.reduce(joint, axis=1, keepdims=True), iters


def _line(rel, pi, t_max):
    """Step length maximizing sum_s pi_s log(1 + t rel_s) over [0, t_max].

    With two states the root of the derivative sum_s pi_s rel_s / (1 + t
    rel_s) is closed form.  Otherwise the derivative P(t) - N(t) splits
    into the states whose density rises (P, falling in t like a pole at
    t = -1/rel_s) and falls (N, rising toward a pole at t = 1/|rel_s|);
    each step solves the model with one pole on each side fitted to P, N
    and their slopes, bracketed, bisecting when it leaves the bracket.
    Far steps do not crawl as Newton steps on P - N would.  Returns t_max
    when the objective still rises there.
    """
    if rel.shape[1] == 2:
        cross = rel[:, 0] * rel[:, 1]
        root = np.divide(rel @ pi, -cross * pi.sum(), out=np.full_like(t_max, np.inf),
                         where=cross < 0)
        return np.minimum(root, t_max)
    rises = pi * (rel > 0)
    falls = pi * (rel < 0)
    lo = np.zeros_like(t_max)
    hi = t_max
    top = t_max
    t = lo
    f = rel
    # a state whose density reaches zero at t_max gives inf and nan
    # values there, which the bracket then excludes
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(LINE_MAX_ITER):
            pf = rises * f
            nf = falls * f
            p = np.add.reduce(pf, axis=1)
            n = -np.add.reduce(nf, axis=1)
            slope = p - n
            done = (np.abs(slope) <= LINE_TOL * p) | ((slope >= 0) & (t == t_max))
            if done.all():
                return t
            up = slope > 0
            lo = np.where(up, t, lo)
            hi = np.where(up, hi, t)
            top = np.where(up | (t < top), top, np.inf)
            # root of P / (1 + d a) = N / (1 - d b), a = -P'/P, b = N'/N
            dp = np.add.reduce(pf * f, axis=1)
            dn = np.add.reduce(nf * f, axis=1)
            den = p * p * dn + n * n * dp
            guess = t + np.divide(slope * p * n, den, out=np.full_like(t, np.inf),
                                  where=den > 0)
            guess = np.where(up & (guess >= top), t_max,
                             np.where((guess > lo) & (guess < hi), guess, 0.5 * (lo + hi)))
            t = np.where(done, t, guess)
            f = rel / (1.0 + t[:, None] * rel)
    return np.where(slope > 0, t, lo)


def best_response_shannon(b: Contract, prior, mu=0.0, scale=1.0,
                          tol=LOGIT_TOL, max_iter=LOGIT_MAX_ITER) -> AgentSolution:
    """Optimal experiment under mutual-information cost and capacity dual mu.

    Solves p(d|theta) proportional to p(d) exp(b(d,theta)/(scale (1+mu)))
    with marginal consistency by the Newton kernel `_logit_kernel`;
    decisions outside the consideration set get exactly zero.
    """
    if mu < 0:
        raise ValueError("capacity dual mu must be nonnegative")
    pi = np.asarray(prior, float)
    temp = scale * (1.0 + mu)
    q, cond, iters = _logit_kernel(b.payments[None] / temp, pi, tol, max_iter)
    q, cond = q[0], cond[0]
    exp = Experiment(cond)
    cost = CostModel("entropy", scale).value(exp, pi)
    e_b = float(np.sum(cond * pi[None, :] * b.payments))
    residual, rho = _logit_residual(b.payments, pi, temp, q, cond)
    return AgentSolution(experiment=exp, mu=float(mu), rho=rho,
                         value=e_b - cost, cost=cost,
                         iterations=int(iters[0]), residual=residual)


def _logit_residual(payments, pi, temp, q, cond):
    """KKT spread on the consideration set q > 0 and the implied rho.

    With z = payments / temp, p(d|theta) = q_d exp(z_d,theta) / D_theta
    and D_theta = sum_e q_e exp(z_e,theta), the quantity pi b - temp pi
    log(p(d|theta) / p(d)) is temp pi_theta (log D_theta - log(q_d / p(d))):
    its spread within a state is temp pi_theta times the spread of
    log(q_d / p(d)), which stays finite where p(d|theta) underflows to zero
    on a live decision.
    """
    active = q > 0
    z = payments / temp
    top = z.max(axis=0)
    level = temp * pi * (top + np.log(q @ np.exp(z - top)))
    gap = np.log(q[active] / (cond[active] @ pi))
    residual = float(temp * np.max(pi) * (gap.max() - gap.min()))
    return residual, level - temp * pi * gap.mean()


def best_response_capacity(b: Contract, prior, capacity, model,
                           cost_tol=1e-8, max_doublings=9) -> AgentSolution:
    """Optimal experiment subject to cost <= capacity.

    Returns the unconstrained optimum with mu = 0 when capacity is slack.
    Otherwise the cost falls as the dual mu rises: brackets the crossing
    in x = log(1 + mu) by doubling x from log 2 (at most `max_doublings`
    times, and never past `MAX_LOG_DUAL`), then runs Illinois regula
    falsi on log(cost / capacity), bisecting where no information is
    bought, until the cost is within `cost_tol` of the capacity.  If the
    bracket closes first, the cost jumps there and the end whose cost is
    below the capacity is returned.  A model with a `logit_scale` takes
    the logit route at every mu; otherwise the search runs on the
    penalized problem with the cost scaled by (1 + mu).
    """
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    pi = np.asarray(prior, float)
    logit_scale = model.logit_scale

    def solve(x):
        mu = math.expm1(x)
        if logit_scale is not None:
            return best_response_shannon(b, pi, mu=mu, scale=logit_scale)
        sol = best_response_general(b, pi, model.scaled(1.0 + mu))
        cost = model.value(sol.experiment, pi)
        e_b = float(np.sum(sol.experiment.conditionals * pi[None, :] * b.payments))
        return AgentSolution(experiment=sol.experiment, mu=mu, rho=sol.rho,
                             value=e_b - cost, cost=cost,
                             iterations=sol.iterations, residual=sol.residual)

    free = solve(0.0)
    if free.cost <= capacity:
        return free

    def excess(sol):
        # log(cost / capacity), -inf where no information is bought at all
        return math.log(sol.cost / capacity) if sol.cost > 0 else -math.inf

    # the cost falls as x rises: bracket the crossing, then close in
    x_lo, sol_lo, f_lo = 0.0, free, excess(free)
    x_hi = math.log(2.0)
    sol_hi = solve(x_hi)
    n = 0
    while sol_hi.cost >= capacity:
        if n >= max_doublings or x_hi >= MAX_LOG_DUAL:
            raise NoConvergenceError("capacity dual bracket not found")
        x_lo, sol_lo, f_lo = x_hi, sol_hi, excess(sol_hi)
        x_hi = min(2.0 * x_hi, MAX_LOG_DUAL)
        sol_hi = solve(x_hi)
        n += 1
    f_hi = excess(sol_hi)
    sol = sol_hi
    side = 0
    while abs(sol.cost - capacity) >= cost_tol:
        if x_hi - x_lo < 1e-15 * (1.0 + x_hi):
            # the cost jumps across the closed bracket: return the end that
            # keeps within the capacity
            return sol_hi
        x = (x_lo * f_hi - x_hi * f_lo) / (f_hi - f_lo)
        if not x_lo < x < x_hi:
            x = 0.5 * (x_lo + x_hi)
        sol = solve(x)
        f = excess(sol)
        # Illinois: halve the value kept at an end that survives twice
        if f > 0:
            x_lo, sol_lo, f_lo = x, sol, f
            if side > 0:
                f_hi *= 0.5
            side = 1
        else:
            x_hi, sol_hi, f_hi = x, sol, f
            if side < 0:
                f_lo *= 0.5
            side = -1
    return sol


def agent_kkt_residual(b: Contract, prior, model, p: Experiment,
                       mu=0.0, eps=1e-9):
    """Max within-state spread of pi(theta) b - (1+mu) dc/dp and implied rho.

    Decisions outside the consideration set (rows uniformly below `eps`)
    are excluded; a row that is zero in some states but not others is a
    genuine boundary point and raises.
    """
    pi = np.asarray(prior, float)
    cond = p.conditionals
    row_min = cond.min(axis=1)
    row_max = cond.max(axis=1)
    dropped = row_max <= eps
    if np.any((row_min <= eps) & ~dropped):
        raise BoundaryPointError("experiment touches the boundary on a live decision")
    active = np.flatnonzero(~dropped)
    sub = Experiment(cond[active] / cond[active].sum(axis=0, keepdims=True))
    grad = model.gradient(sub, pi)
    vals = pi[None, :] * b.payments[active] - (1.0 + mu) * grad
    residual = float(np.max(vals.max(axis=0) - vals.min(axis=0)))
    return residual, vals.mean(axis=0)


def _experiment_from_contacts(b, pi, contacts, weights, labels):
    """Turn contact posteriors q (prob of state 2) into an experiment."""
    n_d = b.n_decisions
    if len(contacts) == 1 or labels[0] == labels[-1]:
        cond = np.zeros((n_d, 2))
        cond[labels[0]] = 1.0
        return Experiment(cond)
    cond = np.zeros((n_d, 2))
    for q, w, d in zip(contacts, weights, labels):
        post = np.array([1.0 - q, q])
        cond[d] += w * post / pi
    # numerical cleanup: columns must sum to one exactly
    cond = np.clip(cond, 0.0, None)
    cond /= cond.sum(axis=0, keepdims=True)
    return Experiment(cond)


def _polish_contacts(b, model, contacts, labels):
    """Newton polish of the two-contact tangency system.

    Unknowns are the two contact posteriors; the conditions are equal
    slopes of the two net utilities and a common tangent line, with the
    slopes from the gradient of the uncertainty function.  Falls back to
    the grid answer when the solve leaves a residual above 1e-9, leaves
    (0, 1) or wanders more than 0.01 from the grid contacts.  The root
    finder's own success flag is not the test: keeping the grid answer
    wherever it reports slow progress makes the solution jump as the cost
    scale moves.
    """
    pay = b.payments[list(labels)]
    rise = pay[:, 1] - pay[:, 0]
    along = np.array([-1.0, 1.0])

    def eqs(x):
        post = np.column_stack([1.0 - x, x])
        net = pay[:, 0] + rise * x + model.upsilon(post)
        slope = rise + model.upsilon_gradient(post) @ along
        return [slope[0] - slope[1], (net[0] - slope[0] * x[0]) - (net[1] - slope[1] * x[1])]

    # outside (0, 1) the entropy's slope is nan, which the checks reject
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            sol = optimize.root(eqs, list(contacts), method="hybr", tol=1e-12)
        except Exception:
            return contacts
        q = np.sort(sol.x)
        if np.any(q <= 0) or np.any(q >= 1) or not np.all(np.abs(eqs(sol.x)) <= 1e-9):
            return contacts
    if np.max(np.abs(q - np.sort(contacts))) > 0.01:
        # polish wandered off the grid solution; distrust it
        return contacts
    return q


def best_response_general(b: Contract, prior, model, grid=None,
                          tol=1e-8, max_iter=20_000) -> AgentSolution:
    """Optimal experiment for any posterior-separable cost model.

    Two states: concavify the net-utility envelope at the prior and map
    the contact posteriors back to an experiment (with a Newton polish of
    the contact locations).  More states: Upsilon can only be the entropy
    (a table is two-state), so a model with a `logit_scale` takes the
    exact logit kernel; any other model takes entropic mirror ascent on
    each state column with step halving until the KKT residual drops
    below `tol`.
    """
    pi = np.asarray(prior, float)
    if b.n_states == 2:
        return _general_two_state(b, pi, model, grid)
    if model.logit_scale is not None:
        return best_response_shannon(b, pi, scale=model.logit_scale)
    return _mirror_ascent(b, pi, model, tol, max_iter)


def _general_two_state(b, pi, model, grid):
    curve = geometry.net_utility_curve(b, model, grid=grid)
    conc = geometry.concavify(curve, float(pi[1]))
    labels = []
    for c in conc.contacts:
        idx = int(np.argmin(np.abs(curve.grid - c)))
        labels.append(int(curve.pieces[idx]))
    contacts = conc.contacts
    weights = conc.weights
    if len(contacts) == 2 and labels[0] != labels[1]:
        q1, q2 = _polish_contacts(b, model, contacts, labels)
        prior_q = float(pi[1])
        if q1 < prior_q < q2:
            w1 = (q2 - prior_q) / (q2 - q1)
            contacts, weights = np.array([q1, q2]), np.array([w1, 1.0 - w1])
    exp = _experiment_from_contacts(b, pi, contacts, weights, labels)
    cost = model.value(exp, pi)
    e_b = float(np.sum(exp.conditionals * pi[None, :] * b.payments))
    value = e_b - cost
    rho = np.zeros_like(pi)
    if model.logit_scale is not None and np.min(exp.conditionals) > 1e-9:
        residual, rho = agent_kkt_residual(b, pi, model, exp)
    else:
        # certify through the geometry: a boundary solution has no
        # gradient, and a table's kinks leave a KKT spread however exact
        # the answer
        residual = abs(value + model.upsilon(pi) - conc.value)
    return AgentSolution(experiment=exp, mu=0.0, rho=rho, value=value,
                         cost=cost, iterations=len(curve.grid), residual=float(residual))


def _mirror_ascent(b, pi, model, tol, max_iter, floor=1e-10):
    n_d, n_s = b.payments.shape
    cond = np.full((n_d, n_s), 1.0 / n_d)

    def project(c):
        # keep iterates inside the gradient's domain; decisions pinned at
        # the floor are treated as dropped by the residual check
        c = np.clip(c, floor, None)
        return c / c.sum(axis=0, keepdims=True)

    def objective(c):
        exp = Experiment(c)
        return float(np.sum(c * pi[None, :] * b.payments)) - model.value(exp, pi)

    eta = 1.0
    f = objective(cond)
    residual = np.inf
    for it in range(1, max_iter + 1):
        exp = Experiment(cond)
        grad = pi[None, :] * b.payments - model.gradient(exp, pi)
        step = grad / pi[None, :]
        step -= step.max(axis=0, keepdims=True)
        accepted = False
        for _ in range(60):
            cand = project(cond * np.exp(eta * step))
            f_cand = objective(cand)
            if f_cand >= f - 1e-15:
                accepted = True
                break
            eta *= 0.5
        if not accepted:
            break
        cond, f = cand, f_cand
        eta = min(eta * 1.5, 8.0)
        exp = Experiment(cond)
        try:
            residual, rho = agent_kkt_residual(b, pi, model, exp, eps=100 * floor)
        except BoundaryPointError:
            continue
        if residual < tol:
            cost = model.value(exp, pi)
            e_b = float(np.sum(cond * pi[None, :] * b.payments))
            return AgentSolution(experiment=exp, mu=0.0, rho=rho,
                                 value=e_b - cost, cost=cost,
                                 iterations=it, residual=residual)
    raise NoConvergenceError(
        f"mirror ascent stalled after {it} iterations (residual {residual:.3e})"
    )
