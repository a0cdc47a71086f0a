"""The agent's problem: optimal experiments for a given contract.

Three routes:

* `best_response_shannon` -- the logit best response for mutual-information
  costs: the decision marginal q maximizing sum_s pi_s log sum_d q_d w_ds
  (Matejka & McKay 2015), found by `_logit_kernel`, an active-set Newton
  method on one contract that starts at the better of the
  full-information choice and the best single decision, drops decisions
  exactly and stops on the logit certificate (deterministic, no
  randomness);
* `best_response_capacity` -- wraps the above, or the table route when
  the model has no `logit_scale`, in a safeguarded Newton search on
  t = 1/(1 + mu) with the exact slope of the logit path, so the cost
  constraint just binds, mixing the experiments across a jump of the
  cost (Everett 1963);
* `best_response_general` -- either cost model, one exact route each:
  the logit kernel when the model has a `logit_scale` (the entropy), and
  for a two-state table the concavification on its breakpoints.

`agent_kkt_residual` certifies a candidate experiment: within each state
the quantity pi(theta) b(d,theta) - dc/dp(d|theta) must be constant across
decisions at an optimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from . import geometry
from .costs import CostModel
from .errors import BoundaryPointError, DimensionMismatchError, NoConvergenceError
from .model import Contract, Experiment

LOGIT_TOL = 1e-12
LOGIT_MAX_ITER = 500
ONSET_MAX_ITER = 60
LINE_TOL = 1e-14
LINE_MAX_ITER = 60
# solves of the agent's problem one capacity search may make
CAPACITY_MAX_SOLVES = 100
# a binding capacity answer costs less than the capacity by less than this
CAPACITY_TOL = 1e-8
_SEGMENT = np.array([1.0, -1.0])


@dataclass(frozen=True)
class AgentSolution:
    """An optimal experiment with its capacity dual and certification data."""

    experiment: Experiment
    mu: float
    value: float
    cost: float
    iterations: int
    residual: float


def _logit_kernel(z, pi):
    """Logit best response to one contract, by active-set Newton.

    The logits z, an (n_d, n_s) array, hold b(d, theta) / temperature.
    Maximizes sum_s pi_s log D_s, D_s = sum_d q_d w_ds, over the decision
    marginal q in the simplex, with w the per-state shifted exp(z).
    Starts at the better, by this objective, of the full-information
    choice and the best single decision.  The objective only rises from
    there, and the full-information choice scores at least sum_s pi_s
    log pi_s, so no density D_s comes near zero even where weights
    underflow.  Each iteration admits the decision with the largest g_d
    once the current support is solved, takes the Newton direction on the
    face sum q = 1 of the support, searches along it for the maximum
    (`_line`), and drops a decision exactly when the step reaches q_d = 0.
    Stops on the logit certificate g_d = sum_s pi_s w_ds / D_s: |g_d - 1|
    <= LOGIT_TOL on the support and g_d <= 1 + LOGIT_TOL off it; raises
    NoConvergenceError after LOGIT_MAX_ITER Newton steps.

    Decisions with identical weight rows solve as one and split its
    marginal equally.  Returns (q, conditionals, iterations, log D), the
    third the number of Newton steps and the last the log-partition of
    each state at the final marginal, of the logits less the state's
    largest.
    """
    n_d = len(z)
    w = np.exp(z - z.max(axis=0))
    same = (w[:, None, :] == w[None, :, :]).all(axis=2)
    group = same.argmax(axis=1)
    lead = group == np.arange(n_d)

    # the full-information choice puts each state's prior mass on a
    # decision paid best there (every D_s >= pi_s); the best vertex, the
    # decision with the best expected payment, is often optimal outright
    # when information barely pays
    best = np.where(lead[:, None], w, -1.0).argmax(axis=0)
    q = (best == np.arange(n_d)[:, None]) @ pi
    top = np.where(lead, z @ pi, -np.inf).argmax()
    with np.errstate(divide="ignore"):
        if np.log(w[top]) @ pi >= np.log(q @ w) @ pi:
            q = (np.arange(n_d) == top).astype(float)
    support = q > 0
    for it in range(LOGIT_MAX_ITER + 1):
        dens = q @ w
        ratio = pi / dens
        gap = w @ ratio - 1.0
        face = (np.abs(gap) * support).max()
        outside = np.where(support | ~lead, -np.inf, gap)
        enter = outside.argmax()
        if face <= LOGIT_TOL and outside[enter] <= LOGIT_TOL:
            break
        if it == LOGIT_MAX_ITER:
            raise NoConvergenceError(f"logit kernel not certified after {LOGIT_MAX_ITER} "
                                     f"Newton steps (certificate gap {max(face, gap.max()):.3e})")
        if face <= LOGIT_TOL:
            support[enter] = True

        if n_d == 2:
            # the face is a segment: its direction, scaled by the line search
            step = np.sign(gap[0] - gap[1]) * _SEGMENT
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
            ref = q.argmax()
            hess = (w * (ratio / dens)) @ w.T
            free = support & (np.arange(n_d) != ref)
            # (off the support M_dd can underflow to 0)
            unit = np.divide(1.0, np.sqrt(hess.diagonal()), out=np.zeros_like(q), where=free)
            hess = hess - hess[ref][:, None] - hess[ref] + hess[ref, ref]
            reduced = 1e-12 * np.eye(n_d) + np.where(
                free[:, None] & free[None, :], hess * unit[:, None] * unit[None, :],
                np.eye(n_d) * ~free)
            step = np.linalg.solve(reduced, (gap - gap[ref]) * unit) * unit
            step[ref] = -step.sum()

        limit = np.divide(q, -step, out=np.full_like(q, np.inf), where=support & (step < 0))
        block = limit.argmin()
        t = _line((step @ w) / dens, pi, limit[block])
        q = q + t * step
        if t == limit[block]:
            q[block] = 0.0
        np.maximum(q, 0.0, out=q)
        q /= q.sum()
        support &= q > 0

    q = q[group] / same.sum(axis=1)
    joint = q[:, None] * w
    return q, joint / joint.sum(axis=0), it, np.log(dens)


def _line(rel, pi, t_max):
    """Step length maximizing sum_s pi_s log(1 + t rel_s) over [0, t_max],
    for one contract's relative density changes rel along a step.

    With two states the root of the derivative sum_s pi_s rel_s / (1 + t
    rel_s) is closed form.  Otherwise the derivative P(t) - N(t) splits
    into the states whose density rises (P, falling in t like a pole at
    t = -1/rel_s) and falls (N, rising toward a pole at t = 1/|rel_s|);
    each step solves the model with one pole on each side fitted to P, N
    and their slopes, bracketed, bisecting when it leaves the bracket.
    Far steps do not crawl as Newton steps on P - N would.  Returns t_max
    when the objective still rises there.
    """
    if len(rel) == 2:
        cross = rel[0] * rel[1]
        return min(rel @ pi / (-cross * pi.sum()), t_max) if cross < 0 else t_max
    rises = pi * (rel > 0)
    falls = pi * (rel < 0)
    t = lo = 0.0
    hi = top = t_max
    f = rel
    # a state whose density reaches zero at t_max gives inf and nan
    # values there, which the bracket then excludes
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(LINE_MAX_ITER):
            pf = rises * f
            nf = falls * f
            p = pf.sum()
            n = -nf.sum()
            slope = p - n
            if abs(slope) <= LINE_TOL * p or (slope >= 0 and t == t_max):
                return t
            if slope > 0:
                lo = t
            else:
                hi = t
                if t >= top:
                    top = np.inf
            # root of P / (1 + d a) = N / (1 - d b), a = -P'/P, b = N'/N
            dp = (pf * f).sum()
            dn = (nf * f).sum()
            den = p * p * dn + n * n * dp
            guess = t + slope * p * n / den if den > 0 else np.inf
            if slope > 0 and guess >= top:
                t = t_max
            elif lo < guess < hi:
                t = guess
            else:
                t = 0.5 * (lo + hi)
            f = rel / (1.0 + t * rel)
    return t if slope > 0 else lo


def best_response_shannon(b: Contract, prior, mu=0.0, scale=1.0) -> AgentSolution:
    """Optimal experiment under mutual-information cost and capacity dual mu.

    Solves p(d|theta) proportional to p(d) exp(b(d,theta)/(scale (1+mu)))
    with marginal consistency by the Newton kernel `_logit_kernel`;
    decisions outside the consideration set get exactly zero.  Raises
    ValueError, before any solve, for a mu that is negative or NaN and a
    scale that is not positive (NaN included).
    """
    if not mu >= 0:
        raise ValueError("capacity dual mu must be nonnegative")
    model = CostModel("entropy", scale)
    pi = np.asarray(prior, float)
    return _certified(pi, model, _logit_solve(b, pi, mu, model))


class _LogitSolve(NamedTuple):
    """A logit best response before certification: the kernel's marginal
    q, conditionals and per-state log-partition at temperature temp, E[b]
    and the kernel's Newton steps."""

    q: np.ndarray
    cond: np.ndarray
    log_part: np.ndarray
    mu: float
    temp: float
    e_b: float
    iterations: int


def _logit_solve(b, pi, mu, model):
    """One kernel solve at capacity dual mu under a model with a
    `logit_scale`, with no `Experiment`, cost or certificate (`_certified`)."""
    temp = model.logit_scale * (1.0 + mu)
    q, cond, iters, log_part = _logit_kernel(b.payments / temp, pi)
    e_b = float((cond * pi * b.payments).sum())
    return _LogitSolve(q, cond, log_part, float(mu), temp, e_b, iters)


def _iterate_cost(shifted, pi, sol, scale):
    """The cost of a logit solve, for the capacity search: scale sum
    pi_s p(d|s) log(p(d|s) / q_d), the log-ratio read off the logit rule
    (Matejka & McKay 2015) as shifted_ds / temp - log D_s, `shifted` the
    payments less each state's largest, so that no term grows with the
    payments as E[b] / temp and the log-partition do; exactly 0 when every
    row is constant across states, as in `CostModel.value`."""
    if (sol.cond == sol.cond[:, :1]).all():
        return 0.0
    ratio = shifted / sol.temp - sol.log_part
    return scale * float(np.add.reduce(sol.cond * ratio, axis=0) @ pi)


def _certified(pi, model, sol):
    """The AgentSolution of a logit solve: its experiment, cost and value
    (`model.value`) and KKT residual."""
    exp = Experiment(sol.cond)
    cost = model.value(exp, pi)
    return AgentSolution(experiment=exp, mu=sol.mu, value=sol.e_b - cost, cost=cost,
                         iterations=sol.iterations,
                         residual=_logit_residual(pi, sol.temp, sol.q, sol.cond))


def _logit_residual(pi, temp, q, cond):
    """KKT spread on the consideration set q > 0.

    With z = payments / temp, p(d|theta) = q_d exp(z_d,theta) / D_theta
    and D_theta = sum_e q_e exp(z_e,theta), the quantity pi b - temp pi
    log(p(d|theta) / p(d)) is temp pi_theta (log D_theta - log(q_d / p(d))):
    its spread within a state is temp pi_theta times the spread of
    log(q_d / p(d)), which stays finite where p(d|theta) underflows to zero
    on a live decision.
    """
    gap = np.log(q[q > 0] / (cond[q > 0] @ pi))
    return float(temp * np.max(pi) * (gap.max() - gap.min()))


def best_response_capacity(b: Contract, prior, capacity, model) -> AgentSolution:
    """Optimal experiment subject to cost <= capacity.

    Returns the unconstrained optimum with mu = 0 when capacity is slack.
    Otherwise searches t = 1/(1 + mu) in a bracket that starts at (t0, 1]:
    the cost is 0 up to the onset t0 where information starts to pay
    (`_onset`; 0 for a model without a `logit_scale`) and the free cost
    at t = 1.  With a logit model each step is a Newton step from the
    latest point on the quadratic in t - t0 that vanishes at t0 and
    matches the cost and its exact slope there (`_cost_slope`), toward
    the aim capacity - tol / 2, tol = min(CAPACITY_TOL, capacity).  Where
    that step leaves the bracket, the excess over the aim did not halve,
    or there is no slope (a table), the step goes to the t where the two
    ends' Lagrangians E[b] - cost / t meet; else it bisects.  Each solve
    replaces the end on its side of the aim, until the cost is within tol
    / 2 of it: a binding answer costs in (capacity - tol, capacity), while
    the slack test compares the free cost with the capacity itself.  When
    the meeting point is an end (so also one step after a solve there
    returns an end's experiment) or the bracket closes, the cost jumps at
    that t, and `_mixture` of the two ends spends the aim (Everett 1963).
    A model with a `logit_scale` takes the logit route at every t
    (`_logit_solve`): an iterate holds only the kernel's marginal,
    conditionals, log-partition and E[b], and its cost is read off them
    (`_iterate_cost`).  Only the answer, or the two ends of a mixture,
    gets an `Experiment`, a cost by `CostModel.value` and the certificate
    (`_certified`, as in `best_response_shannon`).  Otherwise the search
    runs on the penalized problem with the cost scaled by 1/t.  Raises
    `ValueError` for a capacity that is not positive (NaN included) and
    `NoConvergenceError` after `CAPACITY_MAX_SOLVES` solves.
    """
    if not capacity > 0:
        raise ValueError("capacity must be positive")
    half = 0.5 * min(CAPACITY_TOL, capacity)
    aim = capacity - half
    pi = np.asarray(prior, float)
    logit_scale = model.logit_scale
    shifted = b.payments - b.payments.max(axis=0)

    def solve(t):
        mu = (1.0 - t) / t
        if logit_scale is None:
            sol = best_response_general(b, pi, model, mu)
            return _End(t, sol, sol.cost, sol.value + sol.cost)
        sol = _logit_solve(b, pi, mu, model)
        return _End(t, sol, _iterate_cost(shifted, pi, sol, logit_scale), sol.e_b)

    def certified(end):
        return end.sol if logit_scale is None else _certified(pi, model, end.sol)

    def mixture(t):
        return _mixture(b, pi, model, certified(above), certified(below), aim, half, t)

    free = above = end = solve(1.0)
    if free.cost <= capacity:
        return certified(free)
    onset = 0.0 if logit_scale is None else logit_scale * _onset(b.payments, pi)
    if not onset < 1.0:
        # no information pays even at t = 1: the free cost is rounding
        return certified(free)

    below = _End(onset, None, 0.0, float(np.max(b.payments @ pi)))
    last = math.inf
    for _ in range(CAPACITY_MAX_SOLVES):
        if below.sol is not None and above.t - below.t <= 1e-15 * above.t:
            return mixture(above.t)
        step = math.nan
        # a step that did not halve the excess falls back on the meeting
        excess = abs(end.cost - aim)
        if logit_scale is not None and excess <= 0.5 * last:
            slope = _cost_slope(b.payments, pi, end.sol)
            step = onset + _quadratic_step(end.t - onset, end.cost, slope, aim)
        last = excess
        if not below.t < step < above.t:
            # where the ends' Lagrangians E[b] - cost / t meet; the cost
            # jumps there if that is an end (as it is, one step on, when
            # the solve there returns an end's experiment)
            cross = math.nan
            if above.e_b > below.e_b:
                cross = (above.cost - below.cost) / (above.e_b - below.e_b)
            if below.sol is not None and (cross <= below.t or cross >= above.t):
                return mixture(below.t if cross <= below.t else above.t)
            step = cross if below.t < cross < above.t else 0.5 * (below.t + above.t)
        end = solve(step)
        if abs(end.cost - aim) < half:
            return certified(end)
        if end.cost > aim:
            above = end
        else:
            below = end
    raise NoConvergenceError(
        f"capacity dual not found in {CAPACITY_MAX_SOLVES} solves "
        f"(cost {end.cost:.6g} against capacity {capacity:.6g})")


class _End(NamedTuple):
    """A solve of the capacity search at t, an end of its bracket: the
    solve (None for the onset, which is not solved), its cost and E[b]."""

    t: float
    sol: _LogitSolve | AgentSolution | None
    cost: float
    e_b: float


def _quadratic_step(x, cost, slope, capacity):
    """Where the quadratic a x + b x^2 through the origin with the given
    cost and slope at x reaches the capacity; nan when it does not."""
    lin = 2.0 * cost / x - slope
    disc = lin * lin + 4.0 * capacity * (slope * x - cost) / (x * x)
    if slope > 0 and disc >= 0 and lin + math.sqrt(disc) > 0:
        return 2.0 * capacity / (lin + math.sqrt(disc))
    return math.nan


def _onset(payments, pi):
    """Where information starts to pay at unit cost scale: the largest
    inverse temperature beta at which no information is optimal.

    That is the least, over decisions d, of the positive root of f_d(beta)
    = log sum_theta pi_theta exp(beta a_dtheta), a_d = b_d - b_top for the
    best uninformed decision top: the logit certificate g_d of the
    uninformed choice is exp(f_d).  Each f_d is convex with f_d(0) = 0 and
    f_d'(0) <= 0, so Newton steps from the least -log pi_theta / a_dtheta
    over states with a_dtheta > 0, where f_d >= 0, fall to the root
    without overshooting it.  0 when a decision ties with top in
    expectation; inf when no decision ever enters.  In Python floats: a
    few decisions and states take a few steps each.
    """
    gains = (payments - payments[np.argmax(payments @ pi)]).tolist()
    prior = pi.tolist()
    log_pi = [math.log(p) if p > 0 else -math.inf for p in prior]
    onset = math.inf
    for a in gains:
        starts = [-lp / x for lp, x in zip(log_pi, a) if x > 0 and lp > -math.inf]
        if not starts:
            continue
        if sum(p * x for p, x in zip(prior, a)) >= 0:
            return 0.0
        beta = min(starts)
        for _ in range(ONSET_MAX_ITER):
            w = [math.exp(lp + beta * x) for lp, x in zip(log_pi, a)]
            total = sum(w)
            step = math.log(total) * total / sum(wk * x for wk, x in zip(w, a))
            beta -= step
            # quadratic convergence: the error left is about step^2 / beta
            if step <= 1e-8 * beta:
                break
        onset = min(onset, beta)
    return onset


def _cost_slope(payments, pi, sol):
    """d cost / dt along the logit path, read off the kernel's marginal q
    and conditionals p at the logit solve `sol` of temperature scale / t.

    On the rate-distortion curve d cost = scale dE[b] / temp (Blahut
    1972), and with p(d|theta) = q_d exp(b_dtheta / temp) / D_theta the
    slope is (sum_theta pi_theta Var_p(.|theta)(b) + dq' M dq) / temp on
    the support q > 0, with M_de = sum_theta pi_theta p(d|theta) p(e|theta)
    / (q_d q_e) and dq solving [M 1; 1' 0] [dq; nu] = [r; 0], r_d =
    sum_theta pi_theta p(d|theta) (b_dtheta - mean_theta) / q_d; then
    dq' M dq = r' dq.  On two decisions that is (r_1 - r_2)^2 / sum_theta
    pi_theta (p(1|theta) / q_1 - p(2|theta) / q_2)^2, 0 if they are paid alike.
    """
    p, y, q = sol.cond, payments, sol.q
    live = q > 0
    if not live.all():
        p, y, q = p[live], y[live], q[live]
    dev = y - np.add.reduce(p * y, axis=0)
    ratio = p / q[:, None]
    n = len(ratio)
    r = (ratio * dev) @ pi
    if n == 2:
        curv = (ratio[0] - ratio[1]) ** 2 @ pi
        move = (r[0] - r[1]) ** 2 / curv if curv > 0 else 0.0
    else:
        border = np.zeros((n + 1, n + 1))
        border[:n, :n] = (ratio * pi) @ ratio.T
        border[n, :n] = border[:n, n] = 1.0
        rhs = np.append(r, 0.0)
        try:
            dq = np.linalg.solve(border, rhs)[:n]
        except np.linalg.LinAlgError:  # decisions paid alike
            dq = np.linalg.lstsq(border, rhs, rcond=None)[0][:n]
        move = r @ dq
    return float(pi @ np.add.reduce(p * dev * dev, axis=0) + move) / sol.temp


def _mixture(b, pi, model, above, below, aim, half, t):
    """The mixture of the ends of a capacity bracket, both optimal at t,
    whose cost is the search's aim within `half`.  Both ends maximize the
    same concave Lagrangian there, so every mixture of their experiments
    does too, and its cost is linear in the weight (Everett 1963); its dual
    is mu = 1/t - 1.  Ends optimal at t only up to the bracket's width can
    break that: the end below the aim is returned when the mixture misses
    it."""
    lam = (aim - below.cost) / (above.cost - below.cost)
    exp = Experiment(lam * above.experiment.conditionals
                     + (1.0 - lam) * below.experiment.conditionals)
    cost = model.value(exp, pi)
    if abs(cost - aim) >= half:
        return below
    e_b = float(np.sum(exp.conditionals * pi[None, :] * b.payments))
    return replace(below, experiment=exp, mu=(1.0 - t) / t, value=e_b - cost, cost=cost,
                   residual=max(above.residual, below.residual))


def agent_kkt_residual(b: Contract, prior, model, p: Experiment, mu=0.0):
    """Max within-state spread of pi(theta) b - (1+mu) dc/dp, and its mean
    in each state: rho, the multiplier of sum_d p(d|theta) = 1.

    Decisions outside the consideration set (rows exactly zero) are
    excluded.  Under mutual information dc/dp is s pi(theta) log(p(d|theta)
    / p(d)), taken in log coordinates, so that any positive entry is
    admitted; an entry of 0 on a live decision is a boundary point and
    raises BoundaryPointError, as does, for any other cost, an entry at or
    below 1e-12 (`costs.INTERIOR_EPS`), where its gradient is undefined.
    """
    pi = np.asarray(prior, float)
    cond = p.conditionals
    active = np.flatnonzero(cond.any(axis=1))
    live = cond[active]
    if model.logit_scale is None:
        grad = model.gradient(Experiment(live / live.sum(axis=0, keepdims=True)), pi)
    elif np.min(live) <= 0.0:
        raise BoundaryPointError("experiment entry 0 on a decision taken; the "
                                 "mutual-information gradient is undefined there")
    else:
        grad = model.logit_scale * pi * (np.log(live) - np.log(live @ pi)[:, None])
    vals = pi[None, :] * b.payments[active] - (1.0 + mu) * grad
    residual = float(np.max(vals.max(axis=0) - vals.min(axis=0)))
    return residual, vals.mean(axis=0)


def _experiment_from_contacts(b, pi, contacts, weights, labels):
    """Turn contact posteriors q (prob of state 2), each with its own
    decision, into an experiment; one decision alone is uninformative."""
    cond = np.zeros((b.n_decisions, 2))
    if labels[0] == labels[-1]:
        cond[labels[0]] = 1.0
    else:
        cond[labels] = weights[:, None] * np.column_stack([1.0 - contacts, contacts]) / pi
        # columns must sum to one exactly
        cond /= cond.sum(axis=0, keepdims=True)
    return Experiment(cond)


def best_response_general(b: Contract, prior, model, mu=0.0) -> AgentSolution:
    """Optimal experiment for either cost model at capacity dual mu.

    A model with a `logit_scale` (the entropy) takes the exact logit
    kernel on any number of states.  A two-state table takes the exact
    concavification on its breakpoints (`_table_two_state`) of the
    penalized problem, whose cost is scaled by 1 + mu; the cost and value
    reported are the unpenalized ones, as for the logit route.  A table
    on any other number of states raises `DimensionMismatchError`.
    """
    pi = np.asarray(prior, float)
    if model.logit_scale is not None:
        return best_response_shannon(b, pi, mu=mu, scale=model.logit_scale)
    if b.n_states != 2:
        raise DimensionMismatchError(
            f"a tabulated uncertainty function needs two states, got {b.n_states}")
    if not mu >= 0:
        raise ValueError("capacity dual mu must be nonnegative")
    if not mu:
        return _table_two_state(b, pi, model)
    sol = _table_two_state(b, pi, model.scaled(1.0 + mu))
    cost = model.value(sol.experiment, pi)
    e_b = float(np.sum(sol.experiment.conditionals * pi[None, :] * b.payments))
    return replace(sol, mu=mu, value=e_b - cost, cost=cost)


def _table_two_state(b, pi, model):
    """Exact best response under a two-state table (Kamenica & Gentzkow).

    The net utility max_d b_d . (1 - q, q) + Upsilon(q) is piecewise
    linear with breakpoints at q = 0 and 1, at the table's knots and where
    two payment lines cross, so its concave envelope is the upper hull of
    its values there, and the hull's vertices spanning the prior are the
    exact contacts, each labelled by its best decision.  Two contacts of
    one decision collapse to that decision, which is exact because the
    table is concave (`costs` refuses any other): that decision's net
    utility is concave too.  Payment lines that never cross, or cross
    beyond any float, give infinite or NaN crossings, which the [0, 1]
    filter drops.  The residual is |value + Upsilon(prior) -
    envelope(prior)|.
    """
    pay, q = b.payments, float(pi[1])
    rise = pay[:, 1] - pay[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cross = (pay[None, :, 0] - pay[:, None, 0]) / (rise[:, None] - rise[None, :])
    x = np.union1d(np.concatenate([[0.0, 1.0], model.knots]), cross)
    x = x[(x >= 0.0) & (x <= 1.0)]
    net = pay[:, :1] + rise[:, None] * x + model.upsilon(np.column_stack([1.0 - x, x]))
    contacts, weights, labels, env = _spanning(x, net, net.argmax(axis=0), q)
    exp = _experiment_from_contacts(b, pi, contacts, weights, labels)
    cost = model.value(exp, pi)
    value = float(np.sum(exp.conditionals * pi[None, :] * pay)) - cost
    return AgentSolution(experiment=exp, mu=0.0, value=value, cost=cost, iterations=len(x),
                         residual=float(abs(value + model.upsilon(pi) - env)))


def _spanning(x, net, labels, at):
    """Contacts, weights and labels of the upper hull of the points (x,
    net[labels]), x increasing, that span `at`, and the hull's value there."""
    y = net[labels, np.arange(len(x))]
    hull = geometry._upper_hull(x, y)
    j = int(np.searchsorted(x[hull], at))
    if x[hull[j]] == at:
        return x[hull[j:j + 1]], np.ones(1), labels[hull[j:j + 1]], y[hull[j]]
    ends = hull[j - 1:j + 1]
    w = (x[ends[1]] - at) / (x[ends[1]] - x[ends[0]])
    weights = np.array([w, 1.0 - w])
    return x[ends], weights, labels[ends], weights @ y[ends]
