"""The reservation problem reduced to an experiment and levels, and a
dense interior-point method for it.

Under mutual information at scale s the agent's logit rule pins each
used decision's payments up to one level per state, b(d, theta) =
s log(p(d|theta) / p(d)) + c_theta (Matejka & McKay 2015), and the
agent's utility is then pi.c.  A contract for a reservation utility r is
therefore an experiment p on a support of decisions and levels c that
maximize alpha E_p y - s I(p) - pi.c under the liability limits 0 <= b <=
y on the support, pi.c >= r and, optionally, s I(p) <= capacity.  The
multipliers of the last two rows are the participation weight and the
capacity's price.  At a fixed participation weight xi the Pareto problem
is this one with the participation multiplier held at xi: the levels are
priced at 1 - xi, and there is no participation row (r = -inf).

`solve` runs a primal-dual interior-point method (Nocedal & Wright, ch.
19; Waechter & Biegler 2006) on every decision, again without the
decisions whose weight vanishes, and polishes the result by Newton's
method on its active set.  The start meets the participation row where
the liability limits allow and centres the elastic slack, so that the
first step is not cut short by either row.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergenceError

PENALTY = 10.0     # price of the elastic slack on the participation row
TOL = 1e-8         # KKT error at which the interior-point method stops
MAX_ITER = 100     # interior-point steps before it gives up
MU_START = 0.1     # barrier parameter the start point is centred for
ROOM = 0.1         # how far the start clears the participation row
STALL_TOL = 1e-4   # KKT error from which a stalled solve is still polished
# the error `solve` raises when the support is down to one decision
ONE_DECISION = "one decision left: its contracts are closed-form"


class ReducedProblem:
    """The reduced problem on a support of decisions, in log-posterior
    coordinates z = (q, u, c[, v]): the weights q_d, u(d, theta) =
    log(p(d|theta) / p(d)), the levels c and, when r is finite, an elastic
    slack v on the participation row, priced at PENALTY.  The levels are
    priced at `price`: 1 for a reservation utility, 1 - xi at a fixed
    participation weight xi.

    The payments s u + c make the liability limits linear, and a cell with
    y = 0 the equality s u + c = 0.  The posteriors pi e^u sum to 1 and
    average to the prior (sum_d q_d e^u = 1): these are the nonlinear
    equalities.  The objective minimized is -(alpha E_p y - s I(p) - price
    pi.c) + PENALTY v, under pi.c + v >= r and s I(p) <= capacity when that is
    finite (aimed 1e-12 below it, so that rounding does not report a cost
    above it).
    """

    def __init__(self, inst, support, alpha, r, capacity, price):
        y = inst.output[support]
        k, n = y.shape
        s = inst.cost_model.logit_scale
        self.support, self.y, self.pi, self.s = support, y, inst.prior, s
        self.alpha, self.price, self.k, self.n = alpha, price, k, n
        self.elastic = bool(np.isfinite(r))
        kn = k * n
        self.size = k + kn + n + self.elastic
        # per cell (d, theta), row-major: its u column, d and theta
        self.cols = (k + np.arange(kn), np.repeat(np.arange(k), n), np.tile(np.arange(n), k))
        box = y.ravel() > 0
        self.cells, self.fixed = np.flatnonzero(box), np.flatnonzero(~box)
        m = len(self.cells)
        # inequality rows: q >= 0, lower limits, upper limits, then the
        # participation row and v >= 0, and last the capacity, whose
        # nonlinear part `evaluate` and `jacobians` add
        capped = bool(np.isfinite(capacity))
        self.rows = {"lower": k + np.arange(m), "upper": k + m + np.arange(m)}
        lin = np.zeros((k + 2 * m + 2 * self.elastic + capped, self.size))
        off = np.zeros(len(lin))
        lin[np.arange(k), np.arange(k)] = 1.0
        for rows, sign in ((self.rows["lower"], 1.0), (self.rows["upper"], -1.0)):
            lin[rows, k + self.cells] = sign * s
            lin[rows, k + kn + self.cells % n] = sign
        off[self.rows["upper"]] = y.ravel()[self.cells]
        if self.elastic:
            part = k + 2 * m
            self.rows["participation"] = part
            lin[part, k + kn:k + kn + n] = self.pi
            lin[part:part + 2, -1] = 1.0
            off[part] = -r
        if capped:
            self.rows["capacity"] = len(lin) - 1
            off[-1] = capacity * (1.0 - 1e-12)
        self.lin, self.off = lin, off
        # the equality Jacobian with the rows of the cells paid exactly 0
        self.jac_h = np.zeros((k + n + len(self.fixed), self.size))
        self.jac_h[k + n + np.arange(len(self.fixed)), k + self.fixed] = s
        self.jac_h[k + n + np.arange(len(self.fixed)), k + kn + self.fixed % n] = 1.0

    def split(self, z):
        k, n = self.k, self.n
        return z[:k], z[k:k + k * n].reshape(k, n), z[k + k * n:k + k * n + n]

    def evaluate(self, z):
        """(objective, its gradient, equalities, inequalities) at z."""
        k, n, s, pi = self.k, self.n, self.s, self.pi
        q, u, c = self.split(z)
        e = np.exp(u)
        post = pi * e
        net = self.alpha * self.y - s * u
        grad = np.zeros(self.size)
        grad[:k] = -(post * net).sum(axis=1)
        grad[k:k + k * n] = -(q[:, None] * post * (net - s)).ravel()
        grad[k + k * n:k + k * n + n] = self.price * pi
        phi = q @ grad[:k] + self.price * (pi @ c)
        if self.elastic:
            phi += PENALTY * z[-1]
            grad[-1] = PENALTY
        h = np.concatenate([post.sum(axis=1) - 1.0, q @ e - 1.0, self.jac_h[k + n:] @ z])
        g = self.lin @ z + self.off
        if "capacity" in self.rows:
            g[-1] -= s * (q @ (post * u).sum(axis=1))
        return phi, grad, h, g

    def jacobians(self, z):
        """(Jacobian of the equalities, Jacobian of the inequalities) at z."""
        k, n, s = self.k, self.n, self.s
        q, u, _ = self.split(z)
        e = np.exp(u)
        post = self.pi * e
        cu, cd, ct = self.cols
        jac_h = self.jac_h.copy()
        jac_h[cd, cu] = post.ravel()
        jac_h[k + ct, cd] = e.ravel()
        jac_h[k + ct, cu] = (q[:, None] * e).ravel()
        if "capacity" not in self.rows:
            return jac_h, self.lin
        info = post * u
        jac_g = self.lin.copy()
        jac_g[-1, :k] = -s * info.sum(axis=1)
        jac_g[-1, k:k + k * n] = (-s * q[:, None] * (info + post)).ravel()
        return jac_h, jac_g

    def hessian(self, z, mult_h, mult_g):
        """Hessian of the Lagrangian objective - mult_h.h - mult_g.g."""
        k, n, s = self.k, self.n, self.s
        q, u, _ = self.split(z)
        e = np.exp(u)
        post = self.pi * e
        weight = 1.0 + (mult_g[-1] if "capacity" in self.rows else 0.0)
        cross = (-self.alpha * post * self.y + weight * s * post * (u + 1.0)
                 - mult_h[k:k + n] * e)
        diag = q[:, None] * (cross + weight * s * post) - mult_h[:k, None] * post
        hess = np.zeros((self.size, self.size))
        cu, cd, _ = self.cols
        hess[cu, cu] = diag.ravel()
        hess[cd, cu] = cross.ravel()
        hess[cu, cd] = cross.ravel()
        return hess

    def start(self, cond):
        """A starting point: the experiment `cond` on the support mixed with
        the uniform one; levels a tenth of the way into the limits or, where
        the participation row needs it to clear r by ROOM, further, up to
        nine tenths; and the elastic slack at the barrier optimum of its two
        rows for barrier parameter MU_START, the rest held."""
        p = 0.9 * cond / cond.sum(axis=0) + 0.1 / self.k
        m = p @ self.pi
        u = np.log(p / m[:, None])
        lower = np.max(-self.s * u, axis=0)
        upper = np.min(self.y - self.s * u, axis=0)
        width = np.maximum(upper - lower, 0.0)
        share = 0.1
        if self.elastic and self.pi @ width > 0.0:
            need = ROOM - self.off[self.rows["participation"]] - self.pi @ lower
            share = min(max(need / (self.pi @ width), 0.1), 0.9)
        c = lower + share * width
        z = np.concatenate([m, u.ravel(), c])
        if not self.elastic:
            return z
        # v minimizes PENALTY v - MU_START (log v + log(room + v))
        half = 0.5 * (self.off[self.rows["participation"]] + self.pi @ c)
        return np.append(z, MU_START / PENALTY - half + np.hypot(MU_START / PENALTY, half))


def _svd(jac):
    """(left, singular values, right) of jac on its numerical rank, and an
    orthonormal basis of its null space."""
    left, sv, right = np.linalg.svd(jac)
    rank = int(np.sum(sv > 1e-10 * sv[0]))
    return left[:, :rank], sv[:rank], right[:rank].T, right[rank:].T


def _boundary_step(v, dv, tau):
    """Largest step in (0, 1] that keeps v + t dv >= (1 - tau) v."""
    return min(1.0, float(np.min(np.where(dv < 0.0, -tau * v / dv, np.inf))))


def interior_point(prob, z):
    """Primal-dual interior-point solve of `prob` from z, or None.

    Each step solves the condensed Newton system in the null space of the
    equality Jacobian, the reduced Hessian shifted to be positive definite
    where the problem is not convex, and searches along it on an l1 merit
    function.  The barrier parameter starts at the start point's mean
    complementarity and falls superlinearly once its subproblem is solved.
    Line-search trials evaluate values only; derivatives are taken once
    per accepted point, and the SVD of the equality Jacobian once per step.
    Returns (z, equality multipliers, inequality multipliers, slacks,
    dropped), `dropped` marking the decisions whose weight vanishes
    (returned as soon as that shows), or None where the line search stalls
    or MAX_ITER steps run out within STALL_TOL of a KKT point, which the
    polish may still reach; None further away.
    `prob.steps` counts the steps taken.
    """
    k = prob.k
    phi, grad, h, g = prob.evaluate(z)
    jac_h, jac_g = prob.jacobians(z)
    slack = np.maximum(g, 1e-2)
    lam = MU_START / slack
    mu = float(np.mean(slack * lam))
    factors = _svd(jac_h)   # serves the first step too
    left, sv, basis, _ = factors
    mult = left @ ((basis.T @ (grad - jac_g.T @ lam)) / sv)   # least squares
    penalty = 1.0
    prob.steps = 0
    while True:
        dual = grad - jac_h.T @ mult - jac_g.T @ lam
        gap = g - slack
        comp = slack * lam
        primal = max(np.abs(dual).max(), np.abs(h).max(), np.abs(gap).max())
        if max(primal, comp.max()) <= TOL:
            return z, mult, lam, slack, lam[:k] > slack[:k]
        if prob.steps == MAX_ITER:
            break
        while max(primal, np.abs(comp - mu).max()) <= 10.0 * mu and mu > 0.1 * TOL:
            mu = max(0.1 * TOL, min(0.2 * mu, mu ** 1.5))
        dropped = (z[:k] <= 10.0 * mu) & (lam[:k] > 10.0 * slack[:k])
        if mu <= 1e-3 and dropped.any():
            return z, mult, lam, slack, dropped
        left, sv, basis, null = factors or _svd(jac_h)
        factors = None
        sigma = lam / slack
        hess = prob.hessian(z, mult, lam) + jac_g.T @ (sigma[:, None] * jac_g)
        rhs = -dual - jac_g.T @ (sigma * gap + (comp - mu) / slack)
        if not (np.all(np.isfinite(hess)) and np.all(np.isfinite(rhs))):
            break
        dz = -basis @ ((left.T @ h) / sv)
        eig, vec = np.linalg.eigh(null.T @ hess @ null)
        floor = min(1e-6, 10.0 * mu)
        shift = 0.0 if eig[0] >= floor else 2.0 * (floor - eig[0])
        w = vec @ ((vec.T @ (null.T @ (rhs - hess @ dz))) / (eig + shift))
        dz = dz + null @ w
        dmult = left @ ((basis.T @ (hess @ dz + shift * (null @ w) - rhs)) / sv)
        ds = jac_g @ dz + gap
        dlam = -(comp - mu + lam * ds) / slack
        tau = max(0.99, 1.0 - mu)
        step = _boundary_step(np.concatenate([slack, z[:k]]), np.concatenate([ds, dz[:k]]), tau)
        step_dual = _boundary_step(lam, dlam, tau)
        violation = np.abs(h).sum() + np.abs(gap).sum()
        slope = grad @ dz - mu * np.sum(ds / slack)
        if slope > 0.0 and violation > 1e-14:
            penalty = max(1.5 * penalty, slope / (0.5 * violation))
        slope -= penalty * violation

        def merit(phi_, h_, g_, s_):
            return (phi_ - mu * np.sum(np.log(s_))
                    + penalty * (np.abs(h_).sum() + np.abs(g_ - s_).sum()))

        base = merit(phi, h, g, slack)
        for _ in range(40):
            out = prob.evaluate(z + step * dz)
            if np.isfinite(out[0]) and (merit(out[0], out[2], out[3], slack + step * ds)
                                        <= base + 1e-4 * step * slope):
                break
            step *= 0.5
        else:
            break
        prob.steps += 1
        z, slack = z + step * dz, slack + step * ds
        phi, grad, h, g = out
        jac_h, jac_g = prob.jacobians(z)
        lam = lam + step_dual * dlam
        mult = mult + step_dual * dmult
    if max(primal, comp.max()) <= STALL_TOL:
        return z, mult, lam, slack, None
    return None


def polish(prob, z, mult, lam, slack):
    """Newton's method on the KKT system with the active inequalities of
    an interior-point solution held as equalities and the others dropped:
    (z, equality multipliers, inequality multipliers, exactly 0 off the
    active set), or None when it does not converge to 1e-12 in 8 steps or
    a multiplier or an inactive row changes sign.  One step more takes
    the point to rounding, so that two solves of one problem from
    different starts agree to rounding too.  The active rows are
    those whose multiplier exceeds the slack; near a degenerate point,
    where multipliers are small, those whose multiplier exceeds 1e-2,
    1e-4 and 1e-6 of it are tried next."""
    for ratio in (1.0, 1e-2, 1e-4, 1e-6):
        active = lam > ratio * slack
        duals = np.concatenate([mult, lam[active]])
        full = np.zeros(len(lam))
        point, converged = z, False
        for _ in range(9):
            _, grad, h, g = prob.evaluate(point)
            jac_h, jac_g = prob.jacobians(point)
            jac = np.vstack([jac_h, jac_g[active]])
            res = np.concatenate([grad - jac.T @ duals, h, g[active]])
            full[active] = duals[len(mult):]
            if np.abs(res).max() <= 1e-12:
                if not (np.all(full >= -1e-9) and np.all(g[~active] >= -1e-12)):
                    break
                if converged:
                    return point, duals[:len(mult)], full
                converged = True
            size = len(z)
            kkt = np.zeros((size + len(duals), size + len(duals)))
            kkt[:size, :size] = prob.hessian(point, duals[:len(mult)], full)
            kkt[:size, size:] = -jac.T
            kkt[size:, :size] = jac
            try:
                step = np.linalg.solve(kkt, -res)
            except np.linalg.LinAlgError:
                break
            point, duals = point + step[:size], duals + step[size:]
    return None


def solve(inst, r, alpha, capacity, start, price):
    """(problem, KKT point) of the reduced problem at utility r (-inf for
    none), piece rate alpha, capacity (infinite for none) and the levels'
    price (`ReducedProblem`), solved on every decision but those of
    output 0 in every state (unless all are) from the experiment `start`
    and then again without the decisions whose weight vanishes, until the
    support is stable.  The point is (z, equality multipliers, inequality
    multipliers), polished (`polish`).
    It is None where the participation multiplier reaches 1, which leaves
    the levels free: the answer there is the first-best contract on the
    problem's support.  Raises NoConvergenceError when the support is down
    to one decision, r is out of its reach, or the interior-point method
    or the polish fails.  `problem.steps` counts the interior-point steps
    over every support solved."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        return _solve(inst, r, alpha, capacity, start, price)


def _solve(inst, r, alpha, capacity, start, price):
    # decisions of equal output are one decision to both parties: the split
    # of weight among them is free and leaves the KKT system singular, so
    # the support keeps the first of each and its start their total weight
    rows, first, which = np.unique(inst.output, axis=0, return_index=True,
                                   return_inverse=True)
    cond = np.zeros(rows.shape)
    np.add.at(cond, which.ravel(), start)
    order = np.argsort(first)
    support, cond = first[order], cond[order]
    # a decision of output 0 in every state has payments pinned at 0, so
    # its posterior equality holds only under the contract that pays
    # nothing: a solve on it can only stop there, and it is left out
    paid = rows[order].any(axis=1)
    if paid.any():
        support, cond = support[paid], cond[paid]
    steps = 0
    while len(support) > 1:
        prob = ReducedProblem(inst, support, alpha, r, capacity, price)
        out = interior_point(prob, prob.start(cond))
        prob.steps = steps = steps + prob.steps
        if out is None:
            raise NoConvergenceError(f"support {support.tolist()}: no interior-point solution")
        z, mult, lam, slack, dropped = out
        point = None
        if dropped is None:
            # stalled near a KKT point: its polish stands in for convergence
            point = polish(prob, z, mult, lam, slack)
            if point is None:
                raise NoConvergenceError(f"support {support.tolist()}: no interior-point "
                                         "solution")
            z, mult, lam = point
        elif dropped.any():
            q, u, _ = prob.split(z)
            cond = (q[:, None] * np.exp(u))[~dropped]
            support = support[~dropped]
            continue
        if prob.elastic and z[-1] > 1e-7:
            raise NoConvergenceError(f"support {support.tolist()}: agent utility {r} "
                                     "out of reach")
        if prob.elastic and lam[prob.rows["participation"]] > 1.0 - 1e-6:
            return prob, None
        if point is None:
            point = polish(prob, z, mult, lam, slack)
        if point is None:
            raise NoConvergenceError(f"support {support.tolist()}: the interior-point "
                                     "solution does not polish on its active set")
        return prob, point
    raise NoConvergenceError(ONE_DECISION)
