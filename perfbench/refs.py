"""Reference computations the benchmark checks answers against.

Nothing here imports the package under test: every quantity is recomputed
from the inputs with numpy alone, by methods that differ from the
package's own (bisection on the decision marginal instead of marginal
iteration, an exact upper hull over breakpoints instead of a 5001-point
grid).  Each `check_*` function returns a list of problems; an empty list
means the answer passed.
"""

from __future__ import annotations

import numpy as np

# Published numbers of the worked example (output (0, 10; 5, 5), prior
# (2/3, 1/3), mutual-information cost, capacity 1/2), with the tolerance
# at which the paper states them.
PUBLISHED = {
    "mu": (0.446, 2e-3),
    "alpha_prime": (0.692, 2e-3),
    "v_agent_max": (6.014, 5e-3),
    "v_agent_min": (2.853, 5e-3),
    "table1a_cost": (0.596, 5e-3),
    "table2_contract": ([[0.0, 1.00], [0.702, 0.0]], 2e-2),
    "table2_experiment": ([[0.160, 0.514], [0.840, 0.486]], 5e-3),
    "table2_beta": ([3.836, 6.596], 2e-2),
    "table2_gamma": ([[-3.836, 2.404], [0.462, -1.596]], 2e-2),
    "second_best_cost": (0.067, 1e-2),
}


def mutual_information(cond, prior) -> float:
    """I(d; theta) in nats for conditionals p(d|theta), 0 log 0 = 0."""
    cond = np.asarray(cond, float)
    pi = np.asarray(prior, float)
    m = cond @ pi
    total = 0.0
    for d in range(cond.shape[0]):
        for s in range(cond.shape[1]):
            if cond[d, s] > 0:
                total += pi[s] * cond[d, s] * np.log(cond[d, s] / m[d])
    return max(total, 0.0)


def _weights(payments, temp):
    z = np.asarray(payments, float) / temp
    return np.exp(z - z.max(axis=0, keepdims=True))


def logit_marginal(payments, prior, temp, tol=1e-15):
    """Optimal decision marginal of the Shannon agent at temperature temp.

    Maximizes sum_s pi_s log sum_d q_d w_ds over the simplex.  Two
    decisions: bisection on the sign of the derivative.  More: coordinate
    ascent, where each pair (d, e) is optimized exactly by the same
    bisection, until no pair moves.
    """
    w = _weights(payments, temp)
    pi = np.asarray(prior, float)
    n_d = w.shape[0]
    q = np.full(n_d, 1.0 / n_d)

    def pair_optimum(d, e, q):
        total = q[d] + q[e]
        if total <= 0:
            return q
        rest = q @ w - q[d] * w[d] - q[e] * w[e]

        def slope(t):
            den = rest + t * w[d] + (total - t) * w[e]
            return float(pi @ ((w[d] - w[e]) / den))

        lo, hi = 0.0, total
        if slope(lo) <= 0:
            t = lo
        elif slope(hi) >= 0:
            t = hi
        else:
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if slope(mid) > 0:
                    lo = mid
                else:
                    hi = mid
                if hi - lo <= tol * total:
                    break
            t = 0.5 * (lo + hi)
        out = q.copy()
        out[d], out[e] = t, total - t
        return out

    for _ in range(20_000):
        before = q.copy()
        for d in range(n_d):
            for e in range(d + 1, n_d):
                q = pair_optimum(d, e, q)
        if np.max(np.abs(q - before)) <= tol:
            break
    return q


def logit_conditionals(payments, prior, temp):
    """Optimal experiment p(d|theta) of the Shannon agent."""
    w = _weights(payments, temp)
    q = logit_marginal(payments, prior, temp)
    joint = q[:, None] * w
    return joint / joint.sum(axis=0, keepdims=True)


def logit_certificate_gap(payments, prior, cond, temp, floor=1e-9):
    """Largest violation of the logit optimality conditions at cond.

    With q the marginal of cond and D_s = sum_d q_d w_ds, an optimum has
    g_d = sum_s pi_s w_ds / D_s equal to 1 where q_d > 0 and at most 1
    elsewhere, and cond equal to q_d w_ds / D_s.
    """
    w = _weights(payments, temp)
    pi = np.asarray(prior, float)
    cond = np.asarray(cond, float)
    q = cond @ pi
    den = q @ w
    g = (w / den[None, :]) @ pi
    live = q > floor
    gap = max(float(np.max(np.abs(g[live] - 1.0))),
              float(np.max(g[~live] - 1.0, initial=0.0)))
    implied = q[:, None] * w / den[None, :]
    return max(gap, float(np.max(np.abs(implied - cond))))


def support_spread(payments, prior, cond, scale, mu, floor=1e-14):
    """Within-state spread of pi b - (1+mu) s pi log(p/m) over live rows."""
    pi = np.asarray(prior, float)
    cond = np.asarray(cond, float)
    m = cond @ pi
    live = m > floor
    c = cond[live]
    if np.any(c <= 0):
        return np.inf
    vals = (pi[None, :] * np.asarray(payments, float)[live]
            - (1.0 + mu) * scale * pi[None, :] * np.log(c / m[live][:, None]))
    return float(np.max(vals.max(axis=0) - vals.min(axis=0)))


def upper_hull_value(x, y, at):
    """Concave envelope of the points (x, y) evaluated at `at`."""
    order = np.argsort(x, kind="stable")
    x, y = np.asarray(x, float)[order], np.asarray(y, float)[order]
    hull = []
    for i in range(len(x)):
        while len(hull) >= 2:
            a, b = hull[-2], hull[-1]
            if (y[b] - y[a]) * (x[i] - x[a]) <= (y[i] - y[a]) * (x[b] - x[a]):
                hull.pop()
            else:
                break
        hull.append(i)
    return float(np.interp(at, x[hull], y[hull]))


def gridded_agent_value(payments, prior_q, grid, scale=1.0):
    """Agent value sup E[b] - c under a linearly interpolated Upsilon.

    B(q) + Upsilon(q) is piecewise linear with breakpoints at the grid
    points and at the kinks of B, so its concave envelope is the upper
    hull of its values there; the value is cav(prior) - Upsilon(prior).
    """
    b = np.asarray(payments, float)
    gq, gv = np.asarray(grid, float).T
    gv = scale * gv
    kinks = []
    for d in range(b.shape[0]):
        for e in range(d + 1, b.shape[0]):
            slope_d = b[d, 1] - b[d, 0]
            slope_e = b[e, 1] - b[e, 0]
            if slope_d != slope_e:
                t = (b[e, 0] - b[d, 0]) / (slope_d - slope_e)
                if gq[0] < t < gq[-1]:
                    kinks.append(t)
    xs = np.union1d(gq, kinks)
    big_b = np.max(np.outer(b[:, 1] - b[:, 0], xs) + b[:, 0][:, None], axis=0)
    ups = np.interp(xs, gq, gv)
    return (upper_hull_value(xs, big_b + ups, prior_q)
            - float(np.interp(prior_q, gq, gv)))


def shannon_gradient(cond, prior, scale=1.0):
    """Analytic gradient of s I(p) over p(d|theta), one representative."""
    pi = np.asarray(prior, float)
    cond = np.asarray(cond, float)
    m = cond @ pi
    return scale * pi[None, :] * np.log(cond / m[:, None])


def shannon_hessian(cond, prior, scale=1.0):
    """Analytic Hessian of s I(p), index d * n_states + theta."""
    pi = np.asarray(prior, float)
    cond = np.asarray(cond, float)
    n_d, n_s = cond.shape
    m = cond @ pi
    h = np.zeros((n_d * n_s, n_d * n_s))
    for d in range(n_d):
        block = -np.outer(pi, pi) / m[d]
        block[np.diag_indices(n_s)] += pi / cond[d]
        h[d * n_s:(d + 1) * n_s, d * n_s:(d + 1) * n_s] = scale * block
    return h


# ---------------------------------------------------------------------------
# answer checks


def check_close(problems, label, got, want, tol):
    """Append a problem unless got and want agree within tol everywhere."""
    got = np.asarray(got, float)
    want = np.asarray(want, float)
    if got.shape != want.shape:
        problems.append(f"{label}: shape {got.shape} != {want.shape}")
        return
    err = float(np.max(np.abs(got - want))) if got.size else 0.0
    if not np.isfinite(err) or err > tol:
        problems.append(f"{label}: off by {err:.3e} (tol {tol:g})")


def check_contract_answer(problem, out, reservation=None, v_tol=1e-4):
    """Checks on a `solve-contract` answer for a Shannon problem."""
    y = np.asarray(problem["output"], float)
    pi = np.asarray(problem["prior"], float)
    s = float(problem["cost"].get("scale", 1.0))
    b = np.asarray(out["contract"], float)
    cond = np.asarray(out["experiment"], float)
    deco = out["decomposition"]
    problems = []
    if b.shape != y.shape or cond.shape != y.shape:
        return [f"shapes: contract {b.shape}, experiment {cond.shape}"]

    check_close(problems, "experiment vs own best response", cond,
                logit_conditionals(b, pi, s), 1e-6)
    v_a = float(np.sum(cond * pi[None, :] * b)) - s * mutual_information(cond, pi)
    check_close(problems, "reported agent utility", out["report"]["agent_utility"], v_a, 1e-8)
    if reservation is not None and float(out["duals"]["xi"]) > 0:
        check_close(problems, f"agent utility vs binding reservation {reservation}", v_a,
                    reservation, v_tol)
    elif reservation is not None and v_a < reservation - v_tol:
        problems.append(f"agent utility {v_a:.9f} below the slack reservation {reservation}")
    if np.any(b < -1e-9) or np.any(b > y + 1e-9):
        problems.append("payment outside [0, y]")
    check_close(problems, "minimum payment per state", b.min(axis=0), np.zeros(y.shape[1]), 1e-9)
    alpha = float(deco["alpha"])
    recon = alpha * y - np.asarray(deco["beta"], float)[None, :] - np.asarray(deco["gamma"], float)
    check_close(problems, "b = alpha y - beta - gamma", b, recon, 1e-6)
    lam = np.asarray(out["duals"]["lambda"], float)
    gamma = np.asarray(deco["gamma"], float)
    gamma_hat = np.asarray(deco["gamma_hat"], float)
    free = lam == 0.0
    hat = np.broadcast_to(gamma_hat[:, None], gamma.shape)
    check_close(problems, "gamma = gamma_hat where lambda = 0", gamma[free], hat[free], 1e-6)
    if "oracle" in out:
        kkt = float(out["report"]["principal_utility"])
        grid = float(out["oracle"]["principal_utility"])
        if kkt < grid - 1e-9:
            problems.append(f"grid oracle beats the KKT contract: {grid:.9f} > {kkt:.9f}")
    return problems


def check_capacity_answer(payments, prior, capacity, scale, mu, cond, cost,
                          cost_tol=1e-8):
    """Checks on a Shannon capacity-constrained best response."""
    problems = []
    own_cost = scale * mutual_information(cond, prior)
    check_close(problems, "reported cost", cost, own_cost, 1e-9)
    if own_cost > capacity + cost_tol:
        problems.append(f"cost {own_cost:.12g} above capacity {capacity:.12g}")
    if mu > 0:
        check_close(problems, "binding cost", own_cost, capacity, cost_tol)
    spread = support_spread(payments, prior, cond, scale, mu)
    if not spread <= 1e-6:
        problems.append(f"KKT spread on the support {spread:.3e} > 1e-6")
    return problems


def check_fixed_mu_answer(payments, prior, scale, mu, cond, value):
    """Checks on a Shannon best response at a fixed capacity dual."""
    problems = []
    temp = scale * (1.0 + mu)
    gap = logit_certificate_gap(payments, prior, cond, temp)
    if not gap <= 1e-6:
        problems.append(f"logit optimality gap {gap:.3e} > 1e-6")
    own = float(np.sum(np.asarray(cond) * np.asarray(prior)[None, :] * payments)
                - scale * mutual_information(cond, prior))
    check_close(problems, "reported value", value, own, 1e-8)
    return problems


def check_general_capacity_answer(payments, prior, capacity, mu, cond):
    """A capacity answer under a cost equal to mutual information: the cost
    binds, and the experiment is the logit response at the reported mu."""
    problems = []
    check_close(problems, "binding cost", mutual_information(cond, prior), capacity, 1e-8)
    gap = logit_certificate_gap(payments, prior, cond, 1.0 + mu)
    if not gap <= 1e-5:
        problems.append(f"logit optimality gap {gap:.3e} at the reported mu")
    return problems


def check_mi_general_answer(payments, prior, cond, value, tol=1e-5):
    """A general-cost answer under a cost equal to mutual information must
    match the logit solution."""
    problems = []
    own_cond = logit_conditionals(payments, prior, 1.0)
    own_value = float(np.sum(own_cond * np.asarray(prior)[None, :] * payments)
                      - mutual_information(own_cond, prior))
    check_close(problems, "value vs own logit solution", value, own_value, tol)
    check_close(problems, "experiment vs own logit solution", cond, own_cond, 1e-3)
    return problems


def check_gridded_answer(payments, prior, grid, scale, value, tol=1e-6):
    """A gridded-Upsilon answer must reach the concave-envelope value."""
    own = gridded_agent_value(payments, float(prior[1]), grid, scale)
    problems = []
    check_close(problems, "value vs own concave envelope", value, own, tol)
    return problems


def check_mi_kernel(kind, result, cond, prior, analytic):
    """Cost value, gradient or Hessian of a cost equal to mutual information.

    Gradients are compared through within-state differences, since any
    per-state constant may be added; `analytic` is False for
    finite-difference kernels, which get a looser tolerance.
    """
    problems = []
    if kind == "value":
        check_close(problems, "cost value", result, mutual_information(cond, prior), 1e-9)
    elif kind == "gradient":
        got = np.asarray(result, float)
        want = shannon_gradient(cond, prior)
        check_close(problems, "gradient within-state differences", got - got[0],
               want - want[0], 1e-9 if analytic else 1e-6)
    else:
        want = shannon_hessian(cond, prior)
        tol = 1e-9 if analytic else 1e-4 * float(np.max(np.abs(want)))
        check_close(problems, "Hessian", result, want, tol)
    return problems


def check_reproduction(rc, scalars, table2):
    """`reproduce` output against the paper's published numbers.

    `scalars` is the decoded scalars.json; `table2` maps
    (quantity, decision, state) to values read from table2.csv.
    """
    problems = []
    if rc != 0:
        problems.append(f"reproduce exited {rc}")
    for key in ("mu", "alpha_prime", "v_agent_max", "v_agent_min", "table1a_cost"):
        want, tol = PUBLISHED[key]
        check_close(problems, key, scalars[key], want, tol)
    want, tol = PUBLISHED["second_best_cost"]
    check_close(problems, "second-best cost", scalars["second_best"]["cost"], want, tol)
    for quantity, key in (("contract", "table2_contract"),
                          ("experiment", "table2_experiment"),
                          ("gamma", "table2_gamma")):
        want, tol = PUBLISHED[key]
        got = [[table2[(quantity, d, s)] for s in ("theta1", "theta2")]
               for d in ("d1", "d2")]
        check_close(problems, key, got, want, tol)
    want, tol = PUBLISHED["table2_beta"]
    check_close(problems, "table2_beta",
           [table2[("beta", "", s)] for s in ("theta1", "theta2")], want, tol)
    return problems
