"""The benchmark's workloads: operations made from a seed, each a call into
the package's public API with an answer check that runs outside the timed
interval.

An `Op` with a `fault` is a known defect of the package: the operation
fails every time, on inputs that do not depend on the seed, and counts as
failed.  Every other operation must pass its checks.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import refs

WORKLOADS = ("contract-requests", "agent-capacity", "general-cost")


@dataclass(frozen=True)
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    fault: str | None = None


@dataclass(frozen=True)
class Workload:
    ops: list
    warmup: Callable[[], None]


EXAMPLE = {
    "decisions": ["d1", "d2"],
    "states": ["theta1", "theta2"],
    "output": [[0.0, 10.0], [5.0, 5.0]],
    "prior": [2.0 / 3.0, 1.0 / 3.0],
    "capacity": 0.5,
    "cost": {"type": "shannon", "scale": 1.0},
}
EXAMPLE_PAYMENTS = np.array(EXAMPLE["output"])
EXAMPLE_PRIOR = np.array(EXAMPLE["prior"])
# the two-decision logit illustration of the paper
LOGIT_PAYMENTS = np.array([[0.0, 2.0], [1.0, 1.0]])
LOGIT_PRIOR = np.array([0.55, 0.45])

FAULT_OFF_TARGET = ("solve_for_reservation returns its last iterate off target after "
                    "treating a NoPatternFoundError hole as too little utility")
FAULT_SEAM = ("alpha_star treats an unattainable reservation as slack, so "
              "reservations above the first-best seam raise OutOfRangeError")
FAULT_HOLE = "second_best_solve raises NoPatternFoundError: both cold starts fail"
FAULT_LOGIT_STALL = ("the logit iteration hits MAX_ITER with a marginal change above "
                     "the 1e-10 fallback and raises NoConvergenceError")
FAULT_FD_BOUNDARY = ("mirror ascent under the finite-difference entropy cost steps "
                     "within 2e-5 of the boundary and raises BoundaryPointError")
FAULT_GRID_BOUNDARY = ("the two-state route sends an experiment with entries above 1e-9 "
                       "but below 2e-5 to the finite-difference KKT check, which raises "
                       "BoundaryPointError")


def comparative_advantage(rng, n_d, n_s):
    """Payments where decision d wins in state d mod n_s by a similar
    margin, and a prior near uniform, so the best response is informative
    and every seed poses a problem of about the same difficulty."""
    y = rng.uniform(0.0, 0.5, (n_d, n_s))
    for d in range(n_d):
        y[d, d % n_s] += rng.uniform(3.8, 4.2)
    return y, rng.dirichlet(np.full(n_s, 20.0))


def interior_experiment(rng, n_d, n_s):
    cond = rng.uniform(0.2, 1.0, (n_d, n_s))
    return cond / cond.sum(axis=0, keepdims=True)


# ---------------------------------------------------------------------------
# contract-requests


def _run_cli(cli, argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _json_out(result):
    rc, text = result
    if rc != 0:
        raise ValueError(f"exit code {rc}")
    return json.loads(text)


def _write(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def seeded_problem(rng):
    """A perturbed copy of the worked example: risky pays H in the second
    state, safe pays S in both, prior and capacity nearby."""
    h = rng.uniform(9.5, 10.5)
    s = rng.uniform(4.75, 5.25)
    p2 = rng.uniform(0.32, 0.35)
    return {
        "decisions": ["risky", "safe"],
        "states": ["fall", "rise"],
        "output": [[0.0, h], [s, s]],
        "prior": [1.0 - p2, p2],
        "capacity": rng.uniform(0.45, 0.55),
        "cost": {"type": "shannon", "scale": 1.0},
    }


def _contract_check(problem, reservation=None):
    def check(result):
        return refs.check_contract_answer(problem, _json_out(result), reservation)
    return check


def _first_best_check(problem, reservation):
    y = np.asarray(problem["output"], float)
    pi = np.asarray(problem["prior"], float)

    def check(result):
        out = _json_out(result)
        b = np.asarray(out["contract"], float)
        problems = refs.check_capacity_answer(
            b, pi, problem["capacity"], 1.0, out["mu"],
            np.asarray(out["experiment"], float), out["cost"])
        v_a = (float(np.sum(np.asarray(out["experiment"]) * pi[None, :] * b))
               - refs.mutual_information(out["experiment"], pi))
        refs.check_close(problems, "first-best agent utility", v_a, reservation, 1e-4)
        if np.any(b > y + 1e-9):
            problems.append("first-best payment above output")
        return problems
    return check


def _alpha_prime_check(problem):
    y = np.asarray(problem["output"], float)
    pi = np.asarray(problem["prior"], float)
    cap = problem["capacity"]

    def cost_at(alpha):
        return refs.mutual_information(refs.logit_conditionals(alpha * y, pi, 1.0), pi)

    def check(result):
        a = float(_json_out(result)["alpha_prime"])
        if a >= 1.0:
            return [] if cost_at(1.0) < cap else ["alpha' = 1 but capacity binds at full output"]
        if not cost_at(a * (1 - 1e-4)) < cap < cost_at(a * (1 + 1e-4)):
            return [f"capacity {cap} not crossed at alpha' = {a}"]
        return []
    return check


def _reproduce_check(out_dir):
    def check(result):
        rc, _text = result
        with open(os.path.join(out_dir, "scalars.json")) as fh:
            scalars = json.load(fh)
        table2 = {}
        with open(os.path.join(out_dir, "table2.csv"), newline="") as fh:
            for row in csv.DictReader(fh):
                table2[(row["quantity"], row["decision"], row["state"])] = float(row["value"])
        return refs.check_reproduction(rc, scalars, table2)
    return check


def contract_requests(seed, work_dir):
    from infocontracts import cli

    rng = np.random.default_rng(seed)
    ex = _write(os.path.join(work_dir, "example.json"), EXAMPLE)
    ops = []

    def request(name, argv, check, fault=None):
        ops.append(Op(name, lambda: _run_cli(cli, argv), check, fault))

    def solve_contract(name, path, problem, extra, reservation=None, fault=None):
        request(name, ["solve-contract", "--problem", path, *extra],
                _contract_check(problem, reservation), fault)

    # the worked example over its whole utility range 0.5 - 6.0
    for r, fault in ((0.5, None), (0.75, None), (1.0, None), (1.25, None), (1.5, None),
                     (1.75, None), (2.0, None), (2.2, FAULT_OFF_TARGET), (2.5, None),
                     (2.8, None), (6.0, FAULT_SEAM)):
        solve_contract(f"example/reservation={r}", ex, EXAMPLE,
                       ["--reservation", repr(r)], reservation=r, fault=fault)
    for xi in (0.0, 0.25, 0.75, 1.0):
        solve_contract(f"example/xi={xi}/oracle", ex, EXAMPLE,
                       ["--xi", repr(xi), "--oracle"])
    for xi in (0.49, 0.90):
        solve_contract(f"example/xi={xi}/oracle", ex, EXAMPLE,
                       ["--xi", repr(xi), "--oracle"], fault=FAULT_HOLE)
    for r in (3.0, 4.5, 6.0):
        request(f"example/first-best={r}",
                ["first-best", "--problem", ex, "--reservation", repr(r)],
                _first_best_check(EXAMPLE, r))
    request("example/alpha-prime", ["alpha-prime", "--problem", ex],
            _alpha_prime_check(EXAMPLE))
    rep_dir = os.path.join(work_dir, "reproduce")
    request("example/reproduce", ["reproduce", "--out", rep_dir],
            _reproduce_check(rep_dir))

    # seeded perturbations of the example; requests at xi < 1 and
    # reservation requests are left out here, because they fail on some
    # seeds (see the README)
    for i in range(6):
        problem = seeded_problem(rng)
        path = _write(os.path.join(work_dir, f"seeded{i}.json"), problem)
        solve_contract(f"seeded{i}/xi=1", path, problem, ["--xi", "1.0"])
        r_fb = float(rng.uniform(3.6, 5.0))
        request(f"seeded{i}/first-best",
                ["first-best", "--problem", path, "--reservation", repr(r_fb)],
                _first_best_check(problem, r_fb))
        request(f"seeded{i}/alpha-prime", ["alpha-prime", "--problem", path],
                _alpha_prime_check(problem))

    def warmup():
        _run_cli(cli, ["solve-contract", "--problem", ex, "--xi", "0.0", "--oracle"])
        _run_cli(cli, ["first-best", "--problem", ex, "--reservation", "4.0"])

    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# agent-capacity

STALL_PAYMENTS = np.array([[3.3535, 0.0143, 0.6285],
                           [0.7930, 3.5512, 0.7258],
                           [0.2264, 0.1985, 5.2075]])
STALL_PRIOR = np.array([0.4055, 0.3111, 0.2834])
STALL_CAPACITY = 0.0024668


def _capacity_op(api, name, y, pi, capacity, fault=None):
    b = api.Contract(y)
    model = api.ShannonCost()

    def call():
        return api.best_response_capacity(b, pi, capacity, model)

    def check(sol):
        return refs.check_capacity_answer(y, pi, capacity, 1.0, sol.mu,
                                          sol.experiment.conditionals, sol.cost)
    return Op(name, call, check, fault)


def _fixed_mu_op(api, name, y, pi, mu):
    b = api.Contract(y)

    def check(sol):
        return refs.check_fixed_mu_answer(y, pi, 1.0, mu, sol.experiment.conditionals,
                                          sol.value)
    return Op(name, lambda: api.best_response_shannon(b, pi, mu=mu), check)


def agent_capacity(seed, work_dir):
    import infocontracts as api

    rng = np.random.default_rng(seed)
    ops = []
    free = refs.mutual_information(
        refs.logit_conditionals(EXAMPLE_PAYMENTS, EXAMPLE_PRIOR, 1.0), EXAMPLE_PRIOR)
    for frac in (0.01, 0.005):
        ops.append(_capacity_op(api, f"example/capacity={frac}", EXAMPLE_PAYMENTS,
                                EXAMPLE_PRIOR, frac * free))
    ops.append(_capacity_op(api, "stall3x3/capacity", STALL_PAYMENTS, STALL_PRIOR,
                            STALL_CAPACITY, fault=FAULT_LOGIT_STALL))

    # Multi-state contracts get only the unconstrained solve: a binding
    # capacity there returns uncertified answers on some seeds (README).
    shapes = [(2, 2)] * 12 + [(3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6)]
    for k, (n_d, n_s) in enumerate(shapes):
        y, pi = comparative_advantage(rng, n_d, n_s)
        tag = f"c{k}-{n_d}x{n_s}"
        if n_s == 2:
            free = refs.mutual_information(refs.logit_conditionals(y, pi, 1.0), pi)
            for frac in (1.5, 0.5, 0.2, 0.1):
                ops.append(_capacity_op(api, f"{tag}/capacity={frac}", y, pi, frac * free))
        mu = 0.5 if n_s == 2 else 0.0
        ops.append(_fixed_mu_op(api, f"{tag}/mu={mu}", y, pi, mu))

    def warmup():
        b = api.Contract(EXAMPLE_PAYMENTS)
        api.best_response_capacity(b, EXAMPLE_PRIOR, 0.5, api.ShannonCost())

    return Workload(ops, warmup)


# ---------------------------------------------------------------------------
# general-cost

ENTROPY_STALL_PAYMENTS = np.array([[0.8050, 0.8079, 0.5153],
                                   [0.2858, 0.0539, 0.3834],
                                   [0.4085, 0.0453, 0.0488]])
ENTROPY_STALL_PRIOR = np.array([0.3073, 0.3347, 0.3580])


def _entropy_grid(n=201):
    q = np.linspace(0.0, 1.0, n)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -np.nan_to_num(q * np.log(q)) - np.nan_to_num((1 - q) * np.log(1 - q))
    return np.column_stack([q, h])


def _quadratic_grid(n=201):
    q = np.linspace(0.0, 1.0, n)
    return np.column_stack([q, 2.0 * q * (1.0 - q)])


def general_cost(seed, work_dir):
    import infocontracts as api

    rng = np.random.default_rng(seed)
    breg = api.BregmanMatrixCost("inverse_fisher")
    ps = api.PosteriorSeparableCost("entropy")
    grid = _entropy_grid()
    gridded = api.PosteriorSeparableCost({"grid": grid.tolist()})
    ops = []

    def general_op(name, y, pi, model, check, fault=None):
        b = api.Contract(y)
        ops.append(Op(name, lambda: api.best_response_general(b, pi, model), check, fault))

    def mi_check(y, pi):
        return lambda sol: refs.check_mi_general_answer(
            y, pi, sol.experiment.conditionals, sol.value)

    def gridded_check(y, pi, points):
        return lambda sol: refs.check_gridded_answer(y, pi, points, 1.0, sol.value)

    def capacity_op(name, y, pi, model, capacity):
        b = api.Contract(y)
        ops.append(Op(name, lambda: api.best_response_capacity(b, pi, capacity, model),
                      lambda sol: refs.check_general_capacity_answer(
                          y, pi, capacity, sol.mu, sol.experiment.conditionals)))

    for label, y, pi, model, frac in (("example/bregman", EXAMPLE_PAYMENTS, EXAMPLE_PRIOR,
                                       breg, 0.3),
                                      ("logit-example/entropy", LOGIT_PAYMENTS, LOGIT_PRIOR,
                                       ps, 0.7)):
        free = refs.mutual_information(refs.logit_conditionals(y, pi, 1.0), pi)
        capacity_op(f"{label}/capacity={frac}", y, pi, model, frac * free)
    quad = _quadratic_grid()
    general_op("example/grid-2q(1-q)", EXAMPLE_PAYMENTS, EXAMPLE_PRIOR,
               api.PosteriorSeparableCost({"grid": quad.tolist()}),
               gridded_check(EXAMPLE_PAYMENTS, EXAMPLE_PRIOR, quad), fault=FAULT_GRID_BOUNDARY)
    general_op("stall3x3/entropy", ENTROPY_STALL_PAYMENTS, ENTROPY_STALL_PRIOR, ps,
               mi_check(ENTROPY_STALL_PAYMENTS, ENTROPY_STALL_PRIOR),
               fault=FAULT_FD_BOUNDARY)

    for k in range(8):
        y, pi = comparative_advantage(rng, 2, 2)
        general_op(f"c{k}-2x2/bregman", y, pi, breg, mi_check(y, pi))
        general_op(f"c{k}-2x2/entropy", y, pi, ps, mi_check(y, pi))
        general_op(f"c{k}-2x2/grid-entropy", y, pi, gridded, gridded_check(y, pi, grid))
    for n_s in (3, 4, 5, 6):
        y, pi = comparative_advantage(rng, n_s, n_s)
        general_op(f"c-{n_s}x{n_s}/bregman", y, pi, breg, mi_check(y, pi))

    for n in (2, 3, 4):
        cond = interior_experiment(rng, n, n)
        pi = rng.dirichlet(np.full(n, 4.0))
        exp = api.Experiment(cond)
        for label, model, analytic in (("bregman", breg, True), ("entropy", ps, False)):
            for kind in ("value", "gradient", "hessian"):
                ops.append(Op(f"kernel-{n}x{n}/{label}/{kind}",
                              lambda model=model, kind=kind, exp=exp, pi=pi:
                                  getattr(model, kind)(exp, pi),
                              lambda res, kind=kind, cond=cond, pi=pi, analytic=analytic:
                                  refs.check_mi_kernel(kind, res, cond, pi, analytic)))

    def warmup():
        b = api.Contract(EXAMPLE_PAYMENTS)
        api.best_response_general(b, EXAMPLE_PRIOR, breg)
        api.best_response_general(api.Contract(STALL_PAYMENTS), STALL_PRIOR, breg)

    return Workload(ops, warmup)


BUILDERS = {
    "contract-requests": contract_requests,
    "agent-capacity": agent_capacity,
    "general-cost": general_cost,
}
