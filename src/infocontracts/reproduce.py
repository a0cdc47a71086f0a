"""Golden reproduction of the built-in two-state worked example.

The example: output (0, 10; 5, 5), prior (2/3, 1/3), mutual-information
cost, capacity 1/2.  `run_reproduction` recomputes every published number
from scratch, writes the tables and figure data to an output directory,
and compares against the embedded golden values at their stated
tolerances.

Published experiment tables for the first-best solutions report the
experiments in posterior coordinates (the probability of each state given
the recommended decision); the golden checks compare those.  The
comparison table is built from the published state transfer (3.836,
6.596), which also defines the truncated contract max{0, y - beta}.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass

import numpy as np

from .agent import best_response_capacity, best_response_shannon
from .contracts import second_best_solve
from .costs import ShannonCost
from .geometry import _write_figure, emit_figure_data
from .model import (Contract, ProblemInstance, evaluate_profile,
                    posterior_matrix)
from .problem_io import canonical_json, fmt17

BETA_PUBLISHED = np.array([3.836, 6.596])

GOLDEN = {
    "table1a_posterior": (np.array([[0.007, 0.993], [0.993, 0.007]]), 1e-3),
    "table1a_cost": (0.596, 5e-3),
    "table1b_posterior": (np.array([[0.031, 0.969], [0.969, 0.031]]), 1e-3),
    "mu": (0.446, 2e-3),
    "alpha_prime": (0.692, 2e-3),
    "v_agent_max": (6.014, 5e-3),
    "v_agent_min": (2.853, 5e-3),
    "table2_contract": (np.array([[0.0, 1.00], [0.702, 0.0]]), 2e-2),
    "table2_experiment": (np.array([[0.160, 0.514], [0.840, 0.486]]), 5e-3),
    "table2_beta": (np.array([3.836, 6.596]), 2e-2),
    "table2_gamma": (np.array([[-3.836, 2.404], [0.462, -1.596]]), 2e-2),
    "comparison": (np.array([[6.633, 1.877, 0.596],
                             [5.900, 1.704, 0.293],
                             [5.321, 0.566, 0.067]]), 1e-2),
    "truncated_experiment": (np.array([[0.211, 0.963], [0.789, 0.037]]), 2e-3),
    "logit_contacts": (np.array([0.268941, 0.731059]), 2e-4),
}


def example_instance() -> ProblemInstance:
    return ProblemInstance(
        decisions=("d1", "d2"),
        states=("theta1", "theta2"),
        output=[[0.0, 10.0], [5.0, 5.0]],
        prior=[2.0 / 3.0, 1.0 / 3.0],
        capacity=0.5,
        cost_model=ShannonCost(),
    )


def logit_example_instance() -> ProblemInstance:
    """The two-decision illustration with prior 0.45 on the second state."""
    return ProblemInstance(
        decisions=("d1", "d2"),
        states=("theta1", "theta2"),
        output=[[0.0, 2.0], [1.0, 1.0]],
        prior=[0.55, 0.45],
        capacity=10.0,
        cost_model=ShannonCost(),
    )


LOGIT_EXAMPLE_CONTRACT = Contract([[0.0, 2.0], [1.0, 1.0]])


@dataclass(frozen=True)
class GoldenCheck:
    name: str
    computed: float
    expected: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return abs(self.computed - self.expected) <= self.tolerance


def _checks(name, computed, expected, tol):
    computed = np.atleast_1d(np.asarray(computed, float))
    expected = np.atleast_1d(np.asarray(expected, float))
    flat_c, flat_e = computed.ravel(), expected.ravel()
    out = []
    for i, (c, e) in enumerate(zip(flat_c, flat_e)):
        label = name if flat_c.size == 1 else f"{name}[{i}]"
        out.append(GoldenCheck(label, float(c), float(e), tol))
    return out


def _quantity_csv(path, blocks, decisions, states):
    """Several named (decision, state) matrices or per-state vectors in one
    CSV with columns quantity,decision,state,value."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["quantity", "decision", "state", "value"])
        for name, mat in blocks:
            mat = np.asarray(mat, float)
            if mat.ndim == 1:
                for j, s in enumerate(states):
                    writer.writerow([name, "", s, fmt17(mat[j])])
            else:
                for i, d in enumerate(decisions):
                    for j, s in enumerate(states):
                        writer.writerow([name, d, s, fmt17(mat[i, j])])


def run_reproduction(out_dir):
    """Recompute the worked example, write artifacts, return golden checks."""
    os.makedirs(out_dir, exist_ok=True)
    inst = example_instance()
    pi = inst.prior
    y = inst.output_contract
    checks = []

    # first-best experiments, unconstrained and capacity-constrained
    free = best_response_shannon(y, pi)
    cap = best_response_capacity(y, pi, inst.capacity, inst.cost_model)
    post_free = posterior_matrix(free.experiment, pi)
    post_cap = posterior_matrix(cap.experiment, pi)
    checks += _checks("table1a_posterior", post_free, *GOLDEN["table1a_posterior"])
    checks += _checks("table1a_cost", free.cost, *GOLDEN["table1a_cost"])
    checks += _checks("table1b_posterior", post_cap, *GOLDEN["table1b_posterior"])
    checks += _checks("mu", cap.mu, *GOLDEN["mu"])

    alpha_p = 1.0 / (1.0 + cap.mu)
    checks += _checks("alpha_prime", alpha_p, *GOLDEN["alpha_prime"])
    v_max = cap.value
    joint = cap.experiment.conditionals * pi[None, :]
    e_y_cap = float(np.sum(joint * inst.output))
    v_min = alpha_p * (e_y_cap - float(pi @ inst.output.min(axis=0))) - inst.capacity
    checks += _checks("v_agent_max", v_max, *GOLDEN["v_agent_max"])
    checks += _checks("v_agent_min", v_min, *GOLDEN["v_agent_min"])

    _quantity_csv(os.path.join(out_dir, "table1a.csv"),
                  [("conditional", free.experiment.conditionals),
                   ("posterior", post_free)], inst.decisions, inst.states)
    _quantity_csv(os.path.join(out_dir, "table1b.csv"),
                  [("conditional", cap.experiment.conditionals),
                   ("posterior", post_cap)], inst.decisions, inst.states)

    # second-best contract and its decomposition
    sb = second_best_solve(inst, xi=0.0, alpha=1.0)
    checks += _checks("table2_contract", sb.contract.payments, *GOLDEN["table2_contract"])
    checks += _checks("table2_experiment", sb.experiment.conditionals,
                      *GOLDEN["table2_experiment"])
    checks += _checks("table2_beta", sb.decomposition.beta, *GOLDEN["table2_beta"])
    checks += _checks("table2_gamma", sb.decomposition.gamma, *GOLDEN["table2_gamma"])
    _quantity_csv(os.path.join(out_dir, "table2.csv"),
                  [("contract", sb.contract.payments),
                   ("experiment", sb.experiment.conditionals),
                   ("beta", sb.decomposition.beta),
                   ("gamma", sb.decomposition.gamma)],
                  inst.decisions, inst.states)

    # payoff comparison across the three contracts, built from the
    # published transfer
    shifted = Contract(inst.output - BETA_PUBLISHED[None, :])
    truncated = Contract(np.maximum(shifted.payments, 0.0))
    rows = []
    r_free = evaluate_profile(shifted, free.experiment, inst)
    rows.append(("y-beta", r_free))
    tr_sol = best_response_shannon(truncated, pi)
    rows.append(("max{0,y-beta}", evaluate_profile(truncated, tr_sol.experiment, inst)))
    rows.append(("y-beta-gamma", sb.report))
    comparison = np.array([[r.expected_output, r.expected_payment, r.cost]
                           for _, r in rows])
    checks += _checks("comparison", comparison, *GOLDEN["comparison"])
    checks += _checks("truncated_experiment", tr_sol.experiment.conditionals,
                      *GOLDEN["truncated_experiment"])
    with open(os.path.join(out_dir, "comparison.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["contract", "expected_output", "expected_payment", "cost"])
        for (name, r) in rows:
            writer.writerow([name, fmt17(r.expected_output),
                             fmt17(r.expected_payment), fmt17(r.cost)])

    # figure data: the example's three contracts plus the logit illustration
    emit_figure_data(inst, shifted, out_dir, "first_best")
    emit_figure_data(inst, truncated, out_dir, "truncated")
    emit_figure_data(inst, sb.contract, out_dir, "optimal")
    _, conc = _write_figure(logit_example_instance(), LOGIT_EXAMPLE_CONTRACT, out_dir,
                            "logit_example")
    checks += _checks("logit_contacts", np.sort(conc.contacts),
                      *GOLDEN["logit_contacts"])

    scalars = {
        "alpha_prime": alpha_p,
        "mu": cap.mu,
        "v_agent_max": v_max,
        "v_agent_min": v_min,
        "table1a_cost": free.cost,
        "second_best": {
            "expected_output": sb.report.expected_output,
            "expected_payment": sb.report.expected_payment,
            "cost": sb.report.cost,
            "agent_utility": sb.report.agent_utility,
            "principal_utility": sb.report.principal_utility,
        },
    }
    with open(os.path.join(out_dir, "scalars.json"), "w") as fh:
        fh.write(canonical_json(scalars))
    return checks


def format_report(checks):
    """Human-readable per-cell diff lines and the overall verdict."""
    lines = []
    for c in checks:
        status = "ok  " if c.ok else "FAIL"
        lines.append(f"{status} {c.name}: computed {c.computed:.6f} "
                     f"expected {c.expected:.6f} (tol {c.tolerance:g})")
    n_bad = sum(not c.ok for c in checks)
    lines.append(f"{len(checks) - n_bad}/{len(checks)} golden values matched")
    return lines, n_bad == 0
