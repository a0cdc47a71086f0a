"""Command-line front end.

Subcommands: solve-agent, solve-contract, first-best, alpha-prime,
alpha-star, geometry, reproduce, oracle.  All numeric output is canonical
JSON on stdout (sorted keys, floats at 17 significant digits).  Exit
codes:

* 0 success;
* 1 golden mismatch in `reproduce`;
* 2 usage error;
* 3 requested utility outside the achievable range (`OutOfRangeError`);
* 4 no sign-consistent binding pattern (`NoPatternFoundError`);
* 5 an iterative solver did not converge (`NoConvergenceError`);
* 6 problem too large for the grid oracle (`TooLargeError`);
* 65 malformed problem/contract file;
* 66 missing file.

Every nonzero code but 1 and 2 comes with a one-line `error:` message on
stderr.  The CF_LOG environment variable (error, info, debug) controls
logging verbosity.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from dataclasses import replace

import numpy as np

from . import reproduce as repro
from .agent import best_response_capacity, best_response_shannon, best_response_general
from .contracts import (alpha_prime, alpha_star, brute_force_pareto,
                        first_best_frontier, second_best_solve,
                        solve_for_reservation)
from .errors import (MalformedProblemError, NoConvergenceError,
                     NoPatternFoundError, OutOfRangeError, TooLargeError)
from .geometry import emit_figure_data
from .model import evaluate_profile
from .problem_io import (canonical_json, load_contract, load_problem,
                         write_matrix_csv)

EXIT_GOLDEN_MISMATCH = 1
EXIT_USAGE = 2
EXIT_OUT_OF_RANGE = 3
EXIT_NO_PATTERN = 4
EXIT_NO_CONVERGENCE = 5
EXIT_TOO_LARGE = 6
EXIT_MALFORMED = 65
EXIT_NOFILE = 66

# typed solver errors: exit code and the label of their stderr line
SOLVER_EXITS = {
    OutOfRangeError: (EXIT_OUT_OF_RANGE, "out of range"),
    NoPatternFoundError: (EXIT_NO_PATTERN, "no binding pattern"),
    NoConvergenceError: (EXIT_NO_CONVERGENCE, "no convergence"),
    TooLargeError: (EXIT_TOO_LARGE, "too large"),
}

log = logging.getLogger("infocontracts")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="infocontracts",
        description="Solvers for contracting over costly information acquisition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    agent = sub.add_parser("solve-agent", help="agent's optimal experiment for a contract")
    agent.add_argument("--problem", required=True)
    agent.add_argument("--contract", required=True)
    agent.add_argument("--mu", type=float, default=None,
                       help="fixed capacity dual (unconstrained response)")
    agent.add_argument("--capacity", action="store_true",
                       help="enforce the problem's capacity constraint")

    contract = sub.add_parser("solve-contract", help="Pareto-optimal contract")
    contract.add_argument("--problem", required=True)
    contract.add_argument("--xi", type=float, default=None,
                          help="participation multiplier in [0, 1]")
    contract.add_argument("--alpha", type=float, default=None,
                          help="piece rate (defaults to 1)")
    contract.add_argument("--reservation", type=float, default=None,
                          help="agent utility floor; bisects xi at alpha*")
    contract.add_argument("--oracle", action="store_true",
                          help="cross-check against the exhaustive grid oracle")
    contract.add_argument("--emit-csv", default=None, metavar="DIR",
                          help="write all solution matrices as CSV files")

    first = sub.add_parser("first-best", help="first-best contract at a utility target")
    first.add_argument("--problem", required=True)
    first.add_argument("--reservation", type=float, required=True)

    ap = sub.add_parser("alpha-prime", help="piece rate where capacity starts binding")
    ap.add_argument("--problem", required=True)

    ast = sub.add_parser("alpha-star", help="capacity-equivalent piece rate")
    ast.add_argument("--problem", required=True)
    ast.add_argument("--reservation", type=float, required=True)

    geo = sub.add_parser("geometry", help="export figure data for a contract")
    geo.add_argument("--problem", required=True)
    geo.add_argument("--contract", required=True)
    geo.add_argument("--out", required=True)
    geo.add_argument("--tag", default="contract")
    geo.add_argument("--mu", type=float, default=0.0)

    rep = sub.add_parser("reproduce", help="recompute the built-in worked example")
    rep.add_argument("--out", required=True)

    orc = sub.add_parser("oracle", help="exhaustive grid oracle for tiny problems")
    orc.add_argument("--problem", required=True)
    orc.add_argument("--reservation", type=float, default=-np.inf)
    orc.add_argument("--grid-n", type=int, default=21)
    return parser


def _solution_json(sol):
    return {
        "experiment": sol.experiment.conditionals,
        "mu": sol.mu,
        "value": sol.value,
        "cost": sol.cost,
        "residual": sol.residual,
        "iterations": sol.iterations,
    }


def _cmd_solve_agent(args, parser):
    if args.mu is not None and args.capacity:
        parser.error("--mu and --capacity are mutually exclusive")
    if args.mu is not None and args.mu < 0:
        parser.error("--mu must be nonnegative")
    inst = load_problem(args.problem)
    b = load_contract(args.contract, inst)
    mu = args.mu or 0.0
    if args.capacity:
        sol = best_response_capacity(b, inst.prior, inst.capacity, inst.cost_model)
    elif inst.cost_model.logit_scale is not None:
        sol = best_response_shannon(b, inst.prior, mu=mu,
                                    scale=inst.cost_model.logit_scale)
    else:
        model = inst.cost_model.scaled(1.0 + mu) if mu else inst.cost_model
        sol = replace(best_response_general(b, inst.prior, model), mu=mu)
    print(canonical_json(_solution_json(sol)), end="")
    return 0


def _cmd_solve_contract(args, parser):
    has_multipliers = args.xi is not None or args.alpha is not None
    if (args.reservation is None) == (not has_multipliers):
        parser.error("give exactly one of --xi/--alpha or --reservation")
    inst = load_problem(args.problem)
    if args.reservation is not None:
        alpha = alpha_star(inst, args.reservation)
        log.info("alpha* = %.6f", alpha)
        sol = solve_for_reservation(inst, args.reservation, alpha)
    else:
        sol = second_best_solve(inst, args.xi if args.xi is not None else 0.0,
                                args.alpha if args.alpha is not None else 1.0)
    out = {
        "contract": sol.contract.payments,
        "experiment": sol.experiment.conditionals,
        "decomposition": {
            "alpha": sol.decomposition.alpha,
            "beta": sol.decomposition.beta,
            "gamma": sol.decomposition.gamma,
            "gamma_hat": sol.decomposition.gamma_hat,
        },
        "duals": {
            "lambda": sol.duals.lam,
            "xi": sol.duals.xi,
            "tau": sol.duals.tau,
            "rho": sol.duals.rho,
            "mu": sol.duals.mu,
        },
        "report": vars(sol.report),
        "residual": sol.residual,
    }
    if args.oracle:
        bc, bp = brute_force_pareto(inst, r=sol.report.agent_utility)
        orep = evaluate_profile(bc, bp, inst)
        out["oracle"] = {
            "contract": bc.payments,
            "principal_utility": orep.principal_utility,
            "agent_utility": orep.agent_utility,
        }
    if args.emit_csv:
        os.makedirs(args.emit_csv, exist_ok=True)
        for name, mat in (("contract", sol.contract.payments),
                          ("experiment", sol.experiment.conditionals),
                          ("gamma", sol.decomposition.gamma),
                          ("lambda", sol.duals.lam)):
            write_matrix_csv(os.path.join(args.emit_csv, f"{name}.csv"),
                             mat, inst.decisions, inst.states)
    print(canonical_json(out), end="")
    return 0


def _cmd_first_best(args, parser):
    inst = load_problem(args.problem)
    contract, sol = first_best_frontier(inst, args.reservation)
    out = {"contract": contract.payments, **_solution_json(sol)}
    print(canonical_json(out), end="")
    return 0


def _cmd_alpha_prime(args, parser):
    inst = load_problem(args.problem)
    print(canonical_json({"alpha_prime": alpha_prime(inst)}), end="")
    return 0


def _cmd_alpha_star(args, parser):
    inst = load_problem(args.problem)
    print(canonical_json({"alpha_star": alpha_star(inst, args.reservation)}), end="")
    return 0


def _cmd_geometry(args, parser):
    inst = load_problem(args.problem)
    b = load_contract(args.contract, inst)
    path = emit_figure_data(inst, b, args.out, args.tag, mu=args.mu)
    print(canonical_json({"path": path}), end="")
    return 0


def _cmd_reproduce(args, parser):
    checks = repro.run_reproduction(args.out)
    lines, ok = repro.format_report(checks)
    for line in lines:
        print(line)
    return 0 if ok else EXIT_GOLDEN_MISMATCH


def _cmd_oracle(args, parser):
    inst = load_problem(args.problem)
    bc, bp = brute_force_pareto(inst, r=args.reservation, grid_n=args.grid_n)
    rep = evaluate_profile(bc, bp, inst)
    out = {"contract": bc.payments, "experiment": bp.conditionals,
           "report": vars(rep)}
    print(canonical_json(out), end="")
    return 0


_HANDLERS = {
    "solve-agent": _cmd_solve_agent,
    "solve-contract": _cmd_solve_contract,
    "first-best": _cmd_first_best,
    "alpha-prime": _cmd_alpha_prime,
    "alpha-star": _cmd_alpha_star,
    "geometry": _cmd_geometry,
    "reproduce": _cmd_reproduce,
    "oracle": _cmd_oracle,
}


def main(argv=None):
    level = os.environ.get("CF_LOG", "error").lower()
    logging.basicConfig(
        level={"error": logging.ERROR, "info": logging.INFO,
               "debug": logging.DEBUG}.get(level, logging.ERROR),
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args, parser)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_NOFILE
    except MalformedProblemError as exc:
        print(f"error: malformed input: {exc}", file=sys.stderr)
        return EXIT_MALFORMED
    except tuple(SOLVER_EXITS) as exc:
        code, label = SOLVER_EXITS[type(exc)]
        print(f"error: {label}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
