"""Contract design for delegated information acquisition.

Core objects: `ProblemInstance` (output, prior, capacity, cost model),
`Contract`, `Experiment`; solvers for the agent's optimal experiment and
for Pareto-optimal contracts decomposed into a piece rate, state transfer,
and optimal distortion.
"""

from .agent import (AgentSolution, agent_kkt_residual, best_response_capacity,
                    best_response_general, best_response_shannon)
from .contracts import (ContractSolution, Decomposition, DualCertificate,
                        SecuritySplit, alpha_prime, alpha_star,
                        brute_force_pareto, debt_equity_split, decompose,
                        first_best_frontier, gamma_from_duals,
                        gamma_risk_averse, second_best_solve,
                        solve_for_reservation)
from .costs import (BlackwellWitness, BregmanMatrixCost, CostModel,
                    PosteriorSeparableCost, ShannonCost,
                    check_blackwell_monotone, entropy, inverse_fisher_matrix)
from .errors import (BoundaryPointError, DegeneratePriorError,
                     DimensionMismatchError, InconsistentProfileError,
                     MalformedProblemError, NoConvergenceError,
                     NoPatternFoundError, OutOfRangeError, TooLargeError,
                     ZeroMarginalError)
from .geometry import (ConcavifiedCurve, EnvelopeCurve, concavify,
                       default_grid, emit_figure_data, net_utility_curve,
                       reduced_form, reduced_form_curve)
from .model import (Contract, Experiment, Garbling, PayoffReport,
                    ProblemInstance, evaluate_profile, garble, is_feasible,
                    marginal, posterior, posterior_matrix)
from .problem_io import (canonical_json, load_contract, load_problem,
                         parse_cost, problem_from_dict, write_matrix_csv)

__version__ = "0.1.0"

__all__ = [
    # agent
    "AgentSolution", "agent_kkt_residual", "best_response_capacity",
    "best_response_general", "best_response_shannon",
    # contracts
    "ContractSolution", "Decomposition", "DualCertificate", "SecuritySplit",
    "alpha_prime", "alpha_star", "brute_force_pareto", "debt_equity_split",
    "decompose", "first_best_frontier", "gamma_from_duals", "gamma_risk_averse",
    "second_best_solve", "solve_for_reservation",
    # costs
    "BlackwellWitness", "BregmanMatrixCost", "CostModel",
    "PosteriorSeparableCost", "ShannonCost", "check_blackwell_monotone",
    "entropy", "inverse_fisher_matrix",
    # errors
    "BoundaryPointError", "DegeneratePriorError", "DimensionMismatchError",
    "InconsistentProfileError", "MalformedProblemError", "NoConvergenceError",
    "NoPatternFoundError", "OutOfRangeError", "TooLargeError",
    "ZeroMarginalError",
    # geometry
    "ConcavifiedCurve", "EnvelopeCurve", "concavify", "default_grid",
    "emit_figure_data", "net_utility_curve", "reduced_form",
    "reduced_form_curve",
    # model
    "Contract", "Experiment", "Garbling", "PayoffReport", "ProblemInstance",
    "evaluate_profile", "garble", "is_feasible", "marginal", "posterior",
    "posterior_matrix",
    # problem_io
    "canonical_json", "load_contract", "load_problem", "parse_cost",
    "problem_from_dict", "write_matrix_csv",
]
