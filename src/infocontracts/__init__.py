"""Contract design for delegated information acquisition.

Core objects: `ProblemInstance` (output, prior, capacity, cost model),
`Contract`, `Experiment`; solvers for the agent's optimal experiment and
for Pareto-optimal contracts decomposed into a piece rate, state transfer,
and optimal distortion.
"""

from .agent import (AgentSolution, agent_kkt_residual, best_response_capacity,
                    best_response_general, best_response_shannon)
from .contracts import (ContractSolution, Decomposition, DualCertificate,
                        alpha_prime, alpha_star, brute_force_pareto, decompose,
                        first_best_frontier, gamma_from_duals,
                        second_best_solve, solve_for_reservation)
from .costs import (BregmanMatrixCost, CostModel, PosteriorSeparableCost,
                    ShannonCost, entropy)
from .errors import (BoundaryPointError, DegeneratePriorError,
                     DimensionMismatchError, InconsistentProfileError,
                     MalformedProblemError, NoConvergenceError,
                     NoPatternFoundError, OutOfRangeError, TooLargeError)
from .geometry import (ConcavifiedCurve, EnvelopeCurve, concavify,
                       emit_figure_data)
from .model import (Contract, Experiment, PayoffReport, ProblemInstance,
                    evaluate_profile, marginal, posterior_matrix)
from .problem_io import (canonical_json, load_contract, load_problem,
                         parse_cost, problem_from_dict, write_matrix_csv)

__version__ = "0.1.0"

__all__ = [
    # agent
    "AgentSolution", "agent_kkt_residual", "best_response_capacity",
    "best_response_general", "best_response_shannon",
    # contracts
    "ContractSolution", "Decomposition", "DualCertificate", "alpha_prime",
    "alpha_star", "brute_force_pareto", "decompose", "first_best_frontier",
    "gamma_from_duals", "second_best_solve", "solve_for_reservation",
    # costs
    "BregmanMatrixCost", "CostModel", "PosteriorSeparableCost", "ShannonCost",
    "entropy",
    # errors
    "BoundaryPointError", "DegeneratePriorError", "DimensionMismatchError",
    "InconsistentProfileError", "MalformedProblemError", "NoConvergenceError",
    "NoPatternFoundError", "OutOfRangeError", "TooLargeError",
    # geometry
    "ConcavifiedCurve", "EnvelopeCurve", "concavify", "emit_figure_data",
    # model
    "Contract", "Experiment", "PayoffReport", "ProblemInstance",
    "evaluate_profile", "marginal", "posterior_matrix",
    # problem_io
    "canonical_json", "load_contract", "load_problem", "parse_cost",
    "problem_from_dict", "write_matrix_csv",
]
