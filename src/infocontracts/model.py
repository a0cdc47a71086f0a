"""Domain types for the contracting problem and the exact payoff algebra.

Conventions: matrices indexed (decision, state); an experiment column
p(.|theta) is a distribution over decisions; the prior is a distribution
over states.  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, ZeroMarginalError

SIMPLEX_TOL = 1e-12
FEASIBILITY_TOL = 1e-10   # how far a payment may leave the liability limits


def _frozen(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _check_shapes(name_a, a, name_b, b, axis_a=0, axis_b=0):
    if a.shape[axis_a] != b.shape[axis_b]:
        raise DimensionMismatchError(
            f"{name_a} has {a.shape[axis_a]} entries on axis {axis_a}, "
            f"{name_b} has {b.shape[axis_b]}"
        )


@dataclass(frozen=True)
class Experiment:
    """Conditional decision probabilities p(d|theta), one column per state."""

    conditionals: np.ndarray

    def __post_init__(self):
        p = _frozen(self.conditionals)
        if p.ndim != 2:
            raise DimensionMismatchError("experiment must be a 2-d matrix")
        if np.any(p < -SIMPLEX_TOL) or np.any(p > 1 + SIMPLEX_TOL):
            raise ValueError("experiment entries must lie in [0, 1]")
        col = p.sum(axis=0)
        if np.any(np.abs(col - 1.0) > 1e-12):
            raise ValueError(f"experiment columns must sum to 1, got {col}")
        object.__setattr__(self, "conditionals", p)

    @property
    def n_decisions(self):
        return self.conditionals.shape[0]

    @property
    def n_states(self):
        return self.conditionals.shape[1]

    @staticmethod
    def uninformative(n_decisions, n_states, weights=None):
        """Experiment whose columns all equal `weights` (uniform by default)."""
        w = np.full(n_decisions, 1.0 / n_decisions) if weights is None else np.asarray(weights, float)
        return Experiment(np.tile(w[:, None], (1, n_states)))


@dataclass(frozen=True)
class Contract:
    """Payment schedule b(d, theta).

    Infeasible contracts (outside the liability limits) are representable;
    feasibility is the separate predicate `is_feasible`.
    """

    payments: np.ndarray

    def __post_init__(self):
        b = _frozen(self.payments)
        if b.ndim != 2:
            raise DimensionMismatchError("contract must be a 2-d matrix")
        if not np.all(np.isfinite(b)):
            raise ValueError("contract payments must be finite")
        object.__setattr__(self, "payments", b)

    @property
    def n_decisions(self):
        return self.payments.shape[0]

    @property
    def n_states(self):
        return self.payments.shape[1]


@dataclass(frozen=True)
class Garbling:
    """Row-stochastic matrix g(d'|d) post-processing decisions."""

    matrix: np.ndarray

    def __post_init__(self):
        g = _frozen(self.matrix)
        if g.ndim != 2:
            raise DimensionMismatchError("garbling must be a 2-d matrix")
        if np.any(g < 0):
            raise ValueError("garbling entries must be nonnegative")
        rows = g.sum(axis=1)
        if np.any(np.abs(rows - 1.0) > 1e-9):
            raise ValueError(f"garbling rows must sum to 1, got {rows}")
        object.__setattr__(self, "matrix", g)


@dataclass(frozen=True)
class ProblemInstance:
    """Output matrix, prior, capacity bound, and cost model for one problem."""

    decisions: tuple
    states: tuple
    output: np.ndarray
    prior: np.ndarray
    capacity: float
    cost_model: object = None

    def __post_init__(self):
        y = _frozen(self.output)
        pi = _frozen(self.prior)
        object.__setattr__(self, "decisions", tuple(self.decisions))
        object.__setattr__(self, "states", tuple(self.states))
        if len(self.decisions) < 1 or len(self.states) < 1:
            raise ValueError("need at least one decision and one state")
        if y.shape != (len(self.decisions), len(self.states)):
            raise DimensionMismatchError(
                f"output shape {y.shape} does not match "
                f"{len(self.decisions)} decisions x {len(self.states)} states"
            )
        if not np.all(np.isfinite(y)):
            raise ValueError("output must be finite")
        if pi.shape != (len(self.states),):
            raise DimensionMismatchError("prior length does not match states")
        if np.any(pi <= 0):
            raise ValueError("prior must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise ValueError(f"prior must sum to 1, got {pi.sum()}")
        if not (self.capacity >= 0):
            raise ValueError("capacity must be nonnegative")
        object.__setattr__(self, "output", y)
        object.__setattr__(self, "prior", pi)

    @property
    def n_decisions(self):
        return len(self.decisions)

    @property
    def n_states(self):
        return len(self.states)

    @property
    def output_contract(self):
        """The contract that pays out the full output."""
        return Contract(self.output)


@dataclass(frozen=True)
class PayoffReport:
    """Expected payoffs of an action profile (contract, experiment)."""

    expected_output: float
    expected_payment: float
    cost: float
    agent_utility: float
    principal_utility: float
    welfare: float


def marginal(p: Experiment, prior) -> np.ndarray:
    """Total decision probabilities p(d) = sum_theta pi(theta) p(d|theta)."""
    pi = np.asarray(prior, float)
    _check_shapes("experiment states", p.conditionals, "prior", pi, axis_a=1)
    return p.conditionals @ pi


def posterior(p: Experiment, prior, d) -> np.ndarray:
    """Bayes posterior over states after observing decision index `d`."""
    pi = np.asarray(prior, float)
    _check_shapes("experiment states", p.conditionals, "prior", pi, axis_a=1)
    m = float(p.conditionals[d] @ pi)
    if m <= 0.0:
        raise ZeroMarginalError(f"decision {d} is never taken; posterior undefined")
    return p.conditionals[d] * pi / m


def posterior_matrix(p: Experiment, prior) -> np.ndarray:
    """All posteriors as a (decision, state) matrix; rows with p(d)=0 are NaN."""
    pi = np.asarray(prior, float)
    m = marginal(p, pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        q = p.conditionals * pi[None, :] / m[:, None]
    return q


def evaluate_profile(b: Contract, p: Experiment, inst: ProblemInstance) -> PayoffReport:
    """Expected output, payment, cost, and the three utilities for (b, p)."""
    if b.payments.shape != p.conditionals.shape or b.payments.shape != inst.output.shape:
        raise DimensionMismatchError(
            f"contract {b.payments.shape}, experiment {p.conditionals.shape}, "
            f"output {inst.output.shape} must share a shape"
        )
    joint = p.conditionals * inst.prior[None, :]
    e_y = float(np.sum(joint * inst.output))
    e_b = float(np.sum(joint * b.payments))
    cost = float(inst.cost_model.value(p, inst.prior))
    agent = e_b - cost
    principal = e_y - e_b
    return PayoffReport(
        expected_output=e_y,
        expected_payment=e_b,
        cost=cost,
        agent_utility=agent,
        principal_utility=principal,
        welfare=e_y - cost,
    )


def garble(p: Experiment, g: Garbling) -> Experiment:
    """Post-process an experiment: p'(d'|theta) = sum_d p(d|theta) g(d'|d)."""
    _check_shapes("garbling rows", g.matrix, "experiment decisions", p.conditionals)
    return Experiment(g.matrix.T @ p.conditionals)


def is_feasible(b: Contract, output) -> bool:
    """Both liability limits hold, within FEASIBILITY_TOL: 0 <= b(d,theta)
    <= y(d,theta)."""
    y = np.asarray(output, float)
    return bool(np.all(b.payments >= -FEASIBILITY_TOL)
                and np.all(b.payments <= y + FEASIBILITY_TOL))
