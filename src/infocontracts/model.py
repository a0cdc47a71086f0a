"""Domain types for the contracting problem and the exact payoff algebra.

Conventions: matrices indexed (decision, state); an experiment column
p(.|theta) is a distribution over decisions; the prior is a distribution
over states.  All values are immutable after construction and every
operation is a pure function.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .costs import CostModel
from .errors import DimensionMismatchError, MalformedProblemError

SIMPLEX_TOL = 1e-12


def _frozen(a, dtype=float):
    arr = np.array(a, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Experiment:
    """Conditional decision probabilities p(d|theta), one column per state."""

    conditionals: np.ndarray

    def __post_init__(self):
        p = _frozen(self.conditionals)
        if p.ndim != 2:
            raise DimensionMismatchError("experiment must be a 2-d matrix")
        # one pass each for the range and the column sums; NaN fails both
        if not (p.min(initial=0.0) >= -SIMPLEX_TOL and p.max(initial=1.0) <= 1 + SIMPLEX_TOL):
            raise ValueError("experiment entries must lie in [0, 1]")
        col = p.sum(axis=0)
        if not np.abs(col - 1.0).max(initial=0.0) <= 1e-12:
            raise ValueError(f"experiment columns must sum to 1, got {col}")
        object.__setattr__(self, "conditionals", p)

    @property
    def n_decisions(self):
        return self.conditionals.shape[0]

    @property
    def n_states(self):
        return self.conditionals.shape[1]


@dataclass(frozen=True)
class Contract:
    """Payment schedule b(d, theta).

    Infeasible contracts (outside the liability limits) are representable;
    the certificate of each contract solver checks the limits.
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
class ProblemInstance:
    """Output matrix, prior, capacity bound, and cost model for one problem.

    Every rule of the problem is checked here, and a problem that breaks
    one raises MalformedProblemError at its key in a problem file:
    `/decisions` and `/states`, nonempty lists of distinct strings;
    `/output`, a finite matrix of one row per decision and one column per
    state, with no entry below 0 (no payment then lies within both
    liability limits 0 <= b <= y); `/prior`, a finite, strictly positive
    distribution over the states; `/capacity`, positive, possibly
    infinite; `/cost`, a `CostModel`, where a table needs two states."""

    decisions: tuple
    states: tuple
    output: np.ndarray
    prior: np.ndarray
    capacity: float
    cost_model: CostModel

    def __post_init__(self):
        for pointer, labels in (("/decisions", self.decisions), ("/states", self.states)):
            if (not isinstance(labels, (list, tuple)) or not labels
                    or not all(isinstance(label, str) for label in labels)):
                raise MalformedProblemError(pointer, "must be a nonempty list of strings")
            if len(set(labels)) != len(labels):
                raise MalformedProblemError(pointer, "labels must be unique")
        object.__setattr__(self, "decisions", tuple(self.decisions))
        object.__setattr__(self, "states", tuple(self.states))
        output = _frozen(self.output)
        pi = _frozen(self.prior)
        if output.shape != (len(self.decisions), len(self.states)):
            raise MalformedProblemError(
                "/output", f"shape {output.shape} does not match "
                           f"{len(self.decisions)} decisions x {len(self.states)} states")
        if not np.all(np.isfinite(output)):
            raise MalformedProblemError("/output", "entries must be finite")
        if np.any(output < 0):
            raise MalformedProblemError(
                "/output", "an output below 0 leaves no payment within both liability limits")
        if pi.shape != (len(self.states),):
            raise MalformedProblemError("/prior", "length must match the states")
        if not np.all(np.isfinite(pi)):
            raise MalformedProblemError("/prior", "entries must be finite")
        if np.any(pi <= 0):
            raise MalformedProblemError("/prior", "entries must be strictly positive")
        if abs(pi.sum() - 1.0) > 1e-9:
            raise MalformedProblemError("/prior", f"must sum to 1, got {pi.sum()!r}")
        if not self.capacity > 0:
            raise MalformedProblemError("/capacity", "must be positive")
        if not isinstance(self.cost_model, CostModel):
            raise MalformedProblemError("/cost", f"must be a CostModel, got {self.cost_model!r}")
        if self.cost_model.knots is not None and len(self.states) != 2:
            raise MalformedProblemError("/cost", "a gridded uncertainty function needs two "
                                                 f"states, got {len(self.states)}")
        object.__setattr__(self, "output", output)
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
    if p.n_states != pi.shape[0]:
        raise DimensionMismatchError(f"experiment has {p.n_states} states, prior {pi.shape[0]}")
    return p.conditionals @ pi


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
