"""Information costs: values, gradients, and Hessians.

Every cost is posterior separable: for a concave uncertainty function
Upsilon on the state simplex,

    c(p) = scale * (Upsilon(prior) - sum_d p(d) Upsilon(posterior_d)).

`CostModel` is defined by its Upsilon, which is either the Shannon entropy
(the cost is then `scale` times mutual information) or a two-state table
of points (q, value), q the probability of the second state, linearly
interpolated and held at its end values outside its knots.  A table that
is not concave on [0, 1] defines no information cost (it prices some
experiment below 0) and is refused with a ValueError when the model is
built.  Value, gradient, and Hessian follow from one formula in
Upsilon and its gradient and Hessian.  `ShannonCost`, `BregmanMatrixCost`
(Hebert & Woodford's information cost matrix; the inverse Fisher matrix
is that of the entropy) and `PosteriorSeparableCost` construct it.

The entropy is special in one respect: the agent's best response is a
logit rule, and the optimal distortion reduces to a decision-dependent
transfer.  `CostModel.logit_scale` says whether that holds.

All entropic quantities are in nats.  Gradients of a cost on the product
of per-state simplexes are identified only up to a per-state constant;
the gradient reported is the one of mutual information,
pi(theta) log(p(d|theta) / p(d)) for the entropy, and consumers must only
rely on within-state differences (which is what the agent's first-order
condition uses).
"""

from __future__ import annotations

import copy
from typing import TYPE_CHECKING

import numpy as np

from .errors import BoundaryPointError

if TYPE_CHECKING:  # model imports this module to check a problem's cost
    from .model import Experiment

INTERIOR_EPS = 1e-12   # derivatives need every experiment entry above this
CONCAVITY_TOL = 1e-12  # how far a table may dip below a chord, per unit of its values
_TINY = np.finfo(float).tiny  # subnormal values round coarser than any relative tolerance


def entropy(q):
    """Shannon entropy in nats with the 0 log 0 = 0 convention, over the
    last axis of an array of distributions."""
    q = np.asarray(q, float)
    return -np.sum(q * np.log(np.where(q > 0, q, 1.0)), axis=-1)


class _Entropy:
    """Upsilon = entropy, with its gradient and Hessian in the ambient
    coordinates, on arrays of posteriors (..., n_s)."""

    __call__ = staticmethod(entropy)

    @staticmethod
    def grad(q):
        return -np.log(q) - 1.0

    @staticmethod
    def hess(q):
        return -(1.0 / q)[..., None] * np.eye(q.shape[-1])


class _Table:
    """Two-state Upsilon from points (q, value), linearly interpolated in q,
    the probability of the second state.  Its gradient is the slope of the
    segment at q (the right one at a knot) and its Hessian is zero.  A
    table not concave on [0, 1], with its end values held beyond its knots
    as `np.interp` does, is refused: a knot may fall below the chord of its
    neighbours (0 and 1 included) by CONCAVITY_TOL times the table's
    largest absolute value there, or by the smallest normal float if that
    is more, for rounding, and no more."""

    def __init__(self, points):
        pts = np.asarray(points, float)
        if pts.ndim != 2 or pts.shape[1] != 2 or not np.isfinite(pts).all():
            raise ValueError("grid must be a list of finite (q, value) pairs")
        pts = pts[np.argsort(pts[:, 0])]
        if len(pts) < 2 or np.any(np.diff(pts[:, 0]) <= 0):
            raise ValueError("grid needs two or more distinct q values")
        self.q, self.v = pts[:, 0], pts[:, 1]
        self.slopes = np.diff(self.v) / np.diff(self.q)
        k = np.concatenate([[0.0], self.q[(self.q > 0.0) & (self.q < 1.0)], [1.0]])
        v = np.interp(k, self.q, self.v)
        chord = (v[:-2] * (k[2:] - k[1:-1]) + v[2:] * (k[1:-1] - k[:-2])) / (k[2:] - k[:-2])
        if np.any(v[1:-1] - chord < -max(CONCAVITY_TOL * np.abs(v).max(), _TINY)):
            raise ValueError("grid must be concave on [0, 1]")

    @staticmethod
    def _second(q):
        if q.shape[-1] != 2:
            raise ValueError("gridded uncertainty functions need two states")
        return q[..., 1]

    def __call__(self, q):
        return np.interp(self._second(q), self.q, self.v)

    def grad(self, q):
        x = self._second(q)
        seg = np.clip(np.searchsorted(self.q, x, side="right") - 1, 0, len(self.slopes) - 1)
        return np.stack([np.zeros_like(x), self.slopes[seg]], axis=-1)

    def hess(self, q):
        return np.zeros(q.shape + (2,))


_ENTROPY = _Entropy()


class CostModel:
    """Posterior-separable cost with uncertainty function `upsilon`, either
    "entropy" or {"grid": [[q, value], ...]}, times a positive `scale`."""

    def __init__(self, upsilon="entropy", scale=1.0):
        if not scale > 0:
            raise ValueError("scale must be positive")
        if upsilon == "entropy":
            self._ups = _ENTROPY
        elif isinstance(upsilon, dict) and "grid" in upsilon:
            self._ups = _Table(upsilon["grid"])
        else:
            raise ValueError(f"unknown uncertainty function {upsilon!r}")
        self.spec = upsilon
        self.scale = float(scale)

    def __repr__(self):
        return f"CostModel({self.spec!r}, scale={self.scale})"

    @property
    def logit_scale(self):
        """`scale` when Upsilon is the entropy, so that the cost is scaled
        mutual information and the best response a logit rule; else None."""
        return self.scale if self._ups is _ENTROPY else None

    @property
    def knots(self):
        """The q values of a two-state table, where its Upsilon has kinks
        (increasing); None for the entropy."""
        return None if self._ups is _ENTROPY else self._ups.q

    def scaled(self, factor):
        """Same uncertainty function with the scale multiplied by `factor`."""
        if not factor > 0:
            raise ValueError("scale must be positive")
        out = copy.copy(self)
        out.scale = self.scale * factor
        return out

    def upsilon(self, q):
        """Scaled uncertainty function over the last axis of `q`."""
        return self.scale * self._ups(np.asarray(q, float))

    def value(self, p: Experiment, prior) -> float:
        # the formula extends smoothly off the column simplexes: posteriors
        # renormalize by construction
        pi = np.asarray(prior, float)
        joint = p.conditionals * pi
        m = joint.sum(axis=1)
        live = m > 0
        post = joint[live] / m[live, None]
        out = self.scale * float(self._ups(pi) - m[live] @ self._ups(post))
        # an uninformed experiment (every live row constant across states)
        # has posteriors equal to the prior: its cost is 0, not rounding
        if abs(out) < 1e-12 and np.all(p.conditionals[live] == p.conditionals[live, :1]):
            return 0.0
        return out

    def _require_interior(self, p: Experiment):
        if np.min(p.conditionals) <= INTERIOR_EPS:
            raise BoundaryPointError(
                f"experiment entry {np.min(p.conditionals):.3e} <= {INTERIOR_EPS:.0e}; "
                "derivatives are undefined at the boundary"
            )

    def _slope(self, q):
        # derivative of the perspective -m Upsilon(x / m) in the joint
        # x = m q: q . grad Upsilon(q) - d_s Upsilon(q) - Upsilon(q)
        g = self._ups.grad(q)
        return np.sum(q * g, axis=-1, keepdims=True) - g - self._ups(q)[..., None]

    def gradient(self, p: Experiment, prior) -> np.ndarray:
        """dc/dp(d|theta), less the per-state constant that makes it the
        mutual-information gradient for the entropy.  Raises
        BoundaryPointError at an entry at or below INTERIOR_EPS."""
        self._require_interior(p)
        pi = np.asarray(prior, float)
        joint = p.conditionals * pi
        post = joint / joint.sum(axis=1, keepdims=True)
        return self.scale * pi * (self._slope(post) - self._slope(pi))

    def hessian(self, p: Experiment, prior) -> np.ndarray:
        """Dense Hessian over (d, theta) pairs, block diagonal across
        decisions: block d is -scale pi pi^T / p(d) times P^T H P, with H
        the Hessian of Upsilon at posterior q_d and P = I - q_d 1^T.
        Raises BoundaryPointError at an entry at or below INTERIOR_EPS."""
        self._require_interior(p)
        pi = np.asarray(prior, float)
        cond = p.conditionals
        n_d, n_s = cond.shape
        joint = cond * pi
        m = joint.sum(axis=1)
        post = joint / m[:, None]
        h = self._ups.hess(post)
        hq = (h @ post[:, :, None])[:, :, 0]
        qhq = np.sum(hq * post, axis=1)
        proj = h - hq[:, :, None] - hq[:, None, :] + qhq[:, None, None]
        blocks = -self.scale * np.outer(pi, pi) / m[:, None, None] * proj
        out = np.zeros((n_d, n_s, n_d, n_s))
        out[np.arange(n_d), :, np.arange(n_d), :] = blocks
        return out.reshape(n_d * n_s, n_d * n_s)


def ShannonCost(scale=1.0) -> CostModel:
    """Mutual-information cost, optionally scaled: Upsilon is the entropy."""
    return CostModel("entropy", scale)


def BregmanMatrixCost(name="inverse_fisher", scale=1.0) -> CostModel:
    """Expected Bregman divergence cost of an information cost matrix.

    The one matrix supported, the inverse Fisher matrix diag(q) - q q^T,
    is that of the entropy, so this is the mutual-information cost.
    """
    if name.removeprefix("named:") != "inverse_fisher":
        raise ValueError(f"unknown information cost matrix {name!r}")
    return CostModel("entropy", scale)


def PosteriorSeparableCost(upsilon="entropy", scale=1.0) -> CostModel:
    """Cost from a named ("entropy") or gridded uncertainty function.

    Gridded tables are supported for two states only: points (q, value)
    where q is the probability of the second state, linearly interpolated.
    """
    return CostModel(upsilon, scale)
