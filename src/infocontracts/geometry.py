"""Two-state geometric engine: reduced forms, net-utility envelopes,
concavification, and figure-data export.

Posteriors are parametrized by q = probability of the second state.  The
reduced form of a contract is the maximal expected payment as a function
of q; adding the uncertainty function gives the net-utility envelope whose
concavification at the prior solves the agent's problem.
"""

from __future__ import annotations

import csv
import io
import os
from dataclasses import dataclass

import numpy as np

from .errors import DegeneratePriorError, DimensionMismatchError
from .model import Contract

GRID_N = 5001
GRID_EDGE = 1e-6


def default_grid(n=GRID_N):
    """Posterior grid on [1e-6, 1 - 1e-6] avoiding the log singularities."""
    return np.linspace(GRID_EDGE, 1.0 - GRID_EDGE, n)


def reduced_form(b: Contract, q):
    """Best expected payment at posterior q and the set of maximizing decisions.

    `q` is either a scalar (two states: probability of the second state) or
    a full posterior vector.  Ties are returned as a tuple of decision
    indices, lowest first.
    """
    if np.ndim(q) == 0:
        if b.n_states != 2:
            raise ValueError("scalar posterior form requires two states")
        qv = np.array([1.0 - float(q), float(q)])
    else:
        qv = np.asarray(q, float)
    vals = b.payments @ qv
    best = float(np.max(vals))
    ties = tuple(int(i) for i in np.flatnonzero(vals >= best - 1e-12))
    return best, ties


@dataclass(frozen=True)
class EnvelopeCurve:
    """Function values on a posterior grid with per-point argmax labels."""

    grid: np.ndarray
    values: np.ndarray
    pieces: np.ndarray

    def __post_init__(self):
        g = np.asarray(self.grid, float)
        if np.any(np.diff(g) <= 0):
            raise ValueError("grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("curve values must be finite")


def reduced_form_curve(b: Contract, grid=None) -> EnvelopeCurve:
    """Reduced form B(q) of a two-state contract on a posterior grid."""
    grid = default_grid() if grid is None else np.asarray(grid, float)
    lines = np.outer(b.payments[:, 1] - b.payments[:, 0], grid) + b.payments[:, 0][:, None]
    return EnvelopeCurve(grid=grid, values=lines.max(axis=0),
                         pieces=lines.argmax(axis=0))


def net_utility_curve(b: Contract, model, grid=None, mu=0.0) -> EnvelopeCurve:
    """Upper envelope of per-decision net utilities B(q) + (1+mu) Upsilon(q).

    A positive capacity dual `mu` scales the uncertainty function, which is
    how a binding capacity constraint enters the geometry.
    """
    base = reduced_form_curve(b, grid)
    ups = model.upsilon(np.column_stack([1.0 - base.grid, base.grid]))
    return EnvelopeCurve(grid=base.grid, values=base.values + (1.0 + mu) * ups,
                         pieces=base.pieces)


@dataclass(frozen=True)
class ConcavifiedCurve:
    """Concave envelope of a curve, with its contacts and value at a prior."""

    grid: np.ndarray
    envelope: np.ndarray
    contacts: np.ndarray
    weights: np.ndarray
    prior: float
    value: float


def _upper_hull(x, y):
    """Indices of the upper concave hull vertices (monotone chain)."""
    # Python floats, which the scalar loop reads several times faster
    x, y = np.asarray(x, float).tolist(), np.asarray(y, float).tolist()
    keep = []
    for i in range(len(x)):
        while len(keep) >= 2:
            a, b = keep[-2], keep[-1]
            # pop b when it lies on or below chord a--i
            if (y[b] - y[a]) * (x[i] - x[a]) <= (y[i] - y[a]) * (x[b] - x[a]) + 0.0:
                keep.pop()
            else:
                break
        keep.append(i)
    return np.array(keep)


def concavify(curve: EnvelopeCurve, prior: float) -> ConcavifiedCurve:
    """Smallest concave function weakly above the curve, with its value
    and contact posteriors at `prior`.

    Contacts are the curve points spanning the prior on the envelope.  When
    those span a single grid cell the envelope coincides with the curve
    around the prior and the prior itself is returned as the only contact.
    """
    x, y = curve.grid, curve.values
    if not (x[0] <= prior <= x[-1]):
        raise DegeneratePriorError(f"prior {prior} outside grid [{x[0]}, {x[-1]}]")
    hull = _upper_hull(x, y)
    hx, hy = x[hull], y[hull]
    env = np.interp(x, hx, hy)

    j = int(np.searchsorted(hx, prior))
    if j < len(hx) and hx[j] == prior:
        contacts = np.array([prior])
        weights = np.array([1.0])
        value = y[hull[j]]
    else:
        il, ir = hull[j - 1], hull[j]
        slope = (y[ir] - y[il]) / (x[ir] - x[il])
        value = y[il] + slope * (prior - x[il])
        if ir - il == 1:
            # envelope equals the curve on this cell: concave locally
            contacts = np.array([prior])
            weights = np.array([1.0])
        else:
            w_left = (x[ir] - prior) / (x[ir] - x[il])
            contacts = np.array([x[il], x[ir]])
            weights = np.array([w_left, 1.0 - w_left])
    return ConcavifiedCurve(
        grid=x,
        envelope=env,
        contacts=contacts,
        weights=weights,
        prior=float(prior),
        value=float(value),
    )


_FIG_HEADER = "q,B,upsilon,net,envelope,decision,is_contact\r\n"
# one row as the csv module's default (excel) dialect writes it
_FIG_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g,%s,%d\r\n"


def _csv_field(text):
    """`text` as one field of a csv row, quoted by the csv module's own
    minimal-quoting rule (a second field keeps "" from being quoted)."""
    buf = io.StringIO()
    csv.writer(buf).writerow([text, ""])
    return buf.getvalue()[:-3]


def emit_figure_data(inst, b: Contract, out_dir, tag, mu=0.0, grid=None):
    """Write the curves behind one agent-problem figure as fig_<tag>.csv.

    Columns: q, B, upsilon, net, envelope, decision, is_contact.  Rows are
    the grid points plus exact rows for the contact posteriors and the
    prior; output is deterministic.
    """
    return _write_figure(inst, b, out_dir, tag, mu, grid)[0]


def _write_figure(inst, b: Contract, out_dir, tag, mu=0.0, grid=None):
    """`emit_figure_data`, also returning the `ConcavifiedCurve` it wrote."""
    if inst.n_states != 2:
        raise DimensionMismatchError("figure export requires a two-state instance")
    model = inst.cost_model
    curve = net_utility_curve(b, model, grid=grid, mu=mu)
    prior_q = float(inst.prior[1])
    conc = concavify(curve, prior_q)

    # grid rows, contact rows, and the prior unless a row lies within 1e-15
    # of it; by q, contacts first, keeping the first row of each equal q
    q = np.concatenate([curve.grid, conc.contacts])
    flags = np.concatenate([np.zeros(len(curve.grid), int),
                            np.ones(len(conc.contacts), int)])
    if not np.any(np.abs(q - prior_q) < 1e-15):
        q, flags = np.append(q, prior_q), np.append(flags, 0)
    order = np.lexsort((-flags, q))
    q, flags = q[order], flags[order]
    first_of_q = np.concatenate([[True], q[1:] != q[:-1]])
    q, flags = q[first_of_q], flags[first_of_q]

    # every column at once, each entry computed as `reduced_form` and a
    # one-posterior `upsilon` call compute it, so the file does not change
    qv = np.column_stack([1.0 - q, q])
    vals = (b.payments[None] @ qv[:, :, None])[:, :, 0]
    bq = vals.max(axis=1)
    first = np.argmax(vals >= bq[:, None] - 1e-12, axis=1)
    ups = (1.0 + mu) * model.upsilon(qv)
    env = np.interp(q, conc.grid, conc.envelope)

    labels = [_csv_field(d) for d in inst.decisions]
    names = [labels[d] for d in first.tolist()]
    body = "".join([_FIG_ROW % row for row in zip(
        q.tolist(), bq.tolist(), ups.tolist(), (bq + ups).tolist(), env.tolist(),
        names, flags.tolist())])

    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"fig_{tag}.csv")
    with open(path, "w", newline="") as fh:
        fh.write(_FIG_HEADER + body)
    return path, conc
