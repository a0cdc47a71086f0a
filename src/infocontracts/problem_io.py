"""Problem-file ingestion and machine-readable output.

Problem files are JSON objects with keys `decisions`, `states`, `output`
(row-major by decision), `prior`, `capacity`, and `cost` (a tagged union
selecting the cost model).  Validation failures carry a JSON-pointer to
the offending key.  Matrices echo as CSV with header decision,state,value;
JSON output is canonical: sorted keys, floats printed at 17 significant
digits so every value round-trips losslessly.
"""

from __future__ import annotations

import csv
import json

import numpy as np

from .costs import BregmanMatrixCost, PosteriorSeparableCost, ShannonCost
from .errors import MalformedProblemError
from .model import Contract, ProblemInstance


def _positive_number(value, pointer):
    """`value` as a float when it is a positive finite JSON number (not a
    boolean); else MalformedProblemError at `pointer`."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not np.isfinite(value) or value <= 0):
        raise MalformedProblemError(pointer, "must be a positive finite number")
    return float(value)


def parse_cost(spec):
    """Cost model from its tagged-union JSON spec, the problem's `/cost`."""
    if not isinstance(spec, dict) or "type" not in spec:
        raise MalformedProblemError("/cost", "cost must be an object with a 'type' tag")
    kind = spec["type"]
    scale = _positive_number(spec.get("scale", 1.0), "/cost/scale")
    try:
        if kind == "shannon":
            return ShannonCost(scale=scale)
        if kind == "bregman":
            return BregmanMatrixCost(spec.get("matrix", "inverse_fisher"), scale=scale)
        if kind == "posterior_separable":
            return PosteriorSeparableCost(spec.get("upsilon", "entropy"), scale=scale)
    except (ValueError, TypeError) as exc:
        raise MalformedProblemError("/cost", str(exc)) from exc
    raise MalformedProblemError("/cost/type", f"unknown cost type {kind!r}")


def problem_from_dict(data) -> ProblemInstance:
    """Validated ProblemInstance from a decoded JSON object."""
    if not isinstance(data, dict):
        raise MalformedProblemError("", "problem file must hold a JSON object")
    for key in ("decisions", "states", "output", "prior", "capacity", "cost"):
        if key not in data:
            raise MalformedProblemError(f"/{key}", "missing required key")

    decisions = data["decisions"]
    states = data["states"]
    if (not isinstance(decisions, list) or not decisions
            or not all(isinstance(d, str) for d in decisions)):
        raise MalformedProblemError("/decisions", "must be a nonempty list of strings")
    if (not isinstance(states, list) or not states
            or not all(isinstance(s, str) for s in states)):
        raise MalformedProblemError("/states", "must be a nonempty list of strings")
    if len(set(decisions)) != len(decisions):
        raise MalformedProblemError("/decisions", "labels must be unique")
    if len(set(states)) != len(states):
        raise MalformedProblemError("/states", "labels must be unique")

    try:
        output = np.asarray(data["output"], float)
    except (TypeError, ValueError) as exc:
        raise MalformedProblemError("/output", "must be a numeric matrix") from exc
    if output.shape != (len(decisions), len(states)):
        raise MalformedProblemError(
            "/output", f"shape {output.shape} does not match "
                       f"{len(decisions)} decisions x {len(states)} states")
    if not np.all(np.isfinite(output)):
        raise MalformedProblemError("/output", "entries must be finite")

    try:
        prior = np.asarray(data["prior"], float)
    except (TypeError, ValueError) as exc:
        raise MalformedProblemError("/prior", "must be a numeric vector") from exc
    if prior.shape != (len(states),):
        raise MalformedProblemError("/prior", "length must match the states")
    if not np.all(np.isfinite(prior)):
        raise MalformedProblemError("/prior", "entries must be finite")
    if np.any(prior <= 0):
        raise MalformedProblemError("/prior", "entries must be strictly positive")
    if abs(prior.sum() - 1.0) > 1e-9:
        raise MalformedProblemError("/prior", f"must sum to 1, got {prior.sum()!r}")

    capacity = _positive_number(data["capacity"], "/capacity")
    model = parse_cost(data["cost"])
    if model.knots is not None and len(states) != 2:
        raise MalformedProblemError(
            "/cost", f"a gridded uncertainty function needs two states, got {len(states)}")
    return ProblemInstance(decisions=tuple(decisions), states=tuple(states),
                           output=output, prior=prior,
                           capacity=capacity, cost_model=model)


def load_problem(path) -> ProblemInstance:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedProblemError("", f"invalid JSON: {exc}") from exc
    return problem_from_dict(data)


def load_contract(path, inst: ProblemInstance) -> Contract:
    """Contract from JSON for the problem `inst`: either a bare matrix or
    {"payments": matrix} of the problem's shape."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise MalformedProblemError("", f"invalid JSON: {exc}") from exc
    payments = data.get("payments") if isinstance(data, dict) else data
    try:
        mat = np.asarray(payments, float)
    except (TypeError, ValueError) as exc:
        raise MalformedProblemError("/payments", "must be a numeric matrix") from exc
    if mat.ndim != 2:
        raise MalformedProblemError("/payments", "must be a 2-d matrix")
    if not np.all(np.isfinite(mat)):
        raise MalformedProblemError("/payments", "entries must be finite")
    if mat.shape != inst.output.shape:
        raise MalformedProblemError(
            "/payments", f"shape {mat.shape} does not match the problem "
                         f"({inst.output.shape})")
    return Contract(mat)


def fmt17(value) -> str:
    """Shortest decimal form that still round-trips a float (17 sig digits)."""
    return format(float(value), ".17g")


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, arrays flattened to lossless floats."""
    return json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        return float(fmt17(obj))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    return obj


def write_matrix_csv(path, matrix, decisions, states):
    """Echo a (decision, state) matrix as CSV rows decision,state,value."""
    mat = np.asarray(matrix, float)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["decision", "state", "value"])
        for i, d in enumerate(decisions):
            for j, s in enumerate(states):
                writer.writerow([d, s, fmt17(mat[i, j])])
    return path
