import csv
import filecmp

import numpy as np
import pytest

from infocontracts import (Contract, DegeneratePriorError, EnvelopeCurve,
                           PosteriorSeparableCost, ProblemInstance,
                           ShannonCost, best_response_capacity,
                           best_response_shannon, concavify, default_grid,
                           emit_figure_data, entropy, net_utility_curve,
                           posterior_matrix, reduced_form, reduced_form_curve,
                           second_best_solve)

FIG1_CONTRACT = Contract([[0.0, 2.0], [1.0, 1.0]])
FIG1_PRIOR = 0.45


def fig1_instance():
    return ProblemInstance(("d1", "d2"), ("t1", "t2"), [[0.0, 2.0], [1.0, 1.0]],
                           [0.55, 0.45], 10.0, ShannonCost())


def test_reduced_form_low_posterior_prefers_flat_decision():
    value, ties = reduced_form(FIG1_CONTRACT, 0.25)
    assert value == 1.0
    assert ties == (1,)


def test_reduced_form_high_posterior():
    value, ties = reduced_form(FIG1_CONTRACT, 0.75)
    assert abs(value - 1.5) < 1e-12
    assert ties == (0,)


def test_reduced_form_constant_contract_all_tied():
    value, ties = reduced_form(Contract([[1.0, 1.0], [1.0, 1.0]]), 0.3)
    assert value == 1.0
    assert ties == (0, 1)


def test_reduced_form_vector_posterior():
    value, ties = reduced_form(FIG1_CONTRACT, np.array([0.5, 0.5]))
    assert abs(value - 1.0) < 1e-12
    assert ties == (0, 1)


def test_concavify_binary_example_contacts():
    curve = net_utility_curve(FIG1_CONTRACT, ShannonCost())
    conc = concavify(curve, FIG1_PRIOR)
    assert len(conc.contacts) == 2
    assert abs(conc.contacts[0] - 0.268941) < 2e-4
    assert abs(conc.contacts[1] - 0.731059) < 2e-4
    # tangent line at the prior carries the agent's value plus Upsilon(prior)
    pi = np.array([1 - FIG1_PRIOR, FIG1_PRIOR])
    sol = best_response_shannon(FIG1_CONTRACT, pi)
    assert abs(conc.value - (sol.value + entropy(pi))) < 1e-4


def test_concavify_concave_curve_single_contact():
    grid = default_grid(501)
    vals = -(grid - 0.4) ** 2
    conc = concavify(EnvelopeCurve(grid, vals, np.zeros(len(grid), dtype=int)), 0.37)
    assert len(conc.contacts) == 1
    assert conc.contacts[0] == 0.37
    assert np.max(np.abs(conc.envelope - vals)) < 1e-12


def _oracle_envelope(x, y):
    """O(n^2) pairwise-chord upper concave envelope, evaluated on the grid."""
    n = len(x)
    env = y.copy()
    for i in range(n):
        for j in range(i + 1, n):
            slope = (y[j] - y[i]) / (x[j] - x[i])
            seg = y[i] + slope * (x[i:j + 1] - x[i])
            env[i:j + 1] = np.maximum(env[i:j + 1], seg)
    return env


def test_concavify_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(40, 120))
        grid = np.sort(rng.uniform(0.01, 0.99, size=n))
        grid[0], grid[-1] = 0.01, 0.99
        grid = np.unique(grid)
        kinks = np.interp(grid, [0.01, rng.uniform(0.2, 0.8), 0.99],
                          rng.normal(0, 1, 3))
        vals = kinks + rng.uniform(0.5, 3.0) * np.array(
            [entropy(np.array([1 - q, q])) for q in grid])
        vals += rng.normal(0, 0.3, len(grid))
        curve = EnvelopeCurve(grid, vals, np.zeros(len(grid), dtype=int))
        conc = concavify(curve, float(rng.uniform(grid[0], grid[-1])))
        oracle = _oracle_envelope(grid, vals)
        assert np.max(np.abs(conc.envelope - oracle)) < 1e-10


def test_envelope_properties():
    rng = np.random.default_rng(1)
    curve = net_utility_curve(Contract(rng.uniform(0, 2, (3, 2))), ShannonCost(),
                              grid=default_grid(2001))
    conc = concavify(curve, 0.4)
    # dominates the curve and is concave on the grid
    assert np.all(conc.envelope >= curve.values - 1e-12)
    mids = 0.5 * (conc.envelope[:-2] + conc.envelope[2:])
    assert np.all(conc.envelope[1:-1] >= mids - 1e-12)
    # touches the curve at the contacts
    for q, w in zip(conc.contacts, conc.weights):
        idx = np.argmin(np.abs(curve.grid - q))
        assert abs(np.interp(q, curve.grid, conc.envelope)
                   - np.interp(q, curve.grid, curve.values)) < 1e-8 or len(conc.contacts) == 1
    # mixing weights average the contacts back to the prior
    assert np.all(conc.weights >= 0) and abs(conc.weights.sum() - 1) < 1e-12
    assert abs(float(conc.weights @ conc.contacts) - 0.4) < 1e-10


def test_envelope_idempotent():
    curve = net_utility_curve(FIG1_CONTRACT, ShannonCost(), grid=default_grid(1001))
    conc1 = concavify(curve, 0.45)
    curve2 = EnvelopeCurve(curve.grid, conc1.envelope, curve.pieces)
    conc2 = concavify(curve2, 0.45)
    assert np.max(np.abs(conc2.envelope - conc1.envelope)) < 1e-12


def test_envelope_affine_invariance():
    grid = default_grid(801)
    base = np.array([entropy(np.array([1 - q, q])) for q in grid])
    base += np.maximum(1 - 3 * grid, 2 * grid - 1)
    affine = 0.7 * grid - 0.3
    c1 = concavify(EnvelopeCurve(grid, base, np.zeros(len(grid), int)), 0.5)
    c2 = concavify(EnvelopeCurve(grid, base + affine, np.zeros(len(grid), int)), 0.5)
    assert np.max(np.abs((c2.envelope - c1.envelope) - affine)) < 1e-10


def test_concavify_prior_outside_grid_raises():
    curve = reduced_form_curve(FIG1_CONTRACT, default_grid(101))
    with pytest.raises(DegeneratePriorError):
        concavify(curve, 1.0 - 1e-9)


def test_emit_figure_data_schema_and_contacts(tmp_path):
    inst = fig1_instance()
    path = emit_figure_data(inst, FIG1_CONTRACT, tmp_path, "example")
    assert path.endswith("fig_example.csv")
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["q", "B", "upsilon", "net", "envelope", "decision",
                       "is_contact"]
    contacts = [float(r[0]) for r in rows[1:] if r[6] == "1"]
    assert len(contacts) == 2
    assert abs(contacts[0] - 0.268941) < 2e-4
    assert abs(contacts[1] - 0.731059) < 2e-4
    # the prior appears as a grid row
    assert any(abs(float(r[0]) - 0.45) < 1e-12 for r in rows[1:])


def test_emit_figure_data_deterministic(tmp_path):
    inst = fig1_instance()
    p1 = emit_figure_data(inst, FIG1_CONTRACT, tmp_path / "a", "d")
    p2 = emit_figure_data(inst, FIG1_CONTRACT, tmp_path / "b", "d")
    assert filecmp.cmp(p1, p2, shallow=False)


def test_binding_capacity_pulls_contacts_toward_prior(tmp_path):
    inst = fig1_instance()
    pi = inst.prior
    cap = best_response_capacity(FIG1_CONTRACT, pi, 0.05, inst.cost_model)
    assert cap.mu > 0
    free_conc = concavify(net_utility_curve(FIG1_CONTRACT, inst.cost_model), FIG1_PRIOR)
    tight_conc = concavify(net_utility_curve(FIG1_CONTRACT, inst.cost_model,
                                             mu=cap.mu), FIG1_PRIOR)
    spread_free = max(abs(q - FIG1_PRIOR) for q in free_conc.contacts)
    spread_tight = max(abs(q - FIG1_PRIOR) for q in tight_conc.contacts)
    assert spread_tight < spread_free
    # and the constrained contacts match the constrained best response
    post = np.sort(posterior_matrix(cap.experiment, pi)[:, 1])
    assert np.max(np.abs(np.sort(tight_conc.contacts) - post)) < 1e-3


def test_optimal_contract_chords_coincide(example):
    # at the optimum the expected-payment chord and the expected-output
    # chord through the contact posteriors have the same slope
    sol = second_best_solve(example, 0.0, 1.0)
    pi = example.prior
    post = posterior_matrix(sol.experiment, pi)[:, 1]
    beta = sol.decomposition.beta

    def chord(payments):
        pts = []
        for d, q in enumerate(post):
            qv = np.array([1 - q, q])
            pts.append((q, float(payments[d] @ qv)))
        (q1, v1), (q2, v2) = sorted(pts)
        return (v2 - v1) / (q2 - q1)

    slope_pay = chord(sol.contract.payments)
    slope_out = chord(example.output - beta[None, :])
    assert abs(slope_pay - slope_out) < 0.02


@pytest.mark.parametrize("model", [
    ShannonCost(1.3),
    PosteriorSeparableCost({"grid": [[q, 2.0 * q * (1.0 - q)] for q in np.linspace(0, 1, 21)]}),
])
def test_net_utility_curve_matches_pointwise_upsilon(model):
    # one call on the whole grid replaced a call per grid point
    grid = default_grid(501)
    curve = net_utility_curve(FIG1_CONTRACT, model, grid=grid, mu=0.4)
    loop = np.array([model.upsilon(np.array([1.0 - q, q])) for q in grid])
    base = reduced_form_curve(FIG1_CONTRACT, grid)
    assert np.array_equal(curve.values, base.values + 1.4 * loop)
