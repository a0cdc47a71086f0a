import csv
import filecmp
import pathlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    # the envelope at the prior is the agent's value plus Upsilon(prior)
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


# ---------------------------------------------------------------------------
# the vectorised figure export writes the bytes of the per-row loop


def _emit_figure_data_per_row(inst, b, out_dir, tag, mu=0.0, grid=None):
    """The per-row export that `emit_figure_data` replaced: one
    `reduced_form` and one `upsilon` call per row."""
    model = inst.cost_model
    curve = net_utility_curve(b, model, grid=grid, mu=mu)
    prior_q = float(inst.prior[1])
    conc = concavify(curve, prior_q)

    def fmt(v):
        return format(float(v), ".17g")

    def row(q, is_contact):
        bq, ties = reduced_form(b, q)
        ups = (1.0 + mu) * model.upsilon(np.array([1.0 - q, q]))
        env = float(np.interp(q, conc.grid, conc.envelope))
        return [fmt(q), fmt(bq), fmt(ups), fmt(bq + ups), fmt(env),
                inst.decisions[ties[0]], str(int(is_contact))]

    qs = [(float(q), 0) for q in curve.grid]
    qs.extend((float(c), 1) for c in conc.contacts)
    if not any(abs(q - prior_q) < 1e-15 for q, _ in qs):
        qs.append((prior_q, 0))
    qs.sort(key=lambda t: (t[0], -t[1]))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"fig_{tag}.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["q", "B", "upsilon", "net", "envelope", "decision", "is_contact"])
        seen = set()
        for q, flag in qs:
            if q in seen:
                continue
            seen.add(q)
            writer.writerow(row(q, flag))
    return str(path)


def _reproduce_figures():
    from infocontracts.reproduce import (BETA_PUBLISHED, LOGIT_EXAMPLE_CONTRACT,
                                         example_instance, logit_example_instance)
    inst = example_instance()
    shifted = Contract(inst.output - BETA_PUBLISHED[None, :])
    optimal = second_best_solve(inst, xi=0.0, alpha=1.0).contract
    return [(inst, shifted, "first_best"),
            (inst, Contract(np.maximum(shifted.payments, 0.0)), "truncated"),
            (inst, optimal, "optimal"),
            (logit_example_instance(), LOGIT_EXAMPLE_CONTRACT, "logit_example")]


def _same_bytes(tmp_path, inst, b, tag, **kw):
    new = emit_figure_data(inst, b, tmp_path / "new", tag, **kw)
    old = _emit_figure_data_per_row(inst, b, tmp_path / "old", tag, **kw)
    return filecmp.cmp(new, old, shallow=False)


def test_emit_figure_data_matches_per_row_export_on_reproduce_figures(tmp_path):
    for inst, b, tag in _reproduce_figures():
        assert _same_bytes(tmp_path, inst, b, tag), tag


TIED = ProblemInstance(("a", "b", "c"), ("t1", "t2"),
                       [[0.0, 2.0], [1.0, 1.0], [1.0, 1.0]], [0.55, 0.45], 10.0,
                       ShannonCost(0.7))


@pytest.mark.parametrize("mu, grid", [
    (0.0, None),
    (0.8, None),
    (0.3, np.linspace(0.01, 0.99, 97)),
    (1.5, np.concatenate([np.linspace(1e-4, 0.4, 40), [0.45], np.linspace(0.5, 0.9, 9)])),
])
def test_emit_figure_data_matches_per_row_export_with_ties(tmp_path, mu, grid):
    # decisions b and c are paid alike everywhere, and all three tie at q = 1/2
    b = Contract(TIED.output)
    assert _same_bytes(tmp_path, TIED, b, "tied", mu=mu, grid=grid)
    with open(tmp_path / "new" / "fig_tied.csv") as fh:
        rows = list(csv.reader(fh))[1:]
    half = [r for r in rows if float(r[0]) == 0.5]
    assert not half or half[0][5] == "a"
    assert {r[5] for r in rows} <= {"a", "b"}


def test_emit_figure_data_matches_per_row_export_under_a_table(tmp_path):
    table = PosteriorSeparableCost({"grid": [[q, 2.0 * q * (1.0 - q)]
                                             for q in np.linspace(0, 1, 21)]})
    inst = ProblemInstance(("d1", "d2"), ("t1", "t2"), [[0.0, 2.0], [1.0, 1.0]],
                           [0.55, 0.45], 10.0, table)
    assert _same_bytes(tmp_path, inst, FIG1_CONTRACT, "table", mu=0.4,
                       grid=np.linspace(0.02, 0.98, 49))


_LABELS = st.sampled_from(["d1", "a,b", 'say "hi"', "x\r\ny", ""]) | st.text(
    alphabet='ab,"\r\n ', max_size=4)


@st.composite
def _figure_cases(draw):
    n_d = draw(st.integers(2, 4))
    # half-integer payments make decisions tie on whole segments and at points
    payments = np.array(draw(st.lists(st.lists(st.integers(-4, 4), min_size=2, max_size=2),
                                      min_size=n_d, max_size=n_d)), float) / 2.0
    if draw(st.booleans()):
        payments[-1] = payments[0]
    labels = draw(st.lists(_LABELS, min_size=n_d, max_size=n_d, unique=True))
    prior = draw(st.floats(0.25, 0.75))
    if draw(st.booleans()):
        model = ShannonCost(draw(st.floats(0.2, 2.0)))
    else:
        model = PosteriorSeparableCost({"grid": [[q, 2.0 * q * (1.0 - q)]
                                                 for q in np.linspace(0, 1, 11)]})
    grid = np.linspace(draw(st.floats(1e-6, 0.2)), draw(st.floats(0.8, 1.0 - 1e-6)),
                       draw(st.integers(3, 150)))
    # the prior exactly (it may then be its own contact), a few ulps (within
    # 1e-15) from a grid point, or off the grid
    offset = draw(st.sampled_from([None, 0.0, 4e-16, -4e-16]))
    if offset is not None:
        grid = np.unique(np.append(grid, prior + offset))
    inst = ProblemInstance(labels, ("t1", "t2"), payments, [1.0 - prior, prior], 10.0, model)
    return inst, Contract(payments), draw(st.floats(0.0, 2.0)), grid


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_figure_cases())
def test_emit_figure_data_writes_the_bytes_of_the_per_row_export(case):
    inst, b, mu, grid = case
    with tempfile.TemporaryDirectory() as tmp:
        assert _same_bytes(pathlib.Path(tmp), inst, b, "prop", mu=mu, grid=grid)
