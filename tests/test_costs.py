import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from infocontracts import (BoundaryPointError, BregmanMatrixCost, Experiment,
                           PosteriorSeparableCost, ShannonCost, entropy,
                           posterior_matrix)
from conftest import garbled, random_experiment, random_prior, uninformative

PI = np.array([2.0 / 3.0, 1.0 / 3.0])
# unconstrained optimum for the worked example (posteriors 0.007/0.993)
FIRST_BEST = np.array([[0.0033123, 0.9865726], [0.9966877, 0.0134274]])
# published optimum for the truncated contract max{0, y - beta}
TRUNCATED = np.array([[0.211, 0.963], [0.789, 0.037]])


def test_uninformative_costs_nothing():
    p = uninformative(2, 2)
    assert ShannonCost().value(p, PI) == 0.0


@pytest.mark.parametrize("model", [ShannonCost(), BregmanMatrixCost(),
                                   PosteriorSeparableCost()])
@pytest.mark.parametrize("cond", [[[0.0, 0.0], [1.0, 1.0]], [[0.3, 0.3], [0.7, 0.7]]])
def test_uninformed_experiment_costs_exactly_zero(model, cond):
    # the posteriors equal the prior only up to rounding, which read 1.1e-16
    pi = np.array([0.4950720497714065, 0.5049279502285934])
    assert model.value(Experiment(cond), pi) == 0.0


def test_first_best_cost_value():
    assert abs(ShannonCost().value(Experiment(FIRST_BEST), PI) - 0.596) < 0.005


def test_truncated_contract_cost_value():
    assert abs(ShannonCost().value(Experiment(TRUNCATED), PI) - 0.293) < 0.005


def test_shannon_cost_bounded_by_prior_entropy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = Experiment(random_experiment(rng, 3, 3))
        pi = random_prior(rng, 3)
        c = ShannonCost().value(p, pi)
        assert -1e-12 <= c <= entropy(pi) + 1e-12


def test_bregman_inverse_fisher_equals_shannon():
    rng = np.random.default_rng(1)
    shannon = ShannonCost()
    bregman = BregmanMatrixCost("inverse_fisher")
    for _ in range(25):
        n_d, n_s = rng.integers(2, 5), rng.integers(2, 4)
        p = Experiment(random_experiment(rng, n_d, n_s))
        pi = random_prior(rng, n_s)
        assert abs(shannon.value(p, pi) - bregman.value(p, pi)) < 1e-8


def test_bregman_cost_zero_at_uninformative():
    pi = np.array([0.3, 0.7])
    p = uninformative(3, 2)
    assert abs(BregmanMatrixCost().value(p, pi)) < 1e-14


def _raw(cond):
    # bypass simplex validation: ambient finite differences probe gradients
    # slightly off the column simplexes
    exp = Experiment.__new__(Experiment)
    object.__setattr__(exp, "conditionals", cond)
    return exp


def _fd_hessian_of_gradient(model, p, pi, h=1e-5):
    cond = p.conditionals
    n = cond.size
    out = np.empty((n, n))
    for j in range(n):
        d, s = divmod(j, cond.shape[1])
        up = cond.copy()
        dn = cond.copy()
        up[d, s] += h
        dn[d, s] -= h
        g_up = model.gradient(_raw(up), pi)
        g_dn = model.gradient(_raw(dn), pi)
        out[:, j] = ((g_up - g_dn) / (2 * h)).ravel()
    return out


@pytest.mark.parametrize("model", [ShannonCost(), ShannonCost(scale=1.7),
                                   BregmanMatrixCost("inverse_fisher")])
def test_hessian_matches_finite_differences(model):
    rng = np.random.default_rng(2)
    for _ in range(5):
        p = Experiment(random_experiment(rng, 2, 2, interior=0.3))
        pi = random_prior(rng, 2, low=0.3)
        fd = _fd_hessian_of_gradient(model, p, pi)
        assert np.max(np.abs(model.hessian(p, pi) - fd)) < 1e-5


def test_generic_upsilon_derivatives_match_shannon():
    # the named-entropy posterior-separable model must agree with the
    # analytic Shannon Hessian (gradients agree up to per-state constants)
    rng = np.random.default_rng(3)
    generic = PosteriorSeparableCost("entropy")
    shannon = ShannonCost()
    p = Experiment(random_experiment(rng, 2, 2, interior=0.3))
    pi = random_prior(rng, 2, low=0.3)
    assert abs(generic.value(p, pi) - shannon.value(p, pi)) < 1e-12
    g_g, g_s = generic.gradient(p, pi), shannon.gradient(p, pi)
    centered_g = g_g - g_g.mean(axis=0, keepdims=True)
    centered_s = g_s - g_s.mean(axis=0, keepdims=True)
    assert np.max(np.abs(centered_g - centered_s)) < 1e-7
    assert np.max(np.abs(generic.hessian(p, pi) - shannon.hessian(p, pi))) < 1e-4


def test_hessian_block_diagonal_across_decisions():
    rng = np.random.default_rng(5)
    model = BregmanMatrixCost("inverse_fisher")
    p = Experiment(random_experiment(rng, 3, 2, interior=0.2))
    pi = random_prior(rng, 2, low=0.3)
    h = model.hessian(p, pi)
    n_s = 2
    for d1 in range(3):
        for d2 in range(3):
            if d1 != d2:
                block = h[d1 * n_s:(d1 + 1) * n_s, d2 * n_s:(d2 + 1) * n_s]
                assert np.all(block == 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(2, 5), st.integers(2, 4), st.integers(0, 2**32 - 1),
       st.floats(-3.0, 3.0), st.floats(0.0, 12.0))
def test_hessian_annihilates_the_experiment(n_d, n_s, seed, log_scale, spread):
    # each decision's cost is homogeneous of degree 1 in its row (Euler):
    # H p = 0, which drops xi out of the optimal distortion
    rng = np.random.default_rng(seed)
    cond = np.exp(rng.uniform(-spread, 0.0, size=(n_d, n_s)))
    p = Experiment(cond / cond.sum(axis=0))
    pi = random_prior(rng, n_s)
    h = ShannonCost(10.0 ** log_scale).hessian(p, pi)
    size = np.max(np.abs(h)) * np.max(p.conditionals)
    assert np.max(np.abs(h @ p.conditionals.ravel())) <= 1e-12 * size


def test_hessian_symmetric_and_psd():
    rng = np.random.default_rng(6)
    model = ShannonCost()
    for _ in range(10):
        p = Experiment(random_experiment(rng, 3, 3, interior=0.1))
        pi = random_prior(rng, 3)
        h = model.hessian(p, pi)
        assert np.allclose(h, h.T, atol=1e-10)
        assert np.min(np.linalg.eigvalsh(h)) > -1e-10


def test_boundary_point_raises():
    p = Experiment([[1.0, 0.5], [0.0, 0.5]])
    with pytest.raises(BoundaryPointError):
        ShannonCost().gradient(p, PI)
    with pytest.raises(BoundaryPointError):
        PosteriorSeparableCost("entropy").hessian(p, PI)


def test_blackwell_witness_identity_and_total():
    rng = np.random.default_rng(7)
    p = Experiment(random_experiment(rng, 3, 2))
    pi = random_prior(rng, 2)
    model = ShannonCost()
    before = model.value(p, pi)
    assert abs(model.value(garbled(p, np.eye(3)), pi) - before) < 1e-12
    total = np.tile([0.1, 0.4, 0.5], (3, 1))
    assert abs(model.value(garbled(p, total), pi)) < 1e-12 < before


def test_blackwell_monotone_randomized():
    rng = np.random.default_rng(8)
    model = ShannonCost()
    violations = 0
    for _ in range(1000):
        n_d = int(rng.integers(2, 4))
        n_s = int(rng.integers(2, 4))
        p = Experiment(random_experiment(rng, n_d, n_s))
        pi = random_prior(rng, n_s)
        g = random_experiment(rng, n_d, n_d).T
        violations += model.value(garbled(p, g), pi) > model.value(p, pi) + 1e-10
    assert violations == 0


@pytest.mark.parametrize("model", [ShannonCost(),
                                   BregmanMatrixCost("inverse_fisher"),
                                   PosteriorSeparableCost("entropy")])
def test_cost_convexity(model):
    rng = np.random.default_rng(9)
    for _ in range(333):
        p1 = random_experiment(rng, 2, 2)
        p2 = random_experiment(rng, 2, 2)
        pi = random_prior(rng, 2)
        t = rng.uniform()
        mixed = Experiment(t * p1 + (1 - t) * p2)
        c_mix = model.value(mixed, pi)
        c1 = model.value(Experiment(p1), pi)
        c2 = model.value(Experiment(p2), pi)
        assert c_mix <= t * c1 + (1 - t) * c2 + 1e-10


def test_mixture_posterior_identity():
    # the posterior of a mixture is the marginal-weighted mixture of posteriors
    rng = np.random.default_rng(10)
    from infocontracts import marginal

    for _ in range(20):
        p1 = Experiment(random_experiment(rng, 2, 3))
        p2 = Experiment(random_experiment(rng, 2, 3))
        pi = random_prior(rng, 3)
        t = rng.uniform()
        mix = Experiment(t * p1.conditionals + (1 - t) * p2.conditionals)
        m1, m2 = marginal(p1, pi), marginal(p2, pi)
        w1 = (t * m1 / (t * m1 + (1 - t) * m2))[:, None]
        expected = w1 * posterior_matrix(p1, pi) + (1 - w1) * posterior_matrix(p2, pi)
        assert np.allclose(posterior_matrix(mix, pi), expected, atol=1e-12)


def test_gridded_upsilon_approximates_entropy():
    qs = np.linspace(0.0, 1.0, 2001)
    vals = [entropy(np.array([1 - q, q])) for q in qs]
    grid_model = PosteriorSeparableCost({"grid": np.column_stack([qs, vals]).tolist()})
    shannon = ShannonCost()
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = Experiment(random_experiment(rng, 2, 2, interior=0.05))
        pi = random_prior(rng, 2)
        assert abs(grid_model.value(p, pi)
                   - shannon.value(p, pi)) < 5e-4


def test_gridded_upsilon_requires_two_states():
    model = PosteriorSeparableCost({"grid": [[0.0, 0.0], [0.5, 0.7], [1.0, 0.0]]})
    with pytest.raises(ValueError):
        model.upsilon(np.array([0.2, 0.3, 0.5]))


def test_scaled_models():
    rng = np.random.default_rng(12)
    p = Experiment(random_experiment(rng, 2, 2))
    pi = random_prior(rng, 2)
    for model in (ShannonCost(), BregmanMatrixCost(), PosteriorSeparableCost()):
        assert abs(model.scaled(2.5).value(p, pi) - 2.5 * model.value(p, pi)) < 1e-12


# ---------------------------------------------------------------------------
# one cost core: the analytic derivatives of both kinds of uncertainty
# function against finite differences, which live only here

QUAD_TABLE = {"grid": [[q, 2.0 * q * (1.0 - q)] for q in np.linspace(0.0, 1.0, 11)]}


def _fd_gradient_of_value(model, p, pi, h=1e-6):
    cond = p.conditionals
    out = np.empty_like(cond)
    for d in range(cond.shape[0]):
        for s in range(cond.shape[1]):
            up = cond.copy()
            dn = cond.copy()
            up[d, s] += h
            dn[d, s] -= h
            out[d, s] = (model.value(_raw(up), pi) - model.value(_raw(dn), pi)) / (2 * h)
    return out


def _away_from_knots(model, p, pi, room=1e-3):
    # a table's derivatives jump at its knots, where differences straddle two
    # segments; posteriors here hold the second state's probability
    post = posterior_matrix(p, pi)[:, 1]
    knots = np.asarray(model.spec["grid"])[:, 0]
    return np.min(np.abs(post[:, None] - knots[None, :])) > room


@pytest.mark.parametrize("model, n_s", [(ShannonCost(scale=1.7), 2),
                                        (PosteriorSeparableCost("entropy"), 4),
                                        (PosteriorSeparableCost(QUAD_TABLE, scale=0.6), 2)])
def test_analytic_derivatives_match_finite_differences(model, n_s):
    rng = np.random.default_rng(13)
    checked = 0
    for _ in range(40):
        p = Experiment(random_experiment(rng, 3, n_s, interior=0.2))
        pi = random_prior(rng, n_s, low=0.3)
        if model.logit_scale is None and not _away_from_knots(model, p, pi):
            continue
        grad = model.gradient(p, pi)
        fd = _fd_gradient_of_value(model, p, pi)
        # the gradient is defined up to a per-state constant
        assert np.max(np.abs((grad - grad[0]) - (fd - fd[0]))) < 1e-7
        assert np.max(np.abs(model.hessian(p, pi) - _fd_hessian_of_gradient(model, p, pi))) < 1e-5
        checked += 1
    assert checked >= 10


def test_table_hessian_vanishes_and_entropy_is_exact():
    rng = np.random.default_rng(14)
    p = Experiment(random_experiment(rng, 3, 2, interior=0.2))
    pi = random_prior(rng, 2, low=0.3)
    assert np.all(PosteriorSeparableCost(QUAD_TABLE).hessian(p, pi) == 0.0)
    # the three constructors of the entropy cost give one model
    ref = ShannonCost()
    for model in (BregmanMatrixCost(), PosteriorSeparableCost("entropy")):
        assert model.value(p, pi) == ref.value(p, pi)
        assert np.array_equal(model.gradient(p, pi), ref.gradient(p, pi))
        assert np.array_equal(model.hessian(p, pi), ref.hessian(p, pi))


def test_logit_scale_only_for_the_entropy():
    assert ShannonCost(2.0).logit_scale == 2.0
    assert BregmanMatrixCost(scale=0.5).logit_scale == 0.5
    assert PosteriorSeparableCost("entropy").scaled(3.0).logit_scale == 3.0
    assert PosteriorSeparableCost(QUAD_TABLE).logit_scale is None
    with pytest.raises(ValueError):
        BregmanMatrixCost("mystery")
    with pytest.raises(ValueError):
        PosteriorSeparableCost({"grid": [[0.5, 0.1], [0.5, 0.2]]})


@pytest.mark.parametrize("grid", [
    # a dip: the experiment splitting q = 0.5 into 0 and 1 cost -1
    [[0.0, 0.0], [0.5, -1.0], [1.0, 0.0]],
    # flat beyond its ends, so convex at q = 0.25 and concave at 0.75
    [[0.25, 0.0], [0.75, 1.0]],
    [[0.0, 0.0], [0.5, float("nan")], [1.0, 0.0]],
    [[0.0, 0.0], [0.5, float("inf")], [1.0, 0.0]],
])
def test_a_table_not_concave_on_the_unit_interval_is_refused(grid):
    # the agent once served such tables on a second route, and returned
    # experiments that a feasible experiment beat
    with pytest.raises(ValueError):
        PosteriorSeparableCost({"grid": grid})


def test_a_table_concave_up_to_rounding_is_accepted():
    # affine tables on knots that include 0 and 1: their values round, so
    # that some knots fall below their chords by an ulp or two
    rng = np.random.default_rng(30)
    for _ in range(2000):
        inner = rng.choice(np.arange(1, 64), size=rng.integers(0, 11), replace=False)
        knots = np.union1d([0, 64], inner) / 64.0
        slope, offset = rng.uniform(-1e3, 1e3, size=2)
        PosteriorSeparableCost({"grid": np.column_stack([knots, offset + slope * knots]).tolist()})
    # tables that stop short of 0 or 1 are concave when flat beyond their
    # ends: falling from a left end short of 0, rising to a right one short of 1
    PosteriorSeparableCost({"grid": [[0.25, 1.0], [0.5, 0.75], [1.0, 0.0]]})
    PosteriorSeparableCost({"grid": [[0.0, 0.0], [0.5, 0.75], [0.75, 1.0]]})
    PosteriorSeparableCost({"grid": [[-1.0, -1.0], [0.5, 0.5], [2.0, -1.0]]})
    # a constant subnormal table: its chords' products underflow to 0
    PosteriorSeparableCost({"grid": [[0.0, -5e-324], [0.015625, -5e-324], [0.03125, -5e-324]]})


def test_upsilon_acts_on_arrays_of_posteriors():
    rng = np.random.default_rng(15)
    posts = rng.dirichlet(np.ones(2), size=(4, 5))
    for model in (ShannonCost(1.3), PosteriorSeparableCost(QUAD_TABLE)):
        loop = np.array([[model.upsilon(q) for q in row] for row in posts])
        assert np.array_equal(model.upsilon(posts), loop)
