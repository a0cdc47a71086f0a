import numpy as np
import pytest

from infocontracts import (BoundaryPointError, BregmanMatrixCost, Experiment,
                           Garbling, PosteriorSeparableCost, ShannonCost,
                           check_blackwell_monotone, cost_grad_hess,
                           cost_shannon, cost_value, entropy,
                           inverse_fisher_matrix, posterior_matrix)
from conftest import random_experiment, random_prior

PI = np.array([2.0 / 3.0, 1.0 / 3.0])
# unconstrained optimum for the worked example (posteriors 0.007/0.993)
FIRST_BEST = np.array([[0.0033123, 0.9865726], [0.9966877, 0.0134274]])
# published optimum for the truncated contract max{0, y - beta}
TRUNCATED = np.array([[0.211, 0.963], [0.789, 0.037]])


def test_uninformative_costs_nothing():
    p = Experiment.uninformative(2, 2)
    assert cost_shannon(p, PI) == 0.0


def test_first_best_cost_value():
    assert abs(cost_shannon(Experiment(FIRST_BEST), PI) - 0.596) < 0.005


def test_truncated_contract_cost_value():
    assert abs(cost_shannon(Experiment(TRUNCATED), PI) - 0.293) < 0.005


def test_shannon_cost_bounded_by_prior_entropy():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p = Experiment(random_experiment(rng, 3, 3))
        pi = random_prior(rng, 3)
        c = cost_shannon(p, pi)
        assert -1e-12 <= c <= entropy(pi) + 1e-12


def test_bregman_inverse_fisher_equals_shannon():
    rng = np.random.default_rng(1)
    shannon = ShannonCost()
    bregman = BregmanMatrixCost("inverse_fisher")
    for _ in range(25):
        n_d, n_s = rng.integers(2, 5), rng.integers(2, 4)
        p = Experiment(random_experiment(rng, n_d, n_s))
        pi = random_prior(rng, n_s)
        assert abs(cost_value(shannon, p, pi) - cost_value(bregman, p, pi)) < 1e-8


def test_bregman_cost_zero_at_uninformative():
    pi = np.array([0.3, 0.7])
    p = Experiment.uninformative(3, 2)
    assert abs(cost_value(BregmanMatrixCost(), p, pi)) < 1e-14


def test_inverse_fisher_matrix_structure():
    rng = np.random.default_rng(4)
    for _ in range(10):
        q = random_prior(rng, 4)
        k = inverse_fisher_matrix(q)
        assert np.allclose(k, k.T, atol=1e-15)
        assert np.allclose(k.sum(axis=1), 0.0, atol=1e-15)
        assert np.min(np.linalg.eigvalsh(k)) > -1e-12


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
        ev = cost_grad_hess(model, p, pi)
        fd = _fd_hessian_of_gradient(model, p, pi)
        assert np.max(np.abs(ev.hessian - fd)) < 1e-5


def test_generic_upsilon_derivatives_match_shannon():
    # the named-entropy posterior-separable model must agree with the
    # analytic Shannon Hessian (gradients agree up to per-state constants)
    rng = np.random.default_rng(3)
    generic = PosteriorSeparableCost("entropy")
    shannon = ShannonCost()
    p = Experiment(random_experiment(rng, 2, 2, interior=0.3))
    pi = random_prior(rng, 2, low=0.3)
    eg = cost_grad_hess(generic, p, pi)
    es = cost_grad_hess(shannon, p, pi)
    assert abs(eg.value - es.value) < 1e-12
    centered_g = eg.gradient - eg.gradient.mean(axis=0, keepdims=True)
    centered_s = es.gradient - es.gradient.mean(axis=0, keepdims=True)
    assert np.max(np.abs(centered_g - centered_s)) < 1e-7
    assert np.max(np.abs(eg.hessian - es.hessian)) < 1e-4


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
    w = check_blackwell_monotone(model, p, Garbling(np.eye(3)), pi)
    assert w.monotone and abs(w.cost_before - w.cost_after) < 1e-12
    total = Garbling(np.tile([0.1, 0.4, 0.5], (3, 1)))
    w = check_blackwell_monotone(model, p, total, pi)
    assert w.monotone and abs(w.cost_after) < 1e-12


def test_blackwell_monotone_randomized():
    rng = np.random.default_rng(8)
    model = ShannonCost()
    violations = 0
    for _ in range(1000):
        n_d = int(rng.integers(2, 4))
        n_s = int(rng.integers(2, 4))
        p = Experiment(random_experiment(rng, n_d, n_s))
        pi = random_prior(rng, n_s)
        g = Garbling(random_experiment(rng, n_d, n_d).T)
        w = check_blackwell_monotone(model, p, g, pi)
        violations += not w.monotone
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
        c_mix = cost_value(model, mixed, pi)
        c1 = cost_value(model, Experiment(p1), pi)
        c2 = cost_value(model, Experiment(p2), pi)
        assert c_mix <= t * c1 + (1 - t) * c2 + 1e-10


def test_mixture_posterior_identity():
    # the posterior of a mixture is the marginal-weighted mixture of posteriors
    rng = np.random.default_rng(10)
    from infocontracts import marginal, posterior

    for _ in range(20):
        p1 = Experiment(random_experiment(rng, 2, 3))
        p2 = Experiment(random_experiment(rng, 2, 3))
        pi = random_prior(rng, 3)
        t = rng.uniform()
        mix = Experiment(t * p1.conditionals + (1 - t) * p2.conditionals)
        m1, m2 = marginal(p1, pi), marginal(p2, pi)
        for d in range(2):
            w1 = t * m1[d] / (t * m1[d] + (1 - t) * m2[d])
            expected = w1 * posterior(p1, pi, d) + (1 - w1) * posterior(p2, pi, d)
            assert np.allclose(posterior(mix, pi, d), expected, atol=1e-12)


def test_gridded_upsilon_approximates_entropy():
    qs = np.linspace(0.0, 1.0, 2001)
    vals = [entropy(np.array([1 - q, q])) for q in qs]
    grid_model = PosteriorSeparableCost({"grid": np.column_stack([qs, vals]).tolist()})
    shannon = ShannonCost()
    rng = np.random.default_rng(11)
    for _ in range(10):
        p = Experiment(random_experiment(rng, 2, 2, interior=0.05))
        pi = random_prior(rng, 2)
        assert abs(cost_value(grid_model, p, pi)
                   - cost_value(shannon, p, pi)) < 5e-4


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


def test_upsilon_acts_on_arrays_of_posteriors():
    rng = np.random.default_rng(15)
    posts = rng.dirichlet(np.ones(2), size=(4, 5))
    for model in (ShannonCost(1.3), PosteriorSeparableCost(QUAD_TABLE)):
        loop = np.array([[model.upsilon(q) for q in row] for row in posts])
        assert np.array_equal(model.upsilon(posts), loop)
