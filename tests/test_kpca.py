"""Exact (Gram-route) and random-feature KPCA fits."""

import numpy as np
import pytest

from kpcalab import (
    DegenerateModel,
    DomainError,
    RankError,
    center_gram,
    embed_exact,
    embed_rf,
    eigenfunction_eval,
    fit_exact,
    fit_rf,
    fix_signs,
    gaussian_kernel,
    gram,
    make_finite_rank_kernel,
    op_aa,
    pop_rf_cov,
    sample_finite_rank,
    sym_eig,
    uniform_measure,
)

EXP_HALF = 0.6065306597126334


def _rank_setup(t_count=6, n_atoms=40, seed=8, n=30, sample_seed=15):
    measure = uniform_measure(n_atoms)
    lam = (1.0 + np.arange(t_count)) ** -2.0
    ker = make_finite_rank_kernel(measure, lam, seed)
    rng = np.random.default_rng(sample_seed)
    samples = rng.integers(0, n_atoms, size=n)
    return measure, ker, samples


def test_two_point_gaussian_closed_form():
    # K = [[1, b], [b, 1]]; the single component has eigenvalue (1-b)/2
    ker = gaussian_kernel(2.0)
    model = fit_exact(ker, np.array([0.0, 2.0]))
    assert model.rank == 1
    assert model.eigvals[0] == pytest.approx((1.0 - EXP_HALF) / 2.0, abs=1e-14)
    # dual vector is antisymmetric and sums to zero
    g = model.dual_coeffs[0]
    assert abs(g[0] + g[1]) < 1e-12


def test_dual_orthonormality_and_centering():
    ker = gaussian_kernel(1.1)
    pts = np.random.default_rng(3).standard_normal((24, 2))
    model = fit_exact(ker, pts)
    k = gram(ker, pts)
    g = model.dual_coeffs
    n = model.n
    prod = g @ k @ g.T / (n * model.eigvals)[:, None]
    assert np.max(np.abs(prod - np.eye(model.rank))) < 1e-8
    assert np.max(np.abs(g.sum(axis=1))) < 1e-10


def test_factor_route_matches_dense_gram_route():
    # default; heavy duplication (1000 samples on 40 atoms); n <= T, where
    # the rank is capped at n - 1
    for setup in ({}, {"t_count": 12, "n": 1000}, {"t_count": 12, "n": 9}):
        _check_against_dense_gram_route(*_rank_setup(**setup)[1:])


def _check_against_dense_gram_route(ker, samples):
    model = fit_exact(ker, samples)
    assert model.rank <= samples.shape[0] - 1
    # sign rule over the n samples: each largest-magnitude entry is positive
    lead = np.abs(model.dual_coeffs).argmax(axis=1)
    assert np.all(model.dual_coeffs[np.arange(model.rank), lead] > 0.0)
    # dense reference, assembled from scratch
    k = gram(ker, samples)
    n = samples.shape[0]
    kc = center_gram(k, np.full(n, 1.0 / n))
    spec = sym_eig(kc)
    lam_dense = spec.eigenvalues / n
    r = model.rank
    assert np.max(np.abs(model.eigvals - lam_dense[:r])) < 1e-10 * lam_dense[0]
    # same dual vectors after the shared normalization and sign rule
    for i in range(r):
        alpha = spec.eigenvectors[:, i]
        alpha = alpha - alpha.mean()
        alpha /= np.linalg.norm(alpha)
        gamma = alpha * np.sqrt(n * lam_dense[i] / float(alpha @ k @ alpha))
        if np.sign(gamma[np.argmax(np.abs(gamma))]) != np.sign(
                model.dual_coeffs[i, np.argmax(np.abs(gamma))]):
            gamma = -gamma
        assert np.max(np.abs(model.dual_coeffs[i] - gamma)) < 1e-8


def test_dual_coeffs_are_the_per_atom_coefficients_gathered_on_first_read():
    for setup in ({}, {"t_count": 12, "n": 1000}, {"t_count": 12, "n": 9}):
        measure, ker, samples = _rank_setup(**setup)
        model = fit_exact(ker, samples)
        assert model._dual_coeffs is None
        assert model.atom_coeffs.shape == (measure.size, model.rank)
        assert np.array_equal(model.counts, np.bincount(samples, minlength=measure.size))
        g = model.dual_coeffs
        assert g is model.dual_coeffs
        assert np.array_equal(g, model.atom_coeffs[samples].T)
        # the sign rule holds on the n samples: re-signing changes no bit
        assert np.array_equal(fix_signs(g.T), g.T)


def test_gram_route_matches_explicit_feature_covariance():
    measure, ker, samples = _rank_setup(t_count=5, n=26)
    model = fit_exact(ker, samples)
    # exact feature vectors nu(z) = sqrt(lambda) psi(z), covariance by hand
    nu = np.sqrt(ker.lambdas)[:, None] * ker.table.values[:, samples]
    nu_c = nu - nu.mean(axis=1, keepdims=True)
    cov = nu_c @ nu_c.T / samples.shape[0]
    ref = np.sort(np.linalg.eigvalsh(cov))[::-1]
    r = model.rank
    assert np.max(np.abs(model.eigvals - ref[:r])) < 1e-8 * ref[0]


def test_scores_match_classical_pca_of_exact_features():
    measure, ker, samples = _rank_setup(t_count=4, n=22)
    model = fit_exact(ker, samples)
    nu = (np.sqrt(ker.lambdas)[:, None] * ker.table.values[:, samples]).T
    nu_c = nu - nu.mean(axis=0)
    spec = sym_eig(nu_c.T @ nu_c / nu.shape[0])
    pca_scores = nu_c @ spec.eigenvectors[:, :model.rank]
    kpca_scores = embed_exact(model, ker, samples, model.rank)
    kpca_scores = kpca_scores - kpca_scores.mean(axis=0)
    for i in range(model.rank):
        diff = np.min([
            np.max(np.abs(kpca_scores[:, i] - pca_scores[:, i])),
            np.max(np.abs(kpca_scores[:, i] + pca_scores[:, i])),
        ])
        assert diff < 1e-6


def test_training_score_variance_equals_eigenvalue():
    ker = gaussian_kernel(0.8)
    pts = np.random.default_rng(10).standard_normal((20, 3))
    model = fit_exact(ker, pts)
    scores = embed_exact(model, ker, pts, model.rank)
    centered = scores - scores.mean(axis=0)
    var = (centered**2).mean(axis=0)
    assert np.max(np.abs(var - model.eigvals)) < 1e-7


def test_eigenfunction_eval_and_embed_edges():
    measure, ker, samples = _rank_setup(t_count=3, n=12)
    model = fit_exact(ker, samples)
    f0 = eigenfunction_eval(model, ker, 0, measure.atoms)
    assert f0.shape == (measure.size,)
    assert np.allclose(f0, embed_exact(model, ker, measure.atoms, 1)[:, 0])
    assert embed_exact(model, ker, samples, 0).shape == (12, 0)
    with pytest.raises(RankError):
        eigenfunction_eval(model, ker, model.rank, samples)
    with pytest.raises(RankError):
        embed_exact(model, ker, samples, model.rank + 1)


def test_identical_points_are_degenerate():
    ker = gaussian_kernel(1.0)
    with pytest.raises(DegenerateModel):
        fit_exact(ker, np.zeros((5, 2)))
    _, rank_ker, _ = _rank_setup()
    with pytest.raises(DegenerateModel):
        fit_exact(rank_ker, np.full(50, 7))


@pytest.mark.parametrize("points", [[0, 1, 2, -1, 3], [0, 1, 40, 3], [0.0, 1.0, 2.0]],
                         ids=["negative", "past_last_atom", "float"])
def test_fit_exact_rejects_points_off_the_atoms(points):
    _, ker, _ = _rank_setup()
    with pytest.raises(DomainError):
        fit_exact(ker, np.array(points))


def test_large_sample_fit_keeps_the_gram_exactly_symmetric():
    # at this n a count-weighted product that is not X X' leaves the T x T
    # matrix asymmetric by about 1e-11, beyond sym_eig's absolute tolerance
    measure, ker, samples = _rank_setup(n=2**20)
    model = fit_exact(ker, samples)
    nu = np.sqrt(ker.lambdas)[:, None] * ker.table.values[:, samples]
    nu_c = nu - nu.mean(axis=1, keepdims=True)
    ref = np.sort(np.linalg.eigvalsh(nu_c @ nu_c.T / samples.shape[0]))[::-1]
    assert np.max(np.abs(model.eigvals - ref[:model.rank])) < 1e-10 * ref[0]
    g = model.dual_coeffs
    prod = (nu @ g.T).T @ (nu @ g.T) / (model.n * model.eigvals)[:, None]
    assert np.max(np.abs(prod - np.eye(model.rank))) < 1e-8


def test_rf_fit_matches_population_cov_on_full_support():
    # fitting on every atom of a uniform measure is the population fit
    measure, ker, _ = _rank_setup(t_count=5, n_atoms=18)
    fs = sample_finite_rank(ker, 9, seed=4, mixed=True)
    model = fit_rf(fs, measure.atoms)
    pop_cov = pop_rf_cov(fs, measure)
    ref = np.sort(np.linalg.eigvalsh(pop_cov))[::-1]
    assert np.max(np.abs(model.eigvals - ref[:model.rank])) < 1e-10


def test_rf_spectrum_agrees_with_feature_side_operator():
    # nonzero eigenvalues of the m x m population covariance equal those
    # of the N x N feature-side operator
    measure, ker, _ = _rank_setup(t_count=5, n_atoms=18)
    fs = sample_finite_rank(ker, 7, seed=6, mixed=True)
    cov_vals = np.sort(np.linalg.eigvalsh(pop_rf_cov(fs, measure)))[::-1]
    op_vals = op_aa(fs, measure).spectrum.eigenvalues
    k = min(len(cov_vals), len(op_vals))
    assert np.max(np.abs(cov_vals[:k] - op_vals[:k])) < 1e-9


def test_rf_centered_score_variance_and_edges():
    measure, ker, samples = _rank_setup(t_count=4, n=25)
    fs = sample_finite_rank(ker, 8, seed=12, mixed=True)
    model = fit_rf(fs, samples)
    scores = embed_rf(model, samples, model.rank, centered=True)
    var = (scores**2).mean(axis=0) - scores.mean(axis=0) ** 2
    assert np.max(np.abs(var - model.eigvals)) < 1e-8
    assert embed_rf(model, samples, 0).shape == (25, 0)
    with pytest.raises(RankError):
        embed_rf(model, samples, model.rank + 1)


def test_rf_fit_is_reproducible():
    measure, ker, samples = _rank_setup()
    fs = sample_finite_rank(ker, 10, seed=33, mixed=True)
    m1 = fit_rf(fs, samples)
    m2 = fit_rf(fs, samples)
    assert np.array_equal(m1.eigvals, m2.eigvals)
    assert np.array_equal(m1.components, m2.components)
