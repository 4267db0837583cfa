"""Exact (Gram-route) and random-feature KPCA fits."""

import numpy as np
import pytest

from kpcalab import (
    ConfigError,
    DegenerateModel,
    DomainError,
    RankError,
    center_gram,
    embed_exact,
    embed_rf,
    feature_matrix,
    fit_exact,
    fit_rf,
    fix_signs,
    gram,
    make_finite_rank_kernel,
    op_aa,
    sample_finite_rank,
    sym_eig,
    uniform_measure,
)


def _rank_setup(t_count=6, n_atoms=40, seed=8, n=30, sample_seed=15):
    measure = uniform_measure(n_atoms)
    lam = (1.0 + np.arange(t_count)) ** -2.0
    ker = make_finite_rank_kernel(measure, lam, seed)
    rng = np.random.default_rng(sample_seed)
    samples = rng.integers(0, n_atoms, size=n)
    return measure, ker, samples


def test_dual_orthonormality_and_centering():
    _, ker, pts = _rank_setup(n=24, sample_seed=3)
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


def test_dual_coeffs_are_built_from_the_basis_vectors_on_first_read():
    for setup in ({}, {"t_count": 12, "n": 1000}, {"t_count": 12, "n": 9}):
        _, ker, samples = _rank_setup(**setup)
        model = fit_exact(ker, samples)
        assert "dual_coeffs" not in vars(model)
        assert model.basis_vectors.shape == (ker.lambdas.size, model.rank)
        g = model.dual_coeffs
        assert g is model.dual_coeffs
        assert g.shape == (model.rank, samples.size)
        # the sign rule holds on the n samples: re-signing changes no bit
        assert np.array_equal(fix_signs(g.T), g.T)


def _eager_atom_coeffs(kernel, samples):
    """Per-atom coefficients by a count-weighted route independent of the fit's:
    row a is what every sample at atom a carries in the dual vectors."""
    n = samples.shape[0]
    counts = np.bincount(samples, minlength=kernel.table.values.shape[1])
    root = np.sqrt(kernel.lambdas)[:, None] * kernel.table.values
    centred = root - (root @ counts / n)[:, None]
    w = centred * np.sqrt(counts)[None, :]
    small = sym_eig(w @ w.T)
    sigma = small.eigenvalues
    lam_hat = sigma / n
    r = min(int(np.sum(lam_hat > 1e-10 * lam_hat[0])), n - 1)
    alphas = (centred.T @ small.eigenvectors[:, :r]) / np.sqrt(sigma[:r])[None, :]
    alphas = alphas - (counts @ alphas / n)[None, :]
    alphas = alphas / np.sqrt(counts @ alphas**2)[None, :]
    k_quad = np.sum((root @ (counts[:, None] * alphas)) ** 2, axis=0)
    first = np.full(counts.shape[0], n)
    np.minimum.at(first, samples, np.arange(n))
    seen = samples[np.sort(first[counts > 0])]
    alphas[seen] = fix_signs(alphas[seen])
    return alphas * np.sqrt(n * lam_hat[:r].copy() / k_quad)


def test_dual_coeffs_equal_the_per_atom_coefficients_gathered_to_the_samples():
    for setup in ({}, {"t_count": 12, "n": 1000}, {"t_count": 12, "n": 9},
                  {"t_count": 24, "n_atoms": 128, "n": 4096}):
        _, ker, samples = _rank_setup(**setup)
        want = _eager_atom_coeffs(ker, samples)[samples].T
        got = fit_exact(ker, samples).dual_coeffs
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    kpca_scores = embed_exact(model, samples, model.rank)
    kpca_scores = kpca_scores - kpca_scores.mean(axis=0)
    for i in range(model.rank):
        diff = np.min([
            np.max(np.abs(kpca_scores[:, i] - pca_scores[:, i])),
            np.max(np.abs(kpca_scores[:, i] + pca_scores[:, i])),
        ])
        assert diff < 1e-6


def test_training_score_variance_equals_eigenvalue():
    _, ker, pts = _rank_setup(n=20, sample_seed=10)
    model = fit_exact(ker, pts)
    scores = embed_exact(model, pts, model.rank)
    centered = scores - scores.mean(axis=0)
    var = (centered**2).mean(axis=0)
    assert np.max(np.abs(var - model.eigvals)) < 1e-7


def test_embed_exact_columns_and_edges():
    measure, ker, samples = _rank_setup(t_count=3, n=12)
    model = fit_exact(ker, samples)
    full = embed_exact(model, measure.atoms, model.rank)
    assert full.shape == (measure.size, model.rank)
    for ell in range(1, model.rank + 1):  # column i is f_i, whatever ell takes it
        assert np.allclose(embed_exact(model, measure.atoms, ell), full[:, :ell])
    assert embed_exact(model, samples, 0).shape == (12, 0)
    with pytest.raises(ConfigError, match="must be >= 0"):
        embed_exact(model, samples, -1)
    with pytest.raises(RankError):
        embed_exact(model, samples, model.rank + 1)


def test_identical_points_are_degenerate():
    _, rank_ker, _ = _rank_setup()
    with pytest.raises(DegenerateModel, match="^fit_exact: no component above the noise floor$"):
        fit_exact(rank_ker, np.full(50, 7))
    fs = sample_finite_rank(rank_ker, 10, seed=33, mixed=True)
    with pytest.raises(DegenerateModel, match="^fit_rf: no component above the noise floor$"):
        fit_rf(fs, np.full(50, 7))


def test_a_stacked_fit_gives_a_one_atom_row_rank_zero():
    # the row fit_exact alone refuses is a rank-0 model in a stack, so a rate
    # grid can score it as an invalid cell; the other rows are untouched
    _, ker, _ = _rank_setup()
    stack = np.random.default_rng(22).integers(0, 40, size=(4, 30))
    stack[2] = 7
    models = fit_exact(ker, stack)
    assert models[2].rank == 0 and models[2].basis_vectors.shape == (6, 0)
    for row, got in zip(stack[[0, 1, 3]], [models[0], models[1], models[3]]):
        want = fit_exact(ker, row)
        assert want.rank > 0
        for name in ("train_points", "eigvals", "basis_vectors", "dual_coeffs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("points", [[0, 1, 2, -1, 3], [0, 1, 40, 3], [0.0, 1.0, 2.0]],
                         ids=["negative", "past_last_atom", "float"])
def test_fit_exact_rejects_points_off_the_atoms(points):
    _, ker, _ = _rank_setup()
    with pytest.raises(DomainError):
        fit_exact(ker, np.array(points))


@pytest.mark.parametrize("points", [[0, 1, 2, -1, 3], [0, 1, 40, 3], [0.0, 1.0, 2.0]],
                         ids=["negative", "past_last_atom", "float"])
def test_rf_fit_and_embed_reject_points_off_the_atoms(points):
    _, ker, samples = _rank_setup()
    fs = sample_finite_rank(ker, 10, seed=33, mixed=True)
    with pytest.raises(DomainError):
        fit_rf(fs, np.array(points))
    model = fit_rf(fs, samples)
    with pytest.raises(DomainError):
        embed_rf(model, np.array(points), 1)


def test_fit_exact_on_a_stack_equals_fitting_each_row_alone():
    measure, ker, _ = _rank_setup(n_atoms=40)
    rng = np.random.default_rng(21)
    stack = rng.integers(0, 40, size=(7, 30))
    stack[3, :] = stack[3, 0] % 5  # a row on 5 atoms retains a smaller rank
    stack[3, :5] = np.arange(5)
    models = fit_exact(ker, stack)
    assert isinstance(models, list) and len(models) == 7
    assert len({m.rank for m in models}) > 1
    for row, got in zip(stack, models):
        want = fit_exact(ker, row)
        for name in ("train_points", "eigvals", "basis_vectors", "dual_coeffs"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    # an out-of-range atom in any one row rejects the stack
    for bad in (-1, 40):
        off = stack.copy()
        off[5, 11] = bad
        with pytest.raises(DomainError):
            fit_exact(ker, off)


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
    ref = op_aa(fs, measure).eigenvalues
    assert np.max(np.abs(model.eigvals - ref[:model.rank])) < 1e-10


def test_rf_spectrum_agrees_with_feature_side_operator():
    # nonzero eigenvalues of the m x m population covariance equal those
    # of the N x N feature-side operator
    measure, ker, _ = _rank_setup(t_count=5, n_atoms=18)
    fs = sample_finite_rank(ker, 7, seed=6, mixed=True)
    f, w = feature_matrix(fs, measure.atoms), measure.weights
    cov = (f * w[:, None]).T @ f - np.outer(w @ f, w @ f)
    cov_vals = np.sort(np.linalg.eigvalsh((cov + cov.T) / 2.0))[::-1]
    op_vals = op_aa(fs, measure).spectrum.eigenvalues
    k = min(len(cov_vals), len(op_vals))
    assert np.max(np.abs(cov_vals[:k] - op_vals[:k])) < 1e-9


def test_rf_centered_score_variance_and_edges():
    measure, ker, samples = _rank_setup(t_count=4, n=25)
    fs = sample_finite_rank(ker, 8, seed=12, mixed=True)
    model = fit_rf(fs, samples)
    r = model.rank
    scores = embed_rf(model, samples, r) - model.mean @ model.components[:, :r]
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
