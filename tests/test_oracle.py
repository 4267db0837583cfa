"""Population operators and exactly computable error metrics."""

import binascii

import numpy as np
import pytest

import kpcalab.cli
import kpcalab.measures
import kpcalab.oracle
from kpcalab import (
    InvalidInput,
    ProjectionLike,
    Spectrum,
    center_gram,
    discrete_measure,
    draw_samples,
    fit_exact,
    fit_rf,
    gram,
    kernel_eval,
    make_finite_rank_kernel,
    op_aa,
    op_jj,
    oracle_snapshot,
    proj_distance,
    proj_hat,
    proj_hat_rf,
    proj_pop,
    recon_error,
    sample_finite_rank,
    tail_energy,
    uniform_measure,
)


def _setup(t_count=6, n_atoms=30, seed=8):
    measure = uniform_measure(n_atoms)
    lam = (1.0 + np.arange(t_count)) ** -2.0
    return measure, make_finite_rank_kernel(measure, lam, seed)


def test_operator_trace_matches_hand_computed_centering():
    measure, ker = _setup(t_count=4, n_atoms=12)
    w = measure.weights
    atoms = measure.atoms
    # trace(S) = sum_j w_j kbar(z_j, z_j) with kbar expanded by hand
    kmat = np.array([[kernel_eval(ker, a, b) for b in atoms] for a in atoms])
    mean_rows = kmat @ w
    mean_all = float(w @ kmat @ w)
    trace = sum(
        w[j] * (kmat[j, j] - 2.0 * mean_rows[j] + mean_all) for j in range(12)
    )
    s = op_jj(ker, measure)
    assert np.trace(s.matrix) == pytest.approx(trace, abs=1e-12)
    assert s.hs_norm == pytest.approx(np.linalg.norm(s.matrix), rel=1e-10)


def test_hs_norm_does_not_depend_on_blas_threads():
    # np.linalg.norm's BLAS dot rounds differently on one and two OpenBLAS
    # threads for a good share of 128x128 matrices; hs_norm must not, on a
    # square factor or on thin ones, whose F'F is r x r.
    blas = kpcalab.cli._openblas()
    if blas is None:
        pytest.skip("numpy does not ship OpenBLAS here")
    get, put = blas
    original = get()
    rng = np.random.default_rng(20260819)
    ops = [kpcalab.oracle.PopOperator(rng.standard_normal((128, r)))
           for r in (128,) * 40 + (24, 60, 96) * 10]
    try:
        norms = {}
        for count in (1, 2):
            put(count)
            norms[count] = [op.hs_norm for op in ops]
            for op in ops:
                del op.__dict__["hs_norm"]
    finally:
        put(original)
    assert norms[1] == norms[2]
    exact = [float(np.sqrt(np.sum(op.matrix ** 2, dtype=np.longdouble))) for op in ops]
    assert norms[1] == pytest.approx(exact, rel=1e-15)


@pytest.mark.parametrize("n_atoms, t_count", [(192, 60), (128, 24), (96, 48)])
def test_eigenvalues_from_the_factor_match_the_full_spectrum(n_atoms, t_count):
    measure, ker = _setup(t_count=t_count, n_atoms=n_atoms, seed=n_atoms + t_count)
    pop = op_jj(ker, measure)
    assert pop.factor.shape == (n_atoms, t_count)
    vals = pop.eigenvalues
    assert "spectrum" not in vars(pop)
    assert vals.shape == (n_atoms,) and np.all(vals[t_count:] == 0.0)
    full = pop.spectrum.eigenvalues
    assert np.max(np.abs(vals - full)) <= 1e-13 * full[0]
    assert tail_energy(vals, 5) == pytest.approx(tail_energy(pop.spectrum.eigenvalues, 5),
                                                 rel=1e-12)
    # on a reweighted half of the atoms the basis is no longer centred, and
    # at (96, 48) T reaches the atom count
    weights = np.random.default_rng(n_atoms).uniform(0.5, 1.5, n_atoms // 2)
    half = op_jj(ker, discrete_measure(measure.atoms[::2], weights))
    full = half.spectrum.eigenvalues
    assert np.max(np.abs(half.eigenvalues - full)) <= 1e-13 * full[0]


def test_eigenvalues_of_a_square_factor_reuse_the_spectrum():
    # 20 features on 15 atoms give an S_A factor with r >= N, so its
    # eigenvalues are the spectrum's own
    measure, ker = _setup(t_count=6, n_atoms=15, seed=4)
    pop = op_aa(sample_finite_rank(ker, 20, seed=4, mixed=True), measure)
    assert pop.factor.shape == (15, 20)
    assert pop.eigenvalues is pop.spectrum.eigenvalues
    assert recon_error(pop, proj_pop(pop, 3)) == pytest.approx(
        tail_energy(pop.eigenvalues, 3), rel=1e-10)


def test_matrix_from_the_factor_matches_the_centred_gram():
    # S_J = W^1/2 (I - 1 w') K (I - w 1') W^1/2 by center_gram, over reweighted atoms
    rng = np.random.default_rng(31)
    _, ker = _setup(t_count=24, n_atoms=128)
    measure = discrete_measure(np.arange(128), rng.uniform(0.5, 1.5, 128))
    root_w = np.sqrt(measure.weights)
    want = root_w[:, None] * center_gram(gram(ker, measure.atoms), measure.weights) * root_w
    pop = op_jj(ker, measure)
    assert np.linalg.norm(pop.matrix - want) <= 1e-13 * np.linalg.norm(want)
    assert pop.hs_norm == pytest.approx(np.linalg.norm(want), rel=1e-13)


def test_tail_energy_geometric_closed_form():
    lam = 2.0 ** -(1.0 + np.arange(40))
    spec = Spectrum(eigenvalues=lam, eigenvectors=np.eye(40))
    # sum_{i >= 2} 4^{-i} = 1/12, truncation is below 1e-24
    assert tail_energy(spec.eigenvalues, 1) == pytest.approx(1.0 / 12.0, abs=1e-15)
    assert tail_energy(spec.eigenvalues, 0) == pytest.approx(np.sum(lam**2), rel=1e-14)
    assert tail_energy(spec.eigenvalues, 40) == 0.0
    with pytest.raises(InvalidInput):
        tail_energy(spec.eigenvalues, -1)


def test_population_reconstruction_equals_tail_energy():
    measure, ker = _setup()
    pop = op_jj(ker, measure)
    for ell in (1, 2, 4):
        r = recon_error(pop, proj_pop(pop, ell))
        t = tail_energy(pop.spectrum.eigenvalues, ell)
        assert abs(r - t) <= 1e-10 * t


def test_rank_one_projector_angle_closed_form():
    # projectors onto unit vectors at 30 degrees are sin(30 deg) = 1/2 apart
    u = np.array([1.0, 0.0])
    ang = np.pi / 6.0
    v = np.array([np.cos(ang), np.sin(ang)])
    p = ProjectionLike(matrix=np.outer(u, u), orthogonal=True)
    q = ProjectionLike(matrix=np.outer(v, v), orthogonal=True)
    assert proj_distance(p, q) == pytest.approx(0.5, abs=1e-12)


def test_orthogonal_projection_like_is_validated():
    with pytest.raises(InvalidInput):
        ProjectionLike(matrix=np.array([[0.5, 0.0], [0.0, 0.0]]), orthogonal=True)
    ProjectionLike(matrix=np.array([[0.5, 0.0], [0.0, 0.0]]), orthogonal=False)


def test_empirical_projector_with_full_support_is_population():
    # fitting on the entire atom set makes the plug-in exactly population
    measure, ker = _setup(t_count=5, n_atoms=20)
    pop = op_jj(ker, measure)
    model = fit_exact(ker, measure.atoms)
    for ell in (1, 3):
        p = proj_pop(pop, ell)
        q = proj_hat(model, measure, ell)
        assert proj_distance(p, q) < 1e-8
        assert recon_error(pop, q) == pytest.approx(
            tail_energy(pop.spectrum.eigenvalues, ell), abs=1e-10)


def test_rf_projector_with_exact_features_and_full_support():
    # deterministic quadrature features plus full support: double coincidence
    measure, ker = _setup(t_count=5, n_atoms=20)
    pop = op_jj(ker, measure)
    fs = sample_finite_rank(ker, 5, seed=3, deterministic=True, mixed=True)
    model = fit_rf(fs, measure.atoms)
    q = proj_hat_rf(model, measure, 2)
    assert proj_distance(proj_pop(pop, 2), q) < 1e-8


def test_feature_operator_converges_in_m(monkeypatch):
    measure, ker = _setup(t_count=4, n_atoms=16)
    pop = op_jj(ker, measure)
    calls = []
    real = kpcalab.oracle.sym_eig
    monkeypatch.setattr(kpcalab.oracle, "sym_eig", lambda a: calls.append(1) or real(a))
    devs = []
    for m in (8, 128, 2048):
        fs = sample_finite_rank(ker, m, seed=41, mixed=True)
        devs.append(np.linalg.norm(op_aa(fs, measure).matrix - pop.matrix))
    assert devs[2] < devs[1] < devs[0]
    assert devs[2] < 0.1 * devs[0]
    # operators used only as matrices are never decomposed; a read
    # decomposes once and the spectrum is kept
    assert calls == []
    s_a = op_aa(fs, measure)
    assert s_a.spectrum is s_a.spectrum
    assert len(calls) == 1


def test_draw_samples_frequencies_and_degenerate_weights():
    measure = uniform_measure(4)
    idx = draw_samples(measure, 40_000, seed=7)
    counts = np.bincount(idx, minlength=4)
    sd = np.sqrt(40_000 * 0.25 * 0.75)
    assert np.max(np.abs(counts - 10_000)) < 4.0 * sd
    # a (1, 0, 0) weight vector prunes to a point mass
    point = discrete_measure(np.arange(3), np.array([1.0, 0.0, 0.0]))
    assert point.size == 1
    assert np.all(draw_samples(point, 50, seed=1) == 0)


def test_draw_samples_reproducible():
    measure = uniform_measure(10)
    assert np.array_equal(draw_samples(measure, 25, seed=3),
                          draw_samples(measure, 25, seed=3))
    assert not np.array_equal(draw_samples(measure, 25, seed=3),
                              draw_samples(measure, 25, seed=4))


def _choice_draw(measure, n, seed):
    """The reference draw: Generator.choice on the Philox key draw_samples uses."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    return measure.atoms[rng.choice(measure.size, size=n, p=measure.weights)]


_DRAW_MEASURES = {
    "uniform": uniform_measure(192),
    # u >= 0.99 starts at atom 0 and needs up to 191 steps: the binary-search
    # fallback finishes those samples
    "point_heavy": discrete_measure(np.arange(192), np.r_[0.99, np.full(191, 0.01 / 191)]),
    "random_skew": discrete_measure(
        np.arange(192), np.random.default_rng(4).random(192) ** 6),
    "pruned": discrete_measure(np.array([10, 20, 30, 40, 50]),
                               np.array([0.2, 0.0, 0.5, 0.0, 0.3])),
    "vectors": discrete_measure(np.random.default_rng(5).standard_normal((7, 3)),
                                np.arange(1.0, 8.0)),
    "single": discrete_measure(np.array([3]), np.array([1.0])),
}


@pytest.mark.parametrize("name", list(_DRAW_MEASURES))
@pytest.mark.parametrize("n", [1, 4096, 5793])
def test_draw_samples_equals_generator_choice(name, n):
    measure = _DRAW_MEASURES[name]
    for seed in (0, 7, 2**100 + 3):
        got = draw_samples(measure, n, seed)
        assert np.array_equal(got, _choice_draw(measure, n, seed))
        assert got.shape == (n,) + measure.atoms.shape[1:]


def test_draw_samples_fallback_alone_equals_generator_choice(monkeypatch):
    heavy = _DRAW_MEASURES["point_heavy"]
    assert np.any(draw_samples(heavy, 4096, 7) > kpcalab.measures._GUIDE_STEPS)
    monkeypatch.setattr(kpcalab.measures, "_GUIDE_STEPS", 0)
    for measure in _DRAW_MEASURES.values():
        assert np.array_equal(draw_samples(measure, 999, 11), _choice_draw(measure, 999, 11))


def test_snapshot_structure():
    measure, ker = _setup(t_count=3, n_atoms=9)
    snap = oracle_snapshot(ker, measure, op_jj(ker, measure), seed=5)
    assert snap["seed"] == 5
    assert len(snap["atoms"]) == 9 and len(snap["weights"]) == 9
    spec = snap["population_spectrum"]
    assert len(spec) == 9
    assert all(a >= b - 1e-15 for a, b in zip(spec, spec[1:]))
    assert snap["kernel"]["kind"] == "finite_rank"
    assert len(snap["kernel"]["lambdas"]) == 3
    packed = binascii.a2b_base64(snap["kernel"]["basis_values_f64le_b64"])
    table = np.frombuffer(packed, "<f8").reshape(snap["kernel"]["basis_shape"])
    assert table.shape == (3, 9)
    assert table.tobytes() == ker.table.values.tobytes()
    assert spec[3:] == [0.0] * 6
