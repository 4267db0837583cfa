"""Kernel construction, Gram assembly, and weighted centering."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kpcalab.cli
import kpcalab.kernels
from kpcalab import (
    CapacityError,
    DiscreteMeasure,
    DomainError,
    FunctionTable,
    InvalidInput,
    Kernel,
    NumericFailure,
    center_gram,
    cross_gram,
    derive_seed,
    discrete_measure,
    generator,
    gram,
    kernel_eval,
    make_finite_rank_kernel,
    op_jj,
    uniform_measure,
)
from kpcalab.linalg import RANK_RTOL

# exp(-1/2), an off-diagonal kernel value in (0, 1)
EXP_HALF = 0.6065306597126334


@pytest.mark.parametrize("lambdas", [[1.0, np.nan], [np.nan, 0.5], [np.inf, 1.0],
                                     [1.0, -np.inf], [0.5, 1.0]])
def test_finite_rank_kernel_rejects_bad_lambdas(lambdas):
    with pytest.raises(InvalidInput, match="lambdas"):
        make_finite_rank_kernel(uniform_measure(5), np.array(lambdas), seed=1)


@pytest.mark.parametrize("weights", [[np.nan, 0.5, 0.5], [0.5, np.nan, 0.5],
                                     [np.inf, 0.5, 0.5], [-np.inf, 1.0, 1.0]])
def test_measure_rejects_non_finite_weights(weights):
    with pytest.raises(InvalidInput, match="weights"):
        DiscreteMeasure(np.arange(3), np.array(weights))


def test_finite_rank_root_is_the_read_only_gram_factor():
    measure = uniform_measure(12)
    ker = make_finite_rank_kernel(measure, (1.0 + np.arange(4)) ** -2.0, seed=3)
    assert ker.root is ker.root and ker.root.shape == (4, 12)
    assert not ker.root.flags.writeable
    assert np.max(np.abs(ker.root.T @ ker.root - gram(ker, measure.atoms))) <= 1e-14


def test_gram_matches_pairwise_eval_and_kappa_is_derived():
    # a kernel built by hand from a table and lambdas derives kappa from them
    built = make_finite_rank_kernel(uniform_measure(9), (1.0 + np.arange(4)) ** -1.5, seed=5)
    ker = Kernel(built.table, built.lambdas)
    pts = np.random.default_rng(5).integers(0, 9, size=7)
    k = gram(ker, pts)
    for i in range(7):
        for j in range(7):
            assert k[i, j] == pytest.approx(kernel_eval(ker, pts[i], pts[j]), abs=1e-12)
    assert np.allclose(cross_gram(ker, pts, pts), k, atol=1e-12)
    assert ker.kappa == pytest.approx(max(kernel_eval(ker, a, a) for a in range(9)), rel=1e-14)


def test_two_point_centering_closed_form():
    # uniform centering of [[1, b], [b, 1]] is ((1-b)/2) [[1, -1], [-1, 1]]
    b = EXP_HALF
    k = np.array([[1.0, b], [b, 1.0]])
    kc = center_gram(k, np.array([0.5, 0.5]))
    want = ((1.0 - b) / 2.0) * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert np.max(np.abs(kc - want)) < 1e-15


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_center_gram_equals_explicit_projection(seed, n):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((n, n + 2))
    k = g @ g.T
    h = np.eye(n) - np.ones((n, n)) / n
    want = h @ k @ h
    got = center_gram(k, np.full(n, 1.0 / n))
    assert np.max(np.abs(got - want)) < 1e-10 * (1.0 + np.abs(k).max())


def test_center_gram_weighted_mean_is_zero_and_idempotent():
    rng = np.random.default_rng(11)
    g = rng.standard_normal((6, 6))
    k = g @ g.T
    w = rng.uniform(0.5, 2.0, size=6)
    w /= w.sum()
    kc = center_gram(k, w)
    assert np.max(np.abs(kc @ w)) < 1e-12
    assert np.max(np.abs(center_gram(kc, w) - kc)) < 1e-12


def test_center_gram_input_checks():
    with pytest.raises(InvalidInput):
        center_gram(np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([0.5, 0.5]))
    with pytest.raises(InvalidInput):
        center_gram(np.eye(2), np.array([0.7, 0.7]))  # weights sum to 1.4
    with pytest.raises(InvalidInput):
        center_gram(np.eye(3), np.array([0.5, 0.5]))


def _table_kernel(n_atoms=24, t_count=6, seed=3, decay=2.0):
    measure = uniform_measure(n_atoms)
    lambdas = (1.0 + np.arange(t_count)) ** -decay
    return measure, make_finite_rank_kernel(measure, lambdas, seed)


def test_function_table_rejects_non_orthonormal_rows():
    measure = uniform_measure(5)
    bad = np.ones((2, 5))
    with pytest.raises(InvalidInput):
        FunctionTable(measure=measure, values=bad)


def test_builder_table_is_weighted_orthonormal_and_centered():
    measure, ker = _table_kernel()
    vals = ker.table.values
    w = measure.weights
    prod = (vals * w[None, :]) @ vals.T
    assert np.max(np.abs(prod - np.eye(vals.shape[0]))) < 1e-10
    assert np.max(np.abs(vals @ w)) < 1e-10  # orthogonal to constants


def test_population_spectrum_is_exactly_the_schedule():
    # dual route: the operator built from gram+centering must have the
    # lambdas the table was constructed for
    measure, ker = _table_kernel(n_atoms=32, t_count=8)
    lam = (1.0 + np.arange(8)) ** -2.0
    vals = op_jj(ker, measure).spectrum.eigenvalues
    assert np.max(np.abs(vals[:8] - lam)) < 1e-9 * lam[0]
    assert np.max(np.abs(vals[8:])) < 1e-9 * lam[0]


def test_finite_rank_gram_is_psd_and_kappa_is_max_diag():
    measure, ker = _table_kernel()
    k = gram(ker, measure.atoms)
    assert np.min(np.linalg.eigvalsh(k)) > -1e-10
    assert ker.kappa == pytest.approx(np.max(np.diag(k)), rel=1e-12)
    assert np.allclose(cross_gram(ker, measure.atoms, measure.atoms), k, atol=1e-12)


def test_finite_rank_capacity_error():
    measure = uniform_measure(6)
    with pytest.raises(CapacityError):
        make_finite_rank_kernel(measure, np.array([1.0, 0.5, 0.25, 0.12, 0.06, 0.03]), 0)


def test_finite_rank_needs_descending_positive_lambdas():
    measure = uniform_measure(10)
    with pytest.raises(InvalidInput):
        make_finite_rank_kernel(measure, np.array([0.5, 1.0]), 0)
    with pytest.raises(InvalidInput):
        make_finite_rank_kernel(measure, np.array([1.0, 0.0]), 0)
    with pytest.raises(InvalidInput):
        make_finite_rank_kernel(measure, np.array([]), 0)


def test_index_point_domain_errors():
    _, ker = _table_kernel(n_atoms=8, t_count=3)
    with pytest.raises(DomainError):
        kernel_eval(ker, 0.5, 1)  # non-integer point
    with pytest.raises(DomainError):
        kernel_eval(ker, 0, 8)  # out of range
    with pytest.raises(DomainError):
        gram(ker, np.array([-1, 0]))
    with pytest.raises(DomainError):
        kernel_eval(ker, [1, 2], 3)  # one pair of points, not a list
    assert kernel_eval(ker, np.array([1]), 3) == kernel_eval(ker, 1, 3)


def test_kernel_builder_is_deterministic():
    m1, k1 = _table_kernel(seed=derive_seed(9, "kernel"))
    m2, k2 = _table_kernel(seed=derive_seed(9, "kernel"))
    assert np.array_equal(k1.table.values, k2.table.values)
    m3, k3 = _table_kernel(seed=derive_seed(10, "kernel"))
    assert not np.array_equal(k1.table.values, k3.table.values)


def test_nonuniform_measure_spectrum():
    # spectral exactness holds for non-uniform weights too
    rng = np.random.default_rng(2)
    w = rng.uniform(0.5, 1.5, size=20)
    measure = discrete_measure(np.arange(20), w)
    lam = np.array([1.0, 0.3, 0.09])
    ker = make_finite_rank_kernel(measure, lam, 4)
    vals = op_jj(ker, measure).spectrum.eigenvalues
    assert np.max(np.abs(vals[:3] - lam)) < 1e-9


def test_permuted_atoms_weight_each_position_by_its_own_atom():
    # weights[i] belongs to atoms[i]: a rolled labelling of a non-uniform
    # measure must still give S_J the schedule as its spectrum
    w = np.random.default_rng(2).uniform(0.5, 1.5, size=12)
    measure = discrete_measure(np.roll(np.arange(12), 3), w)
    lam = np.array([1.0, 0.5, 0.25])
    ker = make_finite_rank_kernel(measure, lam, 4)
    vals = op_jj(ker, measure).eigenvalues
    assert np.max(np.abs(vals - np.pad(lam, (0, 9)))) <= 1e-12
    FunctionTable(measure=measure, values=ker.table.values)
    # atoms that are labels, not positions, have no place in the basis table
    labelled = discrete_measure(10 * (1 + np.arange(12)), w)
    with pytest.raises(InvalidInput, match="permutation"):
        make_finite_rank_kernel(labelled, lam, 4)
    with pytest.raises(InvalidInput, match="permutation"):
        FunctionTable(measure=labelled, values=ker.table.values)


def _row_by_row_table(measure, count, seed):
    """The builder's basis by row-by-row modified Gram-Schmidt, the reference its QR matches."""
    w, n_atoms = measure.weights, measure.size
    rng = generator(seed, "finite-rank-basis")
    rows, ones = np.empty((count, n_atoms)), np.ones(n_atoms)
    for t in range(count):
        while True:
            v = rng.standard_normal(n_atoms)
            for _ in range(2):
                v = v - (w @ v) * ones
                for s in range(t):
                    v = v - (w @ (v * rows[s])) * rows[s]
            norm = float(np.sqrt(w @ (v * v)))
            if norm >= 1e-10:
                rows[t] = v / norm
                break
    return rows


def _weighted_measure(n_atoms):
    return discrete_measure(np.arange(n_atoms), np.random.default_rng(7).uniform(0.2, 3.0, n_atoms))


@pytest.mark.parametrize("measure, count", [
    (uniform_measure(192), 60), (uniform_measure(128), 24), (uniform_measure(96), 48),
    (_weighted_measure(80), 30),
], ids=["192x60", "128x24", "96x48", "weighted_80x30"])
def test_positive_diagonal_qr_matches_the_row_by_row_loop(measure, count):
    seed = derive_seed(20260819, "kernel")
    table = make_finite_rank_kernel(measure, (1.0 + np.arange(count)) ** -2.0, seed).table.values
    assert np.max(np.abs(table - _row_by_row_table(measure, count, seed))) <= 1e-13


class _Draws:
    """Stands in for the builder's generator: returns the given (T, N) block."""

    def __init__(self, block):
        self.block = block

    def standard_normal(self, size):
        assert size == self.block.shape
        return self.block


def test_builder_raises_on_a_draw_in_the_span_of_earlier_rows(monkeypatch):
    measure, count = _weighted_measure(40), 6
    block = np.random.default_rng(11).standard_normal((count, 40))
    block[2] = 3.0 + 2.0 * block[0] - block[1]  # in span{1, rows 0 and 1}
    monkeypatch.setattr(kpcalab.kernels, "generator", lambda *_: _Draws(block))
    with pytest.raises(NumericFailure, match="broke down on row 2 "):
        make_finite_rank_kernel(measure, (1.0 + np.arange(count)) ** -1.0, 0)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 64).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, n - 1) | st.just(n - 1), st.integers(0, 2**32 - 1))))
def test_builder_table_is_orthonormal_and_s_j_has_the_schedule(case):
    n_atoms, count, seed = case
    weights = np.random.default_rng(seed).uniform(0.05, 3.0, n_atoms)
    measure = discrete_measure(np.arange(n_atoms), weights)
    lam = (1.0 + np.arange(count)) ** -1.5
    ker = make_finite_rank_kernel(measure, lam, seed)
    vals, w = ker.table.values, measure.weights
    assert np.max(np.abs((vals * w) @ vals.T - np.eye(count))) <= 1e-12
    assert np.max(np.abs(vals @ w)) <= 1e-12
    spectrum = op_jj(ker, measure).eigenvalues
    assert np.max(np.abs(spectrum - np.pad(lam, (0, n_atoms - count)))) <= RANK_RTOL * lam[0]


def test_builder_table_does_not_depend_on_blas_threads():
    blas = kpcalab.cli._openblas()
    if blas is None:
        pytest.skip("numpy does not ship OpenBLAS here")
    get, put = blas
    original = get()
    cases = [(192, 60, 3), (512, 200, 4), (300, 120, 5)]
    try:
        tables = {}
        for threads in (1, 2):
            put(threads)
            tables[threads] = [make_finite_rank_kernel(
                uniform_measure(atoms), (1.0 + np.arange(rank)) ** -2.0, seed).table.values
                for atoms, rank, seed in cases]
    finally:
        put(original)
    for one, two in zip(tables[1], tables[2]):
        assert np.array_equal(one, two)
