"""Eigensolver wrapper tests, including an independent bisection oracle.

The oracle computes eigenvalues by Sylvester inertia counts and interval
bisection, so it shares no code path with the LAPACK-backed solver the
package wraps.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpcalab import (
    ConfigError,
    EigengapError,
    InvalidInput,
    NotPositiveSemidefinite,
    NumericFailure,
    RankError,
    Spectrum,
    eigengaps,
    fix_signs,
    fractional_power,
    matrix_norm,
    spectral_projector,
    sym_eig,
)
from kpcalab.linalg import _positive_qr


def _rand_sym(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    return (g + g.T) / 2.0


def _rand_psd(seed, dim):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim))
    m = g @ g.T / dim
    return (m + m.T) / 2.0


def _count_eigs_below(a, t):
    """Eigenvalues of a strictly below t, by the inertia of a - t I.

    Symmetric Gaussian elimination; Sylvester's law of inertia says the
    number of negative pivots equals the number of negative eigenvalues.
    """
    m = a - t * np.eye(a.shape[0])
    m = m.astype(float).copy()
    neg = 0
    for k in range(m.shape[0]):
        piv = m[k, k]
        if piv == 0.0:
            piv = -1e-300
        if piv < 0.0:
            neg += 1
        rest = m[k + 1:, k]
        if rest.size:
            m[k + 1:, k + 1:] -= np.outer(rest, rest) / piv
    return neg


def _bisect_eig(a, i):
    """i-th largest eigenvalue (0-indexed) located by interval bisection."""
    n = a.shape[0]
    radius = float(np.max(np.sum(np.abs(a), axis=1))) + 1.0
    lo, hi = -radius, radius
    for _ in range(120):
        mid = 0.5 * (lo + hi)
        if _count_eigs_below(a, mid) >= n - i:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("seed,dim", [(0, 4), (1, 5), (2, 6), (3, 7), (4, 6)])
def test_eigenvalues_match_bisection_oracle(seed, dim):
    a = _rand_sym(seed, dim)
    spec = sym_eig(a)
    scale = max(1.0, float(np.abs(spec.eigenvalues).max()))
    for i in range(dim):
        assert abs(spec.eigenvalues[i] - _bisect_eig(a, i)) < 1e-9 * scale


def test_known_2x2_eigenvalues():
    spec = sym_eig(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(spec.eigenvalues, [3.0, 1.0], atol=1e-14)
    # eigenvector of 3 is (1,1)/sqrt(2); both entries positive under the
    # sign convention
    assert np.allclose(np.abs(spec.eigenvectors[:, 0]), 1 / np.sqrt(2), atol=1e-14)
    assert spec.eigenvectors[0, 0] > 0 and spec.eigenvectors[1, 0] > 0


def test_sign_convention_tie_takes_first_index():
    # exact magnitude ties resolve on the lowest index
    tied = np.array([[0.5, -0.5], [-0.5, -0.5]])
    fixed = fix_signs(tied)
    assert fixed[0, 0] == 0.5 and fixed[1, 0] == -0.5  # already positive first
    assert fixed[0, 1] == 0.5 and fixed[1, 1] == 0.5  # flipped
    # eigenvectors of [[0,1],[1,0]] are (1,1) and (1,-1) over sqrt(2); the
    # sign rule guarantees the largest-magnitude entry comes out positive
    spec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(spec.eigenvalues, [1.0, -1.0], atol=1e-14)
    for j in (0, 1):
        col = spec.eigenvectors[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_fix_signs_is_idempotent_and_flips_to_positive():
    v = np.array([[0.1, -0.9], [-0.8, -0.3]])
    fixed = fix_signs(v.copy())
    assert fixed[1, 0] > 0  # largest magnitude entry of column 0
    assert fixed[0, 1] > 0
    assert np.array_equal(fix_signs(fixed.copy()), fixed)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 10_000), st.integers(2, 9))
def test_sym_eig_reconstructs_and_is_orthonormal(seed, dim):
    a = _rand_sym(seed, dim)
    spec = sym_eig(a)
    vals, vecs = spec.eigenvalues, spec.eigenvectors
    assert np.all(np.diff(vals) <= 1e-12)
    hs = float(np.linalg.norm(a))
    assert np.max(np.abs((vecs * vals) @ vecs.T - a)) <= 1e-8 * (1.0 + hs)
    assert np.max(np.abs(vecs.T @ vecs - np.eye(dim))) <= 1e-9
    for j in range(dim):
        col = vecs[:, j]
        assert col[np.argmax(np.abs(col))] > 0.0


def test_sym_eig_rejects_asymmetric_and_nan():
    with pytest.raises(InvalidInput):
        sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(InvalidInput):
        sym_eig(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    with pytest.raises(InvalidInput):
        sym_eig(np.ones((2, 3)))


def test_matrix_norms_on_diagonal(monkeypatch):
    a = np.diag([3.0, -4.0])
    assert matrix_norm(a, "operator") == pytest.approx(4.0, abs=1e-14)
    assert matrix_norm(a, "hilbert_schmidt") == pytest.approx(5.0, abs=1e-14)
    assert matrix_norm(a, "trace") == pytest.approx(7.0, abs=1e-14)
    with pytest.raises(InvalidInput):
        matrix_norm(a, "nuclear")

    def no_convergence(m):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    for kind in ("operator", "trace", ("hilbert_schmidt", "trace")):
        with pytest.raises(NumericFailure):
            matrix_norm(a, kind)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_matrix_norms_agree_with_svd(seed, dim):
    a = _rand_sym(seed, dim)
    sv = np.linalg.svd(a, compute_uv=False)
    assert matrix_norm(a, "operator") == pytest.approx(sv[0], rel=1e-10)
    assert matrix_norm(a, "trace") == pytest.approx(sv.sum(), rel=1e-10)
    assert matrix_norm(a, "hilbert_schmidt") == pytest.approx(
        np.linalg.norm(a), rel=1e-10)
    # and the full-eigendecomposition route, to working precision
    vals = np.abs(sym_eig(a).eigenvalues)
    for kind, ref in (("operator", vals.max()), ("trace", vals.sum()),
                      ("hilbert_schmidt", np.sqrt(np.sum(vals**2)))):
        assert matrix_norm(a, kind) == pytest.approx(ref, rel=1e-12)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000), st.integers(2, 8))
def test_fractional_power_half_squares_back(seed, dim):
    a = _rand_psd(seed, dim)
    root = fractional_power(a, 0.5)
    assert np.max(np.abs(root @ root - a)) <= 1e-8 * (1.0 + np.linalg.norm(a))
    assert np.max(np.abs(fractional_power(a, 1.0) - a)) <= 1e-10
    assert np.max(np.abs(fractional_power(a, 2.0) - a @ a)) <= 1e-8
    spec = sym_eig(a)
    for t in (0.25, 0.5, 1.5):
        assert np.array_equal(fractional_power(spec, t), fractional_power(a, t))


def test_fractional_power_rejects_negative_definite():
    with pytest.raises(NotPositiveSemidefinite):
        fractional_power(np.diag([1.0, -0.5]), 0.5)
    # tiny negative eigenvalues from roundoff are clamped, not rejected
    a = np.diag([1.0, -1e-14])
    root = fractional_power(a, 0.5)
    assert root[1, 1] == 0.0


def test_spectral_projector_properties():
    a = _rand_psd(7, 6)
    spec = sym_eig(a)
    for ell in (1, 2, 4):
        p = spectral_projector(spec, ell)
        assert np.max(np.abs(p - p.T)) < 1e-12
        assert np.max(np.abs(p @ p - p)) < 1e-10
        assert np.trace(p) == pytest.approx(ell, abs=1e-10)
        lead = spec.eigenvectors[:, :ell]
        assert np.max(np.abs(p @ lead - lead)) < 1e-10


def test_spectral_projector_rank_and_gap_errors():
    one = np.outer([1.0, 2.0], [1.0, 2.0])
    with pytest.raises(RankError):
        spectral_projector(sym_eig(one), 2)  # numerical rank is 1
    with pytest.raises(EigengapError):
        spectral_projector(sym_eig(np.eye(3)), 1)  # tied eigenvalues
    with pytest.raises(InvalidInput):
        spectral_projector(sym_eig(one), 0)


def test_eigengaps_are_half_gaps():
    spec = Spectrum(eigenvalues=np.array([5.0, 3.0, 2.0]), eigenvectors=np.eye(3))
    assert np.allclose(eigengaps(spec), [1.0, 0.5])
    with pytest.raises(InvalidInput):
        eigengaps(Spectrum(eigenvalues=np.array([1.0]), eigenvectors=np.eye(1)))


def _psd_stack(dim=6):
    """PSD members with distinct, repeated and zero eigenvalues."""
    members = [_rand_psd(seed, dim) for seed in range(4)]
    members.append(np.diag([2.0, 2.0, 1.0, 0.5, 0.5, 0.25]))  # ties resolved by argsort
    q = np.linalg.qr(np.random.default_rng(5).standard_normal((dim, dim)))[0]
    members.append((q * [3.0, 1.0, 1.0, 1.0, 0.0, 0.0]) @ q.T)  # rank 4, a triple eigenvalue
    v = np.random.default_rng(6).standard_normal((dim, 2))
    members.append(v @ v.T)  # rank 2
    return np.stack([(m + m.T) / 2.0 for m in members])


def test_stacks_match_each_member_alone():
    stack = _psd_stack()
    spec = sym_eig(stack)
    assert spec.eigenvalues.shape == (7, 6) and spec.eigenvectors.shape == (7, 6, 6)
    powers = {t: (fractional_power(stack, t), fractional_power(spec, t)) for t in (0.25, 0.5, 2.0)}
    kinds = ("operator", "hilbert_schmidt", "trace")
    norms = {kind: matrix_norm(stack, kind) for kind in kinds}
    for kind, together in zip(kinds, matrix_norm(stack, kinds)):  # one eigensolve for all
        assert np.array_equal(together, norms[kind])
    # projectors on every sub-stack whose members each admit ell
    projectors = {}
    for ell in (1, 2, 3, 4):
        fit = [k for k, a in enumerate(stack) if _admits(sym_eig(a), ell)]
        projectors[ell] = fit, spectral_projector(spec[fit], ell)
        assert len(fit) >= 4
    for k, a in enumerate(stack):
        alone = sym_eig(a)
        assert np.array_equal(spec.eigenvalues[k], alone.eigenvalues)
        assert np.array_equal(spec.eigenvectors[k], alone.eigenvectors)
        assert np.array_equal(spec[k].eigenvectors, alone.eigenvectors)
        for ell, (fit, together) in projectors.items():
            if k in fit:
                assert np.array_equal(together[fit.index(k)], spectral_projector(alone, ell))
        for t, (from_matrix, from_spectrum) in powers.items():
            assert np.array_equal(from_matrix[k], fractional_power(a, t))
            assert np.array_equal(from_spectrum[k], fractional_power(alone, t))
        for kind, values in norms.items():
            assert isinstance(matrix_norm(a, kind), float)
            assert values[k] == matrix_norm(a, kind)
    # any number of leading axes
    nested = sym_eig(stack[:6].reshape(2, 3, 6, 6))
    assert np.array_equal(nested.eigenvectors[1, 2], spec.eigenvectors[5])
    assert matrix_norm(stack[:6].reshape(2, 3, 6, 6), "trace").shape == (2, 3)
    nested_p = spectral_projector(sym_eig(stack[:4].reshape(2, 2, 6, 6)), 2)
    assert np.array_equal(nested_p[1, 0], spectral_projector(sym_eig(stack[2]), 2))


def _admits(spec, ell):
    try:
        spectral_projector(spec, ell)
    except InvalidInput:
        return False
    return True


def test_stack_validation_covers_every_member():
    stack = _psd_stack()
    asymmetric = stack.copy()
    asymmetric[1, 0, 3] += 1e-6
    asymmetric[4, 2, 5] += 3e-6
    for op in (sym_eig, lambda a: matrix_norm(a, "operator"),
               lambda a: fractional_power(a, 0.5)):
        with pytest.raises(InvalidInput, match="max asymmetry 3.000e-06"):
            op(asymmetric)
    nonfinite = stack.copy()
    nonfinite[3, 1, 1] = np.inf
    with pytest.raises(InvalidInput):
        sym_eig(nonfinite)
    with pytest.raises(InvalidInput):
        sym_eig(np.zeros((3, 4, 5)))
    # one rank-2 member (the last) or one tied member (index 4) fails the whole stack
    spec = sym_eig(stack)
    with pytest.raises(RankError, match="ell=3 exceeds numerically retained rank 2"):
        spectral_projector(spec, 3)
    with pytest.raises(EigengapError, match="gap at ell=1 is 0.000e"):
        spectral_projector(spec[:5], 1)
    spectral_projector(spec[:4], 3)  # the members without either defect pass
    with pytest.raises(InvalidInput):
        sym_eig(np.zeros(4))


# A cut each member of _psd_stack admits: ell = n = 6 for member 3, the tied
# member 4 between its clusters, the rank-4 and rank-2 members at their ranks.
_MIXED_ELLS = [1, 3, 5, 6, 3, 4, 2]


def test_mixed_ells_match_each_member_alone():
    stack = _psd_stack()
    spec = sym_eig(stack)
    together = spectral_projector(spec, np.array(_MIXED_ELLS))
    assert together.shape == stack.shape
    for k, (a, ell) in enumerate(zip(stack, _MIXED_ELLS)):
        alone = spectral_projector(sym_eig(a), ell)
        assert np.array_equal(together[k], alone)
        assert np.array_equal(spectral_projector(spec[k], ell), alone)
        v = spec.eigenvectors[k][:, :ell]  # the top-ell columns' product, to rounding
        np.testing.assert_allclose(alone, v @ v.T, rtol=0, atol=1e-14)
    # one ell is that ell for every member, and the ells may carry any stack axes
    assert np.array_equal(spectral_projector(spec[:4], 3),
                          spectral_projector(spec[:4], np.full(4, 3)))
    nested = spectral_projector(sym_eig(stack[:4].reshape(2, 2, 6, 6)),
                                np.array(_MIXED_ELLS[:4]).reshape(2, 2))
    assert np.array_equal(nested.reshape(4, 6, 6), together[:4])


def test_a_member_failure_names_that_members_ell():
    spec = sym_eig(_psd_stack())
    # member 5 (rank 4) at ell=5 fails first; member 6 (rank 2) at ell=3 too
    with pytest.raises(RankError, match=r"^spectral_projector: ell=5 exceeds numerically "
                                        r"retained rank 4$"):
        spectral_projector(spec, [1, 1, 1, 1, 3, 5, 3])
    # member 4 splits its 0.5 pair at ell=4 first; member 5 its triple at ell=2 too
    with pytest.raises(EigengapError, match=r"^spectral_projector: gap at ell=4 is 0\.000e\+00"):
        spectral_projector(spec, [2, 2, 2, 2, 4, 2, 2])
    with pytest.raises(EigengapError, match=r"gap at ell=4 is 0\.000e\+00"):
        spectral_projector(spec[4], 4)  # the same message as the member alone
    spectral_projector(spec, _MIXED_ELLS)  # a list is an array of ells


@pytest.mark.parametrize("bad", [True, 2.5, 0], ids=["bool", "fraction", "zero"])
def test_an_ell_array_entry_is_refused_as_a_scalar_ell(bad):
    spec = sym_eig(_psd_stack()[:4])
    with pytest.raises(ConfigError) as scalar:
        spectral_projector(spec, bad)
    # a list, an object array, and an array of the entry's own dtype (all True for a bool)
    for ells in ([1, 2, bad, 3], np.array([1, 2, bad, 3], dtype=object),
                 np.array([1, 2, bad, 3], dtype=type(bad))):
        with pytest.raises(ConfigError, match=f"^{re.escape(str(scalar.value))}$"):
            spectral_projector(spec, ells)
    spectral_projector(spec, [1, 2, 4, 3])  # with a count in its place the stack passes


@pytest.mark.parametrize("shape, axes", [((3,), (4,)), ((5,), (4,)), ((4, 1), (4,)),
                                         ((1, 4), (4,)), ((1,), ())])
def test_an_ell_array_off_the_stack_axes_is_refused(shape, axes):
    spec = sym_eig(_psd_stack()[:4] if axes else _psd_stack()[0])
    with pytest.raises(ConfigError, match=re.escape(
            f"ell has shape {shape}, not () or the stack axes {axes}")):
        spectral_projector(spec, np.ones(shape, dtype=int))


def test_stack_psd_floor_is_per_member():
    # -1e-5 is within the floor of a member whose top eigenvalue is 1e6,
    # and far below the floor of one whose top eigenvalue is 1
    big = np.diag([1e6, 1.0, -1e-5])
    fractional_power(np.stack([big, np.eye(3)]), 0.5)
    with pytest.raises(NotPositiveSemidefinite, match="-1.000000e-05"):
        fractional_power(np.stack([big, np.diag([1.0, 0.5, -1e-5])]), 0.5)
    with pytest.raises(NotPositiveSemidefinite):
        fractional_power(sym_eig(np.stack([np.eye(3), np.diag([1.0, -0.5, 0.2])])), 0.5)


def test_positive_qr_is_the_sign_rule_and_stacks_member_by_member():
    rng = np.random.default_rng(8)
    stack = rng.standard_normal((5, 9, 9))
    for a in (stack[0], rng.standard_normal((40, 7)), stack):
        q, r = np.linalg.qr(a)
        diag = np.diagonal(r, axis1=-2, axis2=-1)
        got, norms = _positive_qr(a)
        assert np.array_equal(got, q * np.sign(diag)[..., None, :])
        assert np.array_equal(norms, np.abs(diag))
        assert np.all(np.diagonal(np.swapaxes(got, -1, -2) @ a, axis1=-2, axis2=-1) > 0.0)
    q, norms = _positive_qr(stack)
    for k, a in enumerate(stack):
        alone = _positive_qr(a)
        assert np.array_equal(q[k], alone[0]) and np.array_equal(norms[k], alone[1])
