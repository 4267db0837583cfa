"""Perturbation, operator-inequality, and concentration checkers."""

import dataclasses
import math

import numpy as np
import pytest

import kpcalab.bounds
import kpcalab.linalg
from kpcalab import (
    BoundReport,
    InvalidInput,
    McTailConfig,
    PerturbationCase,
    Spectrum,
    basis_factor,
    bernstein_bound,
    derive_seed,
    draw_samples,
    eigengaps,
    fix_signs,
    fractional_power,
    generator,
    make_finite_rank_kernel,
    make_perturbation_cases,
    matrix_norm,
    mc_tail,
    op_aa,
    op_jj,
    operator_inequality_suite,
    perturb_check,
    perturbation_suite,
    sample_finite_rank,
    spectral_projector,
    sym_eig,
    uniform_measure,
)


def _count_sym_eig(monkeypatch):
    """Record every sym_eig call made through bounds or inside linalg."""
    calls = []
    real = kpcalab.linalg.sym_eig

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(kpcalab.bounds, "sym_eig", counted)
    monkeypatch.setattr(kpcalab.linalg, "sym_eig", counted)
    return calls


def _offdiag(dim, i, j, value):
    b = np.zeros((dim, dim))
    b[i, j] = b[j, i] = value
    return b


def test_two_by_two_case_against_trigonometric_solution():
    # A = diag(2, 1) rotated by B = 0.15 offdiag; everything is solvable
    # by the quadratic formula, so the checker's four numbers are pinned.
    case = PerturbationCase(a=np.diag([2.0, 1.0]), b=_offdiag(2, 0, 1, 0.15), d=1)
    assert case.delta_d == pytest.approx(0.5, abs=1e-15)
    mu_top = 1.5 + math.sqrt(0.2725)
    phi = math.atan((mu_top - 2.0) / 0.15)
    s, c = math.sin(phi), math.cos(phi)
    b_hs = 0.15 * math.sqrt(2.0)
    rep = perturb_check(case)
    assert rep.plain.lhs == pytest.approx(math.sqrt(2.0) * s, abs=1e-12)
    assert rep.plain.rhs == pytest.approx(b_hs / 0.5, abs=1e-14)
    assert rep.weighted.lhs == pytest.approx(
        math.sqrt(5.0 * s**4 + 4.0 * c**2 * s**2), abs=1e-12)
    # d = 1 makes d lambda_d = ||A||_op, so weighted and trivial coincide
    assert rep.weighted.rhs == pytest.approx(2.0 * b_hs / 0.5, abs=1e-14)
    assert rep.trivial_rhs == pytest.approx(rep.weighted.rhs, abs=1e-14)
    assert rep.plain.holds and rep.weighted.holds
    assert not rep.sharper_than_trivial


def test_three_by_three_case_where_weighting_is_sharper(monkeypatch):
    # perturb inside the (e2, e3) plane of diag(10, 1, 1/2) at d = 2:
    # d lambda_d = 2 while ||A||_op = 10, a factor-5 sharper constant
    a = np.diag([10.0, 1.0, 0.5])
    calls = _count_sym_eig(monkeypatch)
    case = PerturbationCase(a=a, b=_offdiag(3, 1, 2, 0.08), d=2)
    assert len(calls) == 2  # a and a + b, once each
    assert case.delta_d == pytest.approx(0.25, abs=1e-15)
    assert case.b_hs == pytest.approx(0.08 * math.sqrt(2.0), rel=1e-15)
    mu_top = 0.75 + math.sqrt(0.25**2 + 0.08**2)
    psi = math.atan((mu_top - 1.0) / 0.08)
    s, c = math.sin(psi), math.cos(psi)
    b_hs = 0.08 * math.sqrt(2.0)
    rep = perturb_check(case)
    assert len(calls) == 2  # the check reuses the case's decompositions
    assert rep.plain.lhs == pytest.approx(math.sqrt(2.0) * s, abs=1e-12)
    assert rep.weighted.lhs == pytest.approx(
        math.sqrt(1.25 * s**4 + c**2 * s**2), abs=1e-12)
    assert rep.weighted.rhs == pytest.approx(8.0 * b_hs, abs=1e-13)
    assert rep.trivial_rhs == pytest.approx(40.0 * b_hs, abs=1e-12)
    assert rep.sharper_than_trivial


def test_case_hypotheses_are_enforced():
    a = np.diag([2.0, 1.0])
    with pytest.raises(InvalidInput):  # ||b||_HS = 0.2 sqrt(2) > delta/2
        PerturbationCase(a=a, b=_offdiag(2, 0, 1, 0.2), d=1)
    with pytest.raises(InvalidInput):
        PerturbationCase(a=np.diag([1.0, -1.0]), b=np.zeros((2, 2)), d=1)
    with pytest.raises(InvalidInput):
        PerturbationCase(a=np.zeros((2, 2)), b=np.zeros((2, 2)), d=1)
    for bad_d in (0, 2):
        with pytest.raises(InvalidInput):
            PerturbationCase(a=a, b=np.zeros((2, 2)), d=bad_d)
    with pytest.raises(InvalidInput):  # a + b loses positivity
        PerturbationCase(a=np.diag([2.0, 1.0, 0.05]),
                         b=np.diag([0.0, 0.0, -0.2]), d=1)
    with pytest.raises(InvalidInput):
        PerturbationCase(a=a, b=np.zeros((3, 3)), d=1)


def test_bound_report_margins():
    good = BoundReport(name="x", lhs=0.3, rhs=0.5)
    assert good.holds and good.margin > 0
    bad = BoundReport(name="x", lhs=1.0, rhs=0.5)
    assert not bad.holds and bad.margin < 0
    edge = BoundReport(name="x", lhs=0.5 + 1e-10, rhs=0.5)
    assert edge.holds  # within the uniform slack


def test_perturbation_suite_and_case_generator():
    suite = perturbation_suite(40, seed=11)
    assert suite.cases == 40
    assert suite.violations_plain == 0 and suite.violations_weighted == 0
    assert suite.min_margin_plain > 0 and suite.min_margin_weighted > 0
    assert 0.0 <= suite.sharper_fraction <= 1.0
    one, two = make_perturbation_cases(5, seed=9), make_perturbation_cases(5, seed=9)
    for x, y in zip(one, two):
        assert np.array_equal(x.a, y.a) and np.array_equal(x.b, y.b) and x.d == y.d
    other = make_perturbation_cases(5, seed=10)
    assert not all(np.array_equal(x.a, y.a) for x, y in zip(one, other))


def _cases_one_by_one(count, seed):
    """make_perturbation_cases' draws, one case at a time: (a, b, d, redraws, vals, q)."""
    out = []
    for i in range(count):
        rng = generator(seed, "perturb-case", i)
        dim = int(rng.integers(4, 21))
        if rng.uniform() < 0.5:
            vals = 0.3 + np.cumsum(rng.uniform(0.05, 1.0, size=dim))[::-1]
        else:
            ratio = rng.uniform(0.35, 0.7)
            scale = rng.uniform(1.0, 4.0)
            vals = scale * (ratio ** np.arange(dim) + 0.05)
        q, r = np.linalg.qr(rng.standard_normal((dim, dim)))
        q = q * np.sign(np.diag(r))
        a = (q * vals) @ q.T
        a = (a + a.T) / 2.0
        d = int(rng.integers(1, max(dim // 2, 1) + 1))
        delta = (vals[d - 1] - vals[d]) / 2.0
        for redraws in range(100):
            rho = 1.0 - rng.uniform(0.0, 1.0)
            g = rng.standard_normal((dim, dim))
            b = (g + g.T) / 2.0
            b *= rho * delta / 2.0 / np.linalg.norm(b)
            if np.linalg.eigvalsh(a + b).min() >= -1e-12 * vals.max():
                break
        out.append((a, b, d, redraws, vals, q))
    return out


def _sides(rep):
    return rep.plain.lhs, rep.plain.rhs, rep.weighted.lhs, rep.weighted.rhs, rep.trivial_rhs


def test_case_generator_decomposes_one_stack_per_dimension(monkeypatch):
    calls = _count_sym_eig(monkeypatch)

    def no_eigvalsh(a):
        raise AssertionError("the case generator called eigvalsh")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    cases = make_perturbation_cases(60, seed=34)
    monkeypatch.undo()
    dims = {case.a.shape[0] for case in cases}
    assert len(dims) > 1
    reference = _cases_one_by_one(60, seed=34)
    assert any(redraws for _, _, _, redraws, _, _ in reference)  # the PSD retry ran
    # Per dimension: a's spectrum is the one it was built from, so only a + b
    # is decomposed, once per attempt, on the sub-stack of members still
    # waiting for a PSD a + b.
    expected = []
    for dim in dims:
        redraws = [r for a, _, _, r, _, _ in reference if a.shape[0] == dim]
        expected += [(sum(r >= j for r in redraws), dim, dim) for j in range(max(redraws) + 1)]
    assert len(calls) == len(expected) > len(dims)
    assert sorted(calls) == sorted(expected)
    for case, (a, b, d, _, vals, _) in zip(cases, reference):
        assert np.array_equal(case.a, a) and np.array_equal(case.b, b) and case.d == d
        assert np.array_equal(case.spec_a.eigenvalues, vals)
        # The construction spectrum is sym_eig(a)'s to rounding.
        alone_a, alone_ab = sym_eig(case.a), sym_eig(case.a + case.b)
        np.testing.assert_allclose(case.spec_a.eigenvalues, alone_a.eigenvalues,
                                   rtol=0, atol=1e-13 * vals[0])
        np.testing.assert_allclose(spectral_projector(case.spec_a, case.d),
                                   spectral_projector(alone_a, case.d), rtol=0, atol=1e-12)
        assert np.array_equal(case.spec_ab.eigenvalues, alone_ab.eigenvalues)
        assert np.array_equal(case.spec_ab.eigenvectors, alone_ab.eigenvectors)
        rebuilt = PerturbationCase(a=case.a, b=case.b, d=case.d)
        assert _sides(perturb_check(rebuilt)) == pytest.approx(_sides(perturb_check(case)),
                                                              rel=1e-9)


def _bounds_alone(a, b, d, vals, q):
    """Both bounds on one case through the 2-D API, with a's spectrum the (vals, q) it
    was built from: delta_d, ||b||_HS, the four sides, trivial."""
    spec_a, spec_ab = Spectrum(vals, fix_signs(q)), sym_eig(a + b)
    diff = spectral_projector(spec_a, d) - spectral_projector(spec_ab, d)
    delta, b_hs = float(eigengaps(spec_a)[d - 1]), float(np.linalg.norm(b))
    root_a = fractional_power(spec_a, 0.5)
    return (delta, b_hs, float(np.linalg.norm(diff)), b_hs / delta,
            float(np.linalg.norm(root_a @ diff @ root_a)),
            b_hs * d * float(spec_a.eigenvalues[d - 1]) / delta,
            float(np.max(np.abs(spec_a.eigenvalues))) * b_hs / delta)


@pytest.mark.parametrize("seed", [34, 20260819])
def test_stacked_scores_equal_the_one_case_reference(seed):
    count = 60
    reference = _cases_one_by_one(count, seed)
    seen, cuts = [], []
    for members, a, b, d, spec_a, spec_ab in kpcalab.bounds._case_stacks(count, seed):
        delta, b_hs, rep = kpcalab.bounds._score_cases(a, b, d, spec_a, spec_ab)
        cuts.append(len(np.unique(d)))
        for k, i in enumerate(members):
            ref_a, ref_b, ref_d, _, ref_vals, ref_q = reference[i]
            assert np.array_equal(a[k], ref_a) and np.array_equal(b[k], ref_b) and d[k] == ref_d
            got = (delta[k], b_hs[k], rep.plain.lhs[k], rep.plain.rhs[k], rep.weighted.lhs[k],
                   rep.weighted.rhs[k], rep.trivial_rhs[k])
            want = _bounds_alone(ref_a, ref_b, ref_d, ref_vals, ref_q)
            assert got == want  # bit for bit
            plain, weighted = BoundReport("p", *want[2:4]), BoundReport("w", *want[4:6])
            assert rep.plain.holds[k] == plain.holds and rep.plain.margin[k] == plain.margin
            assert rep.weighted.margin[k] == weighted.margin
            assert rep.sharper_than_trivial[k] == (want[5] < want[6])
        seen.extend(members)
    assert sorted(seen) == list(range(count))
    assert max(cuts) > 2  # stacks whose members cut at several d


def test_perturbation_suite_makes_two_projector_calls_per_dimension_stack(monkeypatch):
    calls, real = [], kpcalab.bounds.spectral_projector

    def counted(spectrum, ell):
        calls.append((spectrum.eigenvectors.shape, np.shape(ell)))
        return real(spectrum, ell)

    monkeypatch.setattr(kpcalab.bounds, "spectral_projector", counted)
    rows = perturbation_suite(300, 20260819).rows
    sizes = {}  # dimension -> cases
    for row in rows:
        sizes[row[1]] = sizes.get(row[1], 0) + 1
    # one call on a's stack and one on a + b's, each with one ell per member
    expected = [((k, dim, dim), (k,)) for dim, k in sizes.items() for _ in range(2)]
    assert sorted(calls) == sorted(expected)
    assert len({(row[1], row[2]) for row in rows}) > 2 * len(sizes)  # stacks mix cut indices


_GOOD_A, _GOOD_B = np.diag([2.0, 1.0, 0.5]), _offdiag(3, 0, 1, 0.05)


@pytest.mark.parametrize("bad_a, bad_b, bad_d, message", [
    (_GOOD_A, np.zeros((3, 3)), 3, "d=3 outside 1..2"),
    (np.diag([2.0, 0.0, 0.0]), np.zeros((3, 3)), 2, "lambda_d must be positive"),
    (np.diag([1.0, 0.5, -1.0]), np.zeros((3, 3)), 1, "a is not PSD"),
    (_GOOD_A, _offdiag(3, 0, 1, 0.2), 1, r"\|\|b\|\|_HS = 2.828427e-01 exceeds delta_d/2 = 2.5"),
    (np.diag([2.0, 1.0, 0.05]), np.diag([0.0, 0.0, -0.2]), 1, r"a \+ b is not PSD"),
], ids=["d_outside", "lambda_d_zero", "a_not_psd", "b_too_large", "sum_not_psd"])
def test_stack_check_rejects_one_bad_member_like_the_constructor(bad_a, bad_b, bad_d, message):
    check = kpcalab.bounds._check_cases
    a, b = np.stack([_GOOD_A, bad_a, _GOOD_A]), np.stack([_GOOD_B, bad_b, _GOOD_B])
    check(b[::2], np.array([1, 2]), sym_eig(a[::2]), sym_eig(a[::2] + b[::2]))  # good ones pass
    with pytest.raises(InvalidInput, match=message):
        check(b, np.array([1, bad_d, 2]), sym_eig(a), sym_eig(a + b))
    with pytest.raises(InvalidInput, match=message):
        PerturbationCase(a=bad_a, b=bad_b, d=bad_d)


def _psd_draw(normals, dim):
    g = normals.reshape(dim, dim)
    m = g @ g.T / dim  # a 2-D product, which numpy may route through syrk
    return (m + m.T) / 2.0


def _operator_trials(trials, seed):
    """Each trial's (A, B, f, g) under operator_inequality_suite's stream contract,
    one trial at a time: its dimension is entry i of the one dimension stream, and
    the r-th trial of a dimension takes the r-th row drawn from that dimension's
    stream, a row of 2 dim^2 + 2 dim normals."""
    dims = generator(seed, "op-ineq-dims").integers(2, 13, size=trials).tolist()
    rngs = {dim: generator(seed, "op-ineq-trials", dim) for dim in set(dims)}
    for dim in dims:
        sq = dim * dim
        row = rngs[dim].standard_normal(2 * sq + 2 * dim)
        yield (_psd_draw(row[:sq], dim), _psd_draw(row[sq:2 * sq], dim),
               row[2 * sq:2 * sq + dim], row[2 * sq + dim:])


def _operator_violations_trial_by_trial(trials, seed):
    """operator_inequality_suite's tally, one trial at a time through the scalar API."""
    violations = 0
    for a, b, f, g in _operator_trials(trials, seed):
        spec_a, spec_b = sym_eig(a), sym_eig(b)
        dist_hs = matrix_norm(a - b, "hilbert_schmidt")
        dist_op = matrix_norm(a - b, "operator")
        va, vb = spec_a.eigenvalues, spec_b.eigenvalues
        cap = max(np.abs(va).max(), np.abs(vb).max())
        reports = [BoundReport("eigenvalue_stability", float(np.linalg.norm(va - vb)), dist_hs)]
        for t in (0.25, 0.5, 0.75, 1.5, 2.0):
            gap = fractional_power(spec_a, t) - fractional_power(spec_b, t)
            if t < 1.0:
                reports.append(BoundReport("power", matrix_norm(gap, "operator"), dist_op**t))
            else:
                rhs = t * cap ** (t - 1.0) * dist_hs
                reports.append(BoundReport("power", matrix_norm(gap, "hilbert_schmidt"), rhs))
        violations += sum(not r.holds for r in reports)
        for other in (g, np.zeros_like(g)):  # one vector pair at a time
            violations += int(kpcalab.bounds._tensor_lemma(f, other)[2])
        violations += int(any(kpcalab.bounds._rank_one_norms(f)[2].values()))
    return violations


@pytest.mark.parametrize("slack", [1e-9, -0.5, -1.0])
def test_operator_suite_matches_a_trial_by_trial_tally(monkeypatch, slack):
    # slack -0.5 fails some bound checks and passes others; -1 fails all six
    # bound checks of every trial (their lhs is a norm, so never <= -1)
    monkeypatch.setattr(kpcalab.bounds, "_BOUND_SLACK", slack)
    trials = 40
    report = operator_inequality_suite(trials, seed=8)
    assert report.checks == 9 * trials
    assert report.violations == _operator_violations_trial_by_trial(trials, seed=8)
    if slack == -1.0:
        assert report.violations == 6 * trials
    if slack == -0.5:
        assert 0 < report.violations < 6 * trials


def test_tensor_lemma_equality_and_hand_case():
    f = np.array([1.5, -2.0, 0.5])
    lhs, rhs, violated = kpcalab.bounds._tensor_lemma(f, np.zeros(3))
    assert lhs == pytest.approx(float(f @ f), rel=1e-14)
    assert rhs == pytest.approx(lhs, rel=1e-14)  # g = 0 attains equality
    assert not violated
    lhs, rhs, violated = kpcalab.bounds._tensor_lemma(np.array([1.0, 0.0]),
                                                      np.array([0.0, 1.0]))
    assert lhs == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert rhs == pytest.approx(math.sqrt(12.0), rel=1e-14)
    assert not violated


def test_rank_one_norms_take_one_eigensolve_per_stack(monkeypatch):
    calls = []
    real = np.linalg.eigvalsh

    def counted(a):
        calls.append(np.shape(a))
        return real(a)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    f = np.random.default_rng(2).standard_normal((5, 4))
    norms, target, strays = kpcalab.bounds._rank_one_norms(f)
    assert calls == [(5, 4, 4)]  # operator and trace norms share one solve
    mat = f[:, :, None] * f[:, None, :]
    for kind, values in norms.items():
        assert np.array_equal(values, matrix_norm(mat, kind))
        assert not strays[kind].any()


def test_rank_one_norms():
    f = np.array([3.0, -4.0])
    norms, target, strays = kpcalab.bounds._rank_one_norms(f)
    assert target == 25.0
    for kind in ("operator", "hilbert_schmidt", "trace"):
        assert norms[kind] == pytest.approx(25.0, rel=1e-12)
        assert not strays[kind]


@pytest.mark.parametrize("suite", [perturbation_suite, operator_inequality_suite,
                                   make_perturbation_cases])
@pytest.mark.parametrize("count", [0, -3, 2.5, True])
def test_bound_suites_reject_a_bad_count_before_any_draw(monkeypatch, suite, count):
    def no_draw(*args):
        raise AssertionError("a suite drew on a bad count")

    monkeypatch.setattr(kpcalab.bounds, "generator", no_draw)
    with pytest.raises(InvalidInput):
        suite(count, 1)


def test_operator_inequality_suite_counts(monkeypatch):
    calls = _count_sym_eig(monkeypatch)
    report = operator_inequality_suite(25, seed=4)
    dims = generator(4, "op-ineq-dims").integers(2, 13, size=25).tolist()
    # one call per dimension, on its k A's and k B's as one stack of 2k
    assert sorted(calls) == sorted((2 * dims.count(dim), dim, dim) for dim in set(dims))
    assert report.trials == 25
    assert report.checks == 25 * 9
    assert report.violations == 0


def _suite_trials(monkeypatch, trials, seed):
    """Each trial's (A, B, f, g) as operator_inequality_suite checks them, in
    trial order, read off its one A-and-B stack and tensor-lemma pair per dimension."""
    stacks, pairs = [], []
    real_lemma = kpcalab.bounds._tensor_lemma

    def eig_spy(a):
        stacks.append(a)
        return kpcalab.linalg.sym_eig(a)

    def lemma_spy(f, g):
        pairs.append((f, g))
        return real_lemma(f, g)

    with monkeypatch.context() as patch:
        patch.setattr(kpcalab.bounds, "sym_eig", eig_spy)
        patch.setattr(kpcalab.bounds, "_tensor_lemma", lemma_spy)
        operator_inequality_suite(trials, seed)
    dims = generator(seed, "op-ineq-dims").integers(2, 13, size=trials)
    assert len(stacks) == len(set(dims.tolist())) and len(pairs) == 2 * len(stacks)
    out = [None] * trials
    for ab, (f, g) in zip(stacks, pairs[::2]):
        members = np.flatnonzero(dims == ab.shape[-1])
        k = len(members)
        assert ab.shape[0] == 2 * k
        for r, i in enumerate(members):
            out[i] = (ab[r], ab[k + r], f[r], g[r])
    assert all(trial is not None for trial in out)
    return out


@pytest.mark.parametrize("seed", [4, 20260819])
def test_operator_inequality_stacks_match_per_trial_draws(monkeypatch, seed):
    """The dimension stacks hold the A, B, f, g that one-trial-at-a-time draws and
    2-D products give, bit for bit."""
    trials = 40
    for got, want in zip(_suite_trials(monkeypatch, trials, seed),
                         _operator_trials(trials, seed), strict=True):
        for part, ref in zip(got, want):
            assert np.array_equal(part, ref)


@pytest.mark.parametrize("k", [1, 7, 25])
def test_operator_inequality_suite_prefix(monkeypatch, k):
    """The first k trials of a 40-trial suite are a k-trial suite."""
    longer = _suite_trials(monkeypatch, 40, 20260819)
    for got, want in zip(longer[:k], _suite_trials(monkeypatch, k, 20260819), strict=True):
        for part, ref in zip(got, want):
            assert np.array_equal(part, ref)


def test_bernstein_frozen_values():
    r = bernstein_bound("cov_centered_mean", 1.0, 1.0, 100)
    assert r.bound == pytest.approx(0.9899494936611666, abs=1e-15)
    assert r.tail_probability == pytest.approx(1.4715177646857693, abs=1e-15)
    r = bernstein_bound("feature_op", 1.0, 2.0, 64)
    assert r.bound == 2.0
    assert r.tail_probability == pytest.approx(0.2706705664732254, abs=1e-15)
    assert bernstein_bound("cov_centered_mean", 3.0, 1.0, 100).bound == pytest.approx(
        3.0 * 0.9899494936611666, rel=1e-15)


def test_bernstein_input_checks():
    with pytest.raises(InvalidInput):
        bernstein_bound("cov_centered_mean", 1.0, 2.0, 15)  # count < 8 tau
    with pytest.raises(InvalidInput):
        bernstein_bound("cov_centered_mean", 1.0, 0.0, 100)
    for kind in ("florp", "cov_zero_mean"):
        with pytest.raises(InvalidInput, match="unknown kind"):
            bernstein_bound(kind, 1.0, 1.0, 100)


@pytest.mark.parametrize("scale, tau, count", [
    (math.nan, 1.0, 100), (math.inf, 1.0, 100), (1.0, math.nan, 100), (1.0, math.inf, 100),
    (1.0, 1.0, math.nan), (1.0, 1.0, 100.5), (True, 1.0, 100), (1.0, 1.0, True),
    (-1.0, 1.0, 100),
], ids=["scale_nan", "scale_inf", "tau_nan", "tau_inf", "count_nan", "count_fractional",
        "scale_bool", "count_bool", "scale_negative"])
def test_bernstein_rejects_non_finite_reals_and_non_integral_counts(scale, tau, count):
    # A NaN radius would make every ``deviation > bound`` tail check read as a pass,
    # and a negative one every check a failure.
    with pytest.raises(kpcalab.ConfigError):
        bernstein_bound("cov_centered_mean", scale, tau, count)


def test_mc_tail_smoke_both_experiments():
    config = McTailConfig(tau=2.0, count=400, replications=60, seed=21,
                          atoms=32, rank=8)
    for experiment in ("cov_deviation", "feature_op_deviation"):
        report = mc_tail(experiment, config)
        assert report.holds
        assert report.exceed_fraction <= report.cap
        assert 0.0 <= report.median_deviation <= report.max_deviation
        assert report.bound > 0.0
    with pytest.raises(InvalidInput):
        mc_tail("florp", config)


def test_feature_op_deviation_matches_the_atom_level_operators():
    # mc_tail scores ||S_A - S_J||_HS as ||L L' - diag(lambda)||_F in basis
    # coordinates; recompute every deviation from the N x N operators
    config = McTailConfig(tau=2.0, count=200, replications=50, seed=3, atoms=32, rank=8)
    report = mc_tail("feature_op_deviation", config)
    measure = uniform_measure(config.atoms)
    kernel = make_finite_rank_kernel(measure, (1.0 + np.arange(config.rank)) ** -2.0,
                                     derive_seed(config.seed, "mc-kernel"))
    s_j = op_jj(kernel, measure).matrix
    deviations = np.array([
        np.linalg.norm(op_aa(sample_finite_rank(
            kernel, config.count, derive_seed(config.seed, "mc-feat", rep)), measure).matrix - s_j)
        for rep in range(config.replications)
    ])
    assert report.max_deviation == pytest.approx(deviations.max(), rel=1e-12)
    assert report.median_deviation == pytest.approx(np.median(deviations), rel=1e-12)
    assert report.exceed_count == int(np.sum(deviations > report.bound))


def _per_replication_deviations(experiment, config):
    """Each replication's deviation and the radius by the formulas mc_tail used
    before its tails were stacked: the covariance v v' / count - vbar vbar' of the
    drawn root columns, L L' of each feature draw, one norm each, and kappa as
    the max over the atoms of sum_t lambda_t psi_t(x)^2."""
    kernel, pop = config.kernel, np.diag(config.kernel.lambdas)
    values = kernel.table.values
    kappa = float(np.max(np.einsum("t,tj,tj->j", kernel.lambdas, values, values)))
    deviations = np.empty(config.replications)
    for rep in range(config.replications):
        if experiment == "cov_deviation":
            idx = draw_samples(kernel.table.measure, config.count,
                               derive_seed(config.seed, "mc-cov", rep))
            v = kernel.root[:, idx]
            vbar = v.mean(axis=1)
            op = v @ v.T / config.count - np.outer(vbar, vbar)
        else:
            factor = basis_factor(sample_finite_rank(
                kernel, config.count, derive_seed(config.seed, "mc-feat", rep)))
            op = factor @ factor.T
        deviations[rep] = np.linalg.norm(op - pop)
    kind = "cov_centered_mean" if experiment == "cov_deviation" else "feature_op"
    return deviations, bernstein_bound(kind, kappa, config.tau, config.count).bound


@pytest.mark.parametrize("seed", [20260819, 5])
@pytest.mark.parametrize("experiment", ["cov_deviation", "feature_op_deviation"])
def test_stacked_tails_match_the_per_replication_formulas(monkeypatch, experiment, seed):
    # the README concentration config; the stacked deviations are read off the
    # one _frobenius call mc_tail makes
    stacks = []
    frobenius = kpcalab.bounds._frobenius
    monkeypatch.setattr(kpcalab.bounds, "_frobenius", lambda a: stacks.append(frobenius(a))
                        or stacks[-1])
    config = McTailConfig(tau=2.0, count=400, replications=200, seed=seed, atoms=128, rank=20)
    report = mc_tail(experiment, config)
    want, radius = _per_replication_deviations(experiment, config)
    [got] = stacks
    if experiment == "cov_deviation":
        assert np.max(np.abs(got - want) / want) <= 1e-13
    else:
        assert got.tobytes() == want.tobytes()
    assert report.bound == pytest.approx(radius, rel=1e-15)
    assert report.exceed_count == int(np.sum(want > radius))
    assert (report.max_deviation, report.median_deviation) == (got.max(), np.median(got))


def test_mc_tail_rejects_a_bad_setup_before_building_a_kernel(monkeypatch):
    builds = []
    monkeypatch.setattr(kpcalab.bounds, "make_finite_rank_kernel",
                        lambda *args: builds.append(args))
    with pytest.raises(InvalidInput, match="count >= 8 tau"):
        McTailConfig(tau=2.0, count=15, replications=60, seed=0)
    with pytest.raises(InvalidInput, match="unknown experiment"):
        mc_tail("florp", McTailConfig(tau=2.0, count=16, replications=60, seed=0))
    assert builds == []


def test_mc_tail_builds_one_kernel_per_config(monkeypatch):
    builds = []
    build = kpcalab.bounds.make_finite_rank_kernel
    monkeypatch.setattr(kpcalab.bounds, "make_finite_rank_kernel",
                        lambda *args: builds.append(args) or build(*args))
    config = McTailConfig(tau=2.0, count=100, replications=50, seed=6, atoms=24, rank=6)
    experiments = kpcalab.bounds.MC_EXPERIMENTS
    shared = [mc_tail(experiment, config) for experiment in experiments]
    assert len(builds) == 1
    fresh = [mc_tail(experiment, dataclasses.replace(config)) for experiment in experiments]
    assert len(builds) == 3
    assert shared == fresh


def test_mc_tail_config_checks():
    with pytest.raises(InvalidInput):
        McTailConfig(tau=2.0, count=100, replications=49, seed=0)
    with pytest.raises(InvalidInput):
        McTailConfig(tau=0.0, count=100, replications=60, seed=0)
    for rank, atoms in ((0, 128), (-2, 128), (20, 20)):
        with pytest.raises(InvalidInput):
            McTailConfig(tau=2.0, count=100, replications=60, seed=0, atoms=atoms, rank=rank)
    # NaN and bool taus are config errors, not a NaN bound or a tau of 1
    for tau in (math.nan, True):
        with pytest.raises(kpcalab.ConfigError, match="tau"):
            McTailConfig(tau=tau, count=100, replications=60, seed=0)


def test_mc_tail_config_normalizes_integral_numbers():
    config = McTailConfig(tau=2, count=200.0, replications=50.0, seed=np.int64(3),
                          atoms=32.0, rank=8)
    assert [type(v) for v in (config.tau, config.count, config.replications, config.seed,
                              config.atoms)] == [float, int, int, int, int]
    # an integral float count runs the same draws as the int
    same = McTailConfig(tau=2.0, count=200, replications=50, seed=3, atoms=32, rank=8)
    assert mc_tail("cov_deviation", config) == mc_tail("cov_deviation", same)
