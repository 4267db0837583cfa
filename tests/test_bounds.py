"""Perturbation, operator-inequality, and concentration checkers."""

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
    bernstein_bound,
    make_perturbation_cases,
    mc_tail,
    operator_inequality_suite,
    perturb_check,
    perturbation_suite,
    rank_one_norms_check,
    tensor_lemma_check,
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


def test_tensor_lemma_equality_and_hand_case():
    f = np.array([1.5, -2.0, 0.5])
    lhs, rhs = tensor_lemma_check(f, np.zeros(3))
    assert lhs == pytest.approx(float(f @ f), rel=1e-14)
    assert rhs == pytest.approx(lhs, rel=1e-14)  # g = 0 attains equality
    lhs, rhs = tensor_lemma_check(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert lhs == pytest.approx(math.sqrt(2.0), rel=1e-14)
    assert rhs == pytest.approx(math.sqrt(12.0), rel=1e-14)


def test_rank_one_norms():
    f = np.array([3.0, -4.0])
    out = rank_one_norms_check(f)
    assert out["target"] == 25.0
    for kind in ("operator", "hilbert_schmidt", "trace"):
        assert out[kind] == pytest.approx(25.0, rel=1e-12)


def test_operator_inequality_suite_counts(monkeypatch):
    calls = _count_sym_eig(monkeypatch)
    report = operator_inequality_suite(25, seed=4)
    assert len(calls) == 2 * 25  # A and B once per trial
    assert report.trials == 25
    assert report.checks == 25 * 9
    assert report.violations == 0


def test_bernstein_frozen_values():
    r = bernstein_bound("cov_centered_mean", 1.0, 1.0, 100)
    assert r.bound == pytest.approx(0.9899494936611666, abs=1e-15)
    assert r.tail_probability == pytest.approx(1.4715177646857693, abs=1e-15)
    r = bernstein_bound("cov_zero_mean", 1.0, 1.0, 100)
    assert r.bound == pytest.approx(0.282842712474619, abs=1e-15)
    assert r.tail_probability == pytest.approx(0.7357588823428847, abs=1e-15)
    r = bernstein_bound("feature_op", 1.0, 2.0, 64)
    assert r.bound == 2.0
    assert r.tail_probability == pytest.approx(0.2706705664732254, abs=1e-15)
    assert bernstein_bound("cov_zero_mean", 3.0, 1.0, 100).bound == pytest.approx(
        3.0 * 0.282842712474619, rel=1e-15)


def test_bernstein_input_checks():
    with pytest.raises(InvalidInput):
        bernstein_bound("cov_zero_mean", 1.0, 2.0, 15)  # count < 8 tau
    with pytest.raises(InvalidInput):
        bernstein_bound("cov_zero_mean", 1.0, 0.0, 100)
    with pytest.raises(InvalidInput):
        bernstein_bound("florp", 1.0, 1.0, 100)


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


def test_mc_tail_config_checks():
    with pytest.raises(InvalidInput):
        McTailConfig(tau=2.0, count=100, replications=49, seed=0)
    with pytest.raises(InvalidInput):
        McTailConfig(tau=0.0, count=100, replications=60, seed=0)
