import re

import pytest

from ppgen.checks import (
    dr_robustness_check,
    lemma2_check,
    oracle_agreement_check,
    orthonormality_check,
    prop1_check,
    run_checks,
    theorem_structural_check,
)
from ppgen.regression import legendre_eval


def test_orthonormality_passes():
    assert orthonormality_check().passed


def test_orthonormality_detects_unnormalized_basis():
    def unnormalized(x, degree):
        feats = legendre_eval(x, degree)
        return feats * 1.1  # deliberately broken scaling

    assert not orthonormality_check(basis=unnormalized).passed


def test_prop1_reduced_scale():
    assert prop1_check(seed=3, n_replications=3_000).passed


def test_theorem_check_reduced_scale():
    res = theorem_structural_check("om", seed=9, n_refits=80, n0=4_000, n_os=2_000)
    assert res.passed, res.detail


# the detail strings of theorem_structural_check(which, seed=9, n_refits=12,
# n0=2_000, n_os=1_000) when the check formed its own target prediction
_THEOREM_DETAILS = {
    "om": "|mse - bias^2 - var| = 9.904e-04 vs 4*SE = 2.175e-02 (mse 9.6646e-03, bias^2 2.6131e-04, var 8.4129e-03)",
    "abc": "|mse - bias^2 - var| = 2.878e-03 vs 4*SE = 1.222e-02 (mse 8.2160e-03, bias^2 1.9371e-03, var 3.4012e-03)",
    "aom": "|mse - bias^2 - var| = 4.080e-03 vs 4*SE = 2.386e-01 (mse 1.0003e-01, bias^2 1.3646e-02, var 9.0467e-02)",
}


@pytest.mark.parametrize("which", sorted(_THEOREM_DETAILS))
def test_theorem_check_reads_the_estimators_target_prediction(monkeypatch, which):
    """The check averages what the estimator averages: one target_prediction per refit."""
    from ppgen import checks

    calls = []
    prediction = checks.target_prediction

    def counted(kind, *args):
        calls.append(kind)
        return prediction(kind, *args)

    monkeypatch.setattr(checks, "target_prediction", counted)
    res = theorem_structural_check(which, seed=9, n_refits=12, n0=2_000, n_os=1_000)
    assert calls == [which] * 12
    assert res.detail == _THEOREM_DETAILS[which]


def test_theorem_check_rejects_unknown_estimator():
    with pytest.raises(ValueError):
        theorem_structural_check("ipw")


def test_lemma2_reduced_scale():
    res = lemma2_check(seed=5, n_worlds=12, n_os=4_000, n_features=150)
    assert res.passed, res.detail


def test_dr_robustness_reduced_scale():
    res = dr_robustness_check(seed=5, n1=2_000, n0=6_000, n_replications=10)
    assert res.passed, res.detail


def test_one_replication_is_an_error():
    """A single replication or refit leaves the standard error undefined."""
    with pytest.raises(ValueError, match="at least 2 replications"):
        dr_robustness_check(seed=5, n1=200, n0=600, n_replications=1)
    with pytest.raises(ValueError, match="at least 2 refits"):
        theorem_structural_check("om", seed=9, n_refits=1, n0=400, n_os=500)


def test_oracle_agreement_reduced_scale():
    res = oracle_agreement_check(seed=5, n_draws=100_000)
    assert res.passed, res.detail


def test_run_checks_filter_and_unknown():
    results = run_checks(["orthonormality"], seed=1)
    assert [r.name for r in results] == ["orthonormality"]
    with pytest.raises(ValueError):
        run_checks(["no-such-check"])
    with pytest.raises(ValueError, match=re.escape("checks named more than once: ['orthonormality']")):
        run_checks(["orthonormality", "prop1", "orthonormality"])


def test_check_result_line_format():
    res = orthonormality_check()
    assert res.line().startswith("PASS  orthonormality:")
