import math
import re
from pathlib import Path

import ppgen

README = Path(__file__).resolve().parents[1] / "README.md"


def test_namespace_exports_exactly_these_names():
    assert sorted(ppgen.__all__) == [
        "Arm", "CompositeSample", "EstimateRecord", "EstimatorConfig", "GlmParams",
        "GridFunction", "KernelParams", "LogisticFit", "NoisePredictor", "OS", "OracleResult",
        "RandomFeatureFit", "RidgeFit", "Spectrum", "TARGET", "TRIAL", "Target", "World",
        "analysis", "benchmark_grid", "derive_seed", "dgp", "domain", "draw_target", "draw_trial",
        "empirical_excess_risk", "estimate_abc", "estimate_aom", "estimate_dr_abc", "estimate_dr_aom",
        "estimate_dr_baseline", "estimate_ipw", "estimate_om", "estimate_om_categorical", "estimate_os_om",
        "estimators", "fit_nuisances", "flexible_fit", "generate_os", "glm_logit_prob", "glm_outcome", "grid",
        "legendre_eval", "logistic_fit", "prop1_formula", "regression", "ridge_cv",
        "run_scenario_grid", "run_table2", "sample_gp", "spectrum", "true_mu",
        "true_mu_monte_carlo", "true_outcome_function",
    ]


def test_readme_library_example_runs(capsys):
    section = README.read_text().split("## Library entry points", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    scope = {}
    exec(compile(code, "README.md", "exec"), scope)
    assert math.isfinite(scope["estimate"].point_estimate)
    assert "vs truth" in capsys.readouterr().out
