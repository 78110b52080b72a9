import json
import re
from collections import Counter, defaultdict
from dataclasses import replace

import numpy as np
import pytest

from ppgen.domain import PositivityError
from ppgen.grid import (
    ALL_ESTIMATORS,
    ESTIMATORS,
    GP_ESTIMATORS,
    TABLE2_ROWS,
    Grid,
    benchmark_grid,
    combo_id,
    run_scenario_grid,
    run_table2,
)


def small_grid(seed=11, predictor_kind="learned", n1_values=(60, 120)):
    """The benchmark's lx=0.5, conf=none cell with small samples, for fast structural tests."""
    return benchmark_grid(seed, n1_values=n1_values, lx_values=(0.5,), confounding=("none",), n0=400, n_os=2_000,
                          predictor_kind=predictor_kind)


def test_benchmark_grid_has_twelve_combos():
    grid = benchmark_grid(master_seed=1)
    assert len(grid.combos) == 12
    assert len({combo_id(c) for c in grid.combos}) == 12
    assert grid.combos[:2] == ((200, 0.5, "none"), (200, 0.5, "mid"))  # n1, then lx, then conf
    assert (grid.master_seed, grid.n0, grid.n_os, grid.predictor_kind) == (1, 20_000, 50_000, "learned")


@pytest.mark.parametrize("fields, message", [
    ({"combos": [(0, 0.5, "none")]}, "sample sizes must be positive"),
    ({"n0": 0}, "sample sizes must be positive"),
    ({"n_os": -1}, "sample sizes must be positive"),
    ({"predictor_kind": "oracle"}, "unknown predictor kind 'oracle'"),
    ({"combos": [(200, 0.5, "mild")]}, re.escape("unknown confounding ['mild']; valid: none, mid, strong")),
    ({"combos": [(200, 0.5, "none"), (1000, 0.2, "mid"), (200, 0.5, "none")]}, "combo more than once"),
    ({"combos": []}, "empty grid"),
], ids=["n1", "n0", "n_os", "kind", "conf", "combo-twice", "empty"])
def test_grid_validation(fields, message):
    grid = Grid([(200, 0.5, "none")], 7, 400, 2_000, "learned")
    with pytest.raises(ValueError, match=message):
        Grid(**{**vars(grid), **fields})
    with pytest.raises(ValueError, match=message):
        replace(grid, **fields)


def test_single_cell_grid_rows():
    result = run_scenario_grid(small_grid(n1_values=(60,)), estimators=GP_ESTIMATORS, degrees=(1, 3),
                               n_scenarios=1, n_runs=1, workers=1)
    keys = {(r["estimator"], r["degree"]) for r in result.combo_rows}
    assert keys == {("om", 1), ("om", 3), ("abc", 1), ("abc", 3),
                    ("aom", 1), ("aom", 3), ("os-om", -1)}
    assert all(np.isfinite(r["rmse"]) for r in result.combo_rows)


def test_variance_is_undefined_from_one_run():
    spec = small_grid(predictor_kind="iid_noise", n1_values=(60,))
    one = run_scenario_grid(spec, estimators=("om",), degrees=(1,), n_scenarios=1, n_runs=1)
    assert np.isnan(one.scenario_rows[0]["variance"]) and np.isnan(one.combo_rows[0]["variance"])
    assert np.isfinite(one.combo_rows[0]["rmse"])
    two = run_scenario_grid(spec, estimators=("om",), degrees=(1,), n_scenarios=1, n_runs=2)
    assert np.isfinite(two.combo_rows[0]["variance"])


def test_scenario_rows_decompose_the_mse():
    result = run_scenario_grid(small_grid(predictor_kind="iid_noise", n1_values=(60,)), estimators=("om",),
                               degrees=(1,), n_scenarios=1, n_runs=6)
    row = result.scenario_rows[-1]
    est = np.asarray(row["estimates"])
    assert row["bias"] == pytest.approx(np.mean(est) - row["mu"], abs=1e-12)
    # mse = bias^2 + variance * (r - 1) / r exactly, with the ddof=1 variance
    r = est.shape[0]
    assert abs(row["rmse"] ** 2 - row["bias"] ** 2 - row["variance"] * (r - 1) / r) < 1e-12 * max(1.0, row["rmse"] ** 2)


def test_grid_runs_weighting_estimators():
    from ppgen.grid import ALL_ESTIMATORS

    result = run_scenario_grid(small_grid(seed=23, n1_values=(60,)), estimators=ALL_ESTIMATORS,
                               degrees=(1, 3), n_scenarios=1, n_runs=2, workers=1)
    names = {r["estimator"] for r in result.combo_rows}
    assert names == set(ALL_ESTIMATORS)
    assert all(np.isfinite(r["rmse"]) for r in result.combo_rows)
    assert all(r["n_failures"] == 0 for r in result.combo_rows)


def test_estimators_that_read_no_f_build_none(monkeypatch):
    """A selection that reads no f builds no OS predictor, and its rows equal
    those of a run of every estimator."""
    from ppgen import grid

    everything = run_scenario_grid(small_grid(seed=23), estimators=grid.ALL_ESTIMATORS,
                                   degrees=(1, 3), n_scenarios=1, n_runs=2, workers=1)

    def no_predictor(*args, **kwargs):
        raise AssertionError("the OS predictor was built")

    monkeypatch.setattr(grid, "os_predictor", no_predictor)
    selected = ("om", "ipw", "dr")
    assert not any(grid.ESTIMATORS[name].reads_f for name in selected)
    without_f = run_scenario_grid(small_grid(seed=23), estimators=selected,
                                  degrees=(1, 3), n_scenarios=1, n_runs=2, workers=1)
    for table in ("scenario_rows", "combo_rows"):
        want = [row for row in getattr(everything, table) if row["estimator"] in selected]
        assert json.dumps(getattr(without_f, table)) == json.dumps(want)


def test_reads_f_says_which_estimators_read_f():
    from ppgen import grid
    from ppgen.estimators import Arm, EstimatorConfig, Target

    rng = np.random.default_rng(3)
    x1, x0 = rng.uniform(-1, 1, 40), rng.uniform(-1, 1, 60)
    y1 = np.sin(x1)
    arm = Arm(x1, y1)
    for name, entry in grid.ESTIMATORS.items():
        p1 = np.full(40, 0.4) if entry.nuisances else None
        with_f = entry.estimate(Arm(x1, y1, np.cos(x1)), p1, EstimatorConfig(2), Target(x0, np.cos(x0)))
        if entry.reads_f:
            with pytest.raises(ValueError, match="no values of f"):
                entry.estimate(arm, p1, EstimatorConfig(2), Target(x0))
        else:
            assert entry.estimate(arm, p1, EstimatorConfig(2), Target(x0)) == with_f, name


def _failing_om(exc):
    def estimate_om(arm, cfg, *, target):
        raise exc

    return estimate_om


def test_grid_counts_named_failures(monkeypatch):
    from ppgen import grid

    monkeypatch.setattr(grid, "estimate_om", _failing_om(PositivityError("no support")))
    result = run_scenario_grid(small_grid(predictor_kind="iid_noise", n1_values=(60,)), estimators=("om", "abc"),
                               degrees=(1,), n_scenarios=1, n_runs=2, workers=1)
    failures = {r["estimator"]: r["n_failures"] for r in result.combo_rows}
    assert failures == {"om": 2, "abc": 0}


def test_grid_propagates_unexpected_errors(monkeypatch):
    from ppgen import grid

    monkeypatch.setattr(grid, "estimate_om", _failing_om(TypeError("a bug")))
    with pytest.raises(TypeError):
        run_scenario_grid(small_grid(predictor_kind="iid_noise", n1_values=(60,)), estimators=("om",),
                          degrees=(1,), n_scenarios=1, n_runs=1, workers=1)


def _two_run_grid():
    from ppgen import grid

    return run_scenario_grid(small_grid(predictor_kind="iid_noise", n1_values=(60,)), estimators=grid.ALL_ESTIMATORS,
                             degrees=(1, 3), n_scenarios=1, n_runs=2, workers=1)


def test_a_failed_nuisance_fit_leaves_its_degree_of_the_weighting_estimators_nan(monkeypatch):
    from ppgen import grid

    fit = grid.fit_nuisances

    def failing_at_3(exc):
        def fit_nuisances(x_trial, target, degree):
            if degree == 3:
                raise exc
            return fit(x_trial, target, degree)

        return fit_nuisances

    clean = _two_run_grid()
    monkeypatch.setattr(grid, "fit_nuisances", failing_at_3(np.linalg.LinAlgError("not positive definite")))
    failed = _two_run_grid()
    stopped = 0
    for before, after in zip(clean.scenario_rows + clean.combo_rows, failed.scenario_rows + failed.combo_rows):
        if grid.ESTIMATORS[after["estimator"]].nuisances and after["degree"] == 3:  # ipw, dr, dr-abc, dr-pa
            assert after["n_failures"] == 2 and np.isnan(after["rmse"])
            stopped += 1
        else:
            assert json.dumps(after) == json.dumps(before)
    assert stopped == 2 * 4  # scenario and combo rows of the four weighting estimators
    assert sum(r["n_failures"] for r in failed.combo_rows) == sum(
        int(np.isnan(r["estimates"]).sum()) for r in failed.scenario_rows) == 4 * 2

    monkeypatch.setattr(grid, "fit_nuisances", failing_at_3(RuntimeError("a bug")))
    with pytest.raises(RuntimeError):
        _two_run_grid()


def test_a_failed_trial_draw_leaves_its_run_nan(monkeypatch):
    from ppgen import grid
    from ppgen.domain import GenerationError

    draw = grid.draw_trial
    seeds = []

    def draw_trial(world, n1, seed):
        seeds.append(seed)
        if len(seeds) == 2:  # the second run
            raise GenerationError("rejection sampling ran out")
        return draw(world, n1, seed)

    clean = _two_run_grid()
    monkeypatch.setattr(grid, "draw_trial", draw_trial)
    failed = _two_run_grid()
    for before, after in zip(clean.scenario_rows, failed.scenario_rows):  # os-om included: the run has no sample
        assert np.isnan(after["estimates"][1]) and after["n_failures"] == 1
        assert after["estimates"][0] == before["estimates"][0]


def test_table2_leaves_named_failures_nan(monkeypatch):
    from ppgen import grid

    monkeypatch.setattr(grid, "estimate_om", _failing_om(PositivityError("no support")))
    result = run_table2(master_seed=5, n_ground_truths=1, n_runs=2, workers=1, rows=TABLE2_ROWS[:1])
    mse = {(r["estimator"], r["order"]): r["mse"] for r in result.table_rows}
    assert all(np.isnan(mse[("om", order)]) and np.isfinite(mse[("abc", order)]) for order in (1, 5))


def test_table2_propagates_unexpected_errors(monkeypatch):
    from ppgen import grid

    monkeypatch.setattr(grid, "estimate_om", _failing_om(TypeError("a bug")))
    with pytest.raises(TypeError):
        run_table2(master_seed=5, n_ground_truths=1, n_runs=1, workers=1, rows=TABLE2_ROWS[:1])


def test_grid_deterministic_across_workers():
    grid = small_grid(seed=13)
    a = run_scenario_grid(grid, degrees=(1, 3), n_scenarios=2, n_runs=2, workers=1)
    b = run_scenario_grid(grid, degrees=(1, 3), n_scenarios=2, n_runs=2, workers=2)
    assert a.combo_csv_text() == b.combo_csv_text()


def test_combo_csv_schema():
    result = run_scenario_grid(small_grid(n1_values=(60,)), degrees=(1,), n_scenarios=1, n_runs=1, workers=1)
    lines = result.combo_csv_text().splitlines()
    assert lines[0] == (
        "combo_id,n1,l_x_fom1,l_u_pa,alpha_u_pa,estimator,degree,"
        "rmse,bias_sq,variance,n_scenarios,n_runs,n_failures,master_seed"
    )
    assert len(lines) == 1 + len(result.combo_rows)
    assert all(line.count(",") == 13 for line in lines[1:])


def test_target_and_predictor_shared_across_trial_sizes():
    grid = small_grid(seed=17)
    result = run_scenario_grid(grid, degrees=(1,), n_scenarios=2, n_runs=3, workers=1)
    c60, c120 = (combo_id(combo) for combo in grid.combos)
    os_om_60 = result.scenario_values(c60, "os-om", -1)
    os_om_120 = result.scenario_values(c120, "os-om", -1)
    assert np.array_equal(os_om_60, os_om_120)  # no trial data enters OS-OM


def _scenario_rows_by_conf(predictor_kind: str) -> dict:
    """conf -> (scenario, n1, estimator, degree) -> the scenario row without
    the fields that name the confounding setting, over all three settings."""
    grid = benchmark_grid(7, lx_values=(0.5,), n0=2_000, n_os=5_000, predictor_kind=predictor_kind)
    rows = run_scenario_grid(grid, estimators=ALL_ESTIMATORS, degrees=(1, 3), n_scenarios=2, n_runs=2).scenario_rows
    by_conf = defaultdict(dict)
    for r in rows:
        rest = {k: v for k, v in r.items() if k not in ("combo_id", "l_u_pa", "alpha_u_pa")}
        by_conf[r["combo_id"].rsplit("conf=", 1)[1]][(r["scenario"], r["n1"], r["estimator"], r["degree"])] = \
            json.dumps(rest)  # NaN compares equal to NaN in its text
    assert sorted(by_conf) == ["mid", "none", "strong"]
    assert by_conf["none"].keys() == by_conf["mid"].keys() == by_conf["strong"].keys()
    return by_conf


def test_confounding_touches_only_the_estimators_that_read_f():
    # confounding shapes the OS cohort's treatment, so only f sees it; the
    # trial's treatment is randomized
    no_f = tuple(name for name, e in ESTIMATORS.items() if not e.reads_f)
    assert no_f == ("om", "ipw", "dr")
    by_conf = _scenario_rows_by_conf("learned")
    none, mid, strong = by_conf["none"], by_conf["mid"], by_conf["strong"]
    for key in none:
        if key[2] in no_f:
            assert none[key] == mid[key] == strong[key], key
    assert any(none[key] != strong[key] for key in none if key[2] == "abc")
    # the i.i.d.-noise predictor is drawn without the OS cohort, so no estimator sees it
    by_conf = _scenario_rows_by_conf("iid_noise")
    for key in by_conf["none"]:
        assert by_conf["none"][key] == by_conf["mid"][key] == by_conf["strong"][key], key


def test_a_scenarios_confounding_settings_share_what_reads_no_pa(monkeypatch):
    """One task runs a scenario's three settings at one length-scale: the
    target draw and mu once, the learned OS predictor once per setting (the
    i.i.d.-noise one, which reads no world, once), and the nuisance fits and
    the estimators that read no f once per (n1, run, degree).  Its rows equal
    those of each setting run alone."""
    from ppgen import grid

    calls = Counter()

    def counted(name):
        fn = getattr(grid, name)

        def count(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(grid, name, count)

    shared = ("draw_target", "true_mu", "os_predictor", "fit_nuisances", "estimate_om", "estimate_ipw",
              "estimate_dr_baseline", "estimate_abc")
    for name in shared:
        counted(name)
    per_trial = 2 * 2 * 2  # (n1, run, degree)
    key = lambda row: (row["combo_id"], row["estimator"], row["degree"], row["scenario"])
    for predictor_kind, n_predictors in (("learned", 3), ("iid_noise", 1)):
        three = benchmark_grid(5, n1_values=(60, 120), lx_values=(0.5,), n0=400, n_os=2_000,
                               predictor_kind=predictor_kind)
        assert len(three.combos) == 6

        def run(combos):
            return run_scenario_grid(replace(three, combos=combos), estimators=ALL_ESTIMATORS, degrees=(1, 3),
                                     n_scenarios=1, n_runs=2).scenario_rows

        alone = [row for conf in ("none", "mid", "strong")
                 for row in run([combo for combo in three.combos if combo.conf == conf])]
        calls.clear()
        together = run(three.combos)
        assert calls == {"draw_target": 1, "true_mu": 1, "os_predictor": n_predictors, "fit_nuisances": per_trial,
                         "estimate_om": per_trial, "estimate_ipw": per_trial, "estimate_dr_baseline": per_trial,
                         "estimate_abc": n_predictors * per_trial}, predictor_kind
        assert json.dumps(together) == json.dumps(sorted(alone, key=key)), predictor_kind


def test_mean_rmse_is_nan_where_a_scenario_has_no_successful_run(monkeypatch):
    from ppgen import grid

    monkeypatch.setattr(grid, "estimate_om", _failing_om(PositivityError("no support")))
    result = run_scenario_grid(small_grid(predictor_kind="iid_noise", n1_values=(60,)), estimators=("om", "aom"),
                               degrees=(1,), n_scenarios=2, n_runs=2)
    cid = combo_id(small_grid(n1_values=(60,)).combos[0])
    assert all(np.isnan(result.mean_rmse(cid, "om", (1,))))
    assert all(np.isnan(result.rmse_gap(cid, "aom", "om", (1,))))
    assert all(np.isfinite(result.mean_rmse(cid, "aom", (1,))))


def test_mean_rmse_and_gap():
    result = run_scenario_grid(small_grid(seed=19, n1_values=(60,)), degrees=(1, 3),
                               n_scenarios=2, n_runs=4, workers=1)
    cid = combo_id(small_grid(seed=19).combos[0])
    value, se = result.mean_rmse(cid, "om", (1, 3))
    assert np.isfinite(value) and se > 0
    gap, gap_se = result.rmse_gap(cid, "om", "abc", (1, 3))
    assert np.isfinite(gap) and gap_se > 0
    with pytest.raises(ValueError, match="no degrees"):
        result.mean_rmse(cid, "om", ())
    for combo, estimator, degrees, missing in [
        ("no-such-combo", "om", (1,), ("no-such-combo", "om", 1)),
        (cid, "ipw", (1, 3), (cid, "ipw", 1)),  # ipw was not run
        (cid, "om", (1, 5), (cid, "om", 5)),
    ]:
        no_rows = re.escape(f"no scenario rows for (combo, estimator, degree) {missing}")
        with pytest.raises(ValueError, match=no_rows):
            result.mean_rmse(combo, estimator, degrees)
        with pytest.raises(ValueError, match=no_rows):
            result.rmse_gap(combo, estimator, "om", degrees)


def test_unknown_estimator_rejected_before_any_world(monkeypatch):
    from ppgen import grid

    def no_world(*args):
        raise AssertionError("a world was built")

    monkeypatch.setattr(grid, "gp_world", no_world)
    with pytest.raises(ValueError, match="omm.*valid: om, os-om"):
        run_scenario_grid(small_grid(n1_values=(60,)), estimators=("om", "omm"), n_scenarios=1, n_runs=1)
    # a repeat would fit the estimator twice per run and write its rows twice
    with pytest.raises(ValueError, match=re.escape("estimators named more than once: ['om']")):
        run_scenario_grid(small_grid(n1_values=(60,)), estimators=("om", "abc", "om"), n_scenarios=1, n_runs=1)
    for degrees in ((-1,), (True,), (1, False), (2.5,)):  # a bool is an int, but no degree
        with pytest.raises(ValueError, match="degrees"):
            run_scenario_grid(small_grid(n1_values=(60,)), degrees=degrees, n_scenarios=1, n_runs=1)
    with pytest.raises(ValueError, match="degrees"):
        grid.check_degrees((True,))


def _combo_twice():
    return replace(small_grid(), combos=small_grid().combos[:1] * 2)


def _later_combo_twice():
    return replace(small_grid(), combos=small_grid().combos + small_grid().combos[1:])


@pytest.mark.parametrize("make_grid, sizes, message", [
    (_combo_twice, {}, "combo more than once"),
    (_later_combo_twice, {}, "combo more than once"),
    (small_grid, {"n_scenarios": 0}, "n_scenarios and n_runs must be positive"),
    (small_grid, {"n_runs": 0}, "n_scenarios and n_runs must be positive"),
    (small_grid, {"n_scenarios": -2}, "n_scenarios and n_runs must be positive"),
], ids=["combo-twice", "later-combo-twice", "no-scenarios", "no-runs", "negative-scenarios"])
def test_grids_that_would_corrupt_the_tables_rejected_before_any_world(monkeypatch, make_grid, sizes, message):
    from ppgen import grid

    def no_world(*args):
        raise AssertionError("a world was built")

    monkeypatch.setattr(grid, "gp_world", no_world)
    with pytest.raises(ValueError, match=message):
        run_scenario_grid(make_grid(), **{"n_scenarios": 1, "n_runs": 1, **sizes})


def _no_world(*args):
    raise AssertionError("a world was built")


def test_grid_without_estimators_rejected_before_any_world(monkeypatch):
    from ppgen import grid

    monkeypatch.setattr(grid, "gp_world", _no_world)
    with pytest.raises(ValueError, match="no estimators selected"):
        run_scenario_grid(small_grid(n1_values=(60,)), estimators=(), n_scenarios=1, n_runs=1)


def test_unknown_confounding_label_rejected_before_any_spec():
    with pytest.raises(ValueError, match=re.escape("unknown confounding ['mild']; valid: none, mid, strong")):
        benchmark_grid(7, confounding=("none", "mild"))
    with pytest.raises(ValueError, match=re.escape("the grid lists a combo more than once")):
        benchmark_grid(7, confounding=("mid", "mid"))


@pytest.mark.parametrize("lx", [float("nan"), float("inf"), 0.0, -0.5])
def test_non_finite_length_scale_rejected_before_any_world(lx):
    # a length-scale that is not positive and finite would stop each task at its world's draw
    with pytest.raises(ValueError, match="active length-scales must be strictly positive and finite"):
        benchmark_grid(7, lx_values=(0.5, lx))


def test_table2_without_rows_rejected_before_any_world(monkeypatch):
    from ppgen import grid

    monkeypatch.setattr(grid, "_sample_glm_world", _no_world)
    with pytest.raises(ValueError, match="no table2 rows selected"):
        run_table2(master_seed=7, n_ground_truths=1, n_runs=2, rows=())


@pytest.mark.parametrize("sizes", [{"n_ground_truths": 0}, {"n_runs": 0}, {"n_ground_truths": -1}],
                         ids=["no-ground-truths", "no-runs", "negative-ground-truths"])
def test_table2_sizes_must_be_positive(monkeypatch, sizes):
    from ppgen import grid

    def no_world(*args):
        raise AssertionError("a world was built")

    monkeypatch.setattr(grid, "_sample_glm_world", no_world)
    with pytest.raises(ValueError, match="n_ground_truths and n_runs must be positive"):
        run_table2(master_seed=5, **{"n_ground_truths": 1, "n_runs": 1, **sizes}, rows=TABLE2_ROWS[:1])


@pytest.mark.parametrize("rows, repeated", [
    (TABLE2_ROWS[:1] * 2, r"\[1\]"),
    (TABLE2_ROWS[:3] + TABLE2_ROWS[2:3] + TABLE2_ROWS[:1], r"\[1, 3\]"),
], ids=["row-twice", "two-rows-twice"])
def test_table2_rows_that_repeat_a_row_id_rejected_before_any_world(monkeypatch, rows, repeated):
    from ppgen import grid

    def no_world(*args):
        raise AssertionError("a world was built")

    monkeypatch.setattr(grid, "_sample_glm_world", no_world)
    with pytest.raises(ValueError, match="row_id more than once: " + repeated):
        run_table2(master_seed=7, n_ground_truths=1, n_runs=2, rows=rows)


def test_table2_structure_and_determinism():
    res_a = run_table2(master_seed=5, n_ground_truths=2, n_runs=3, workers=1, rows=TABLE2_ROWS[:1])
    res_b = run_table2(master_seed=5, n_ground_truths=2, n_runs=3, workers=2, rows=TABLE2_ROWS[:1])
    assert res_a.csv_text() == res_b.csv_text()
    lines = res_a.csv_text().splitlines()
    assert lines[0] == "row_id,gamma,sigma,beta_scale,lambda_scale,estimator,order,mse"
    assert len(lines) == 1 + 4  # abc/om at orders 1 and 5
    assert all(np.isfinite(r["mse"]) for r in res_a.table_rows)
