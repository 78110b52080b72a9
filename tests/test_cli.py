import json

from ppgen.cli import main


def test_checks_subcommand_writes_outputs(tmp_path):
    code = main([
        "checks", "--check", "orthonormality,prop1", "--scale", "0.05",
        "--seed", "3", "--out", str(tmp_path),
    ])
    assert code == 0
    payload = json.loads((tmp_path / "checks.json").read_text())
    assert {r["name"] for r in payload["results"]} == {"orthonormality", "prop1"}
    assert all(r["passed"] for r in payload["results"])
    assert (tmp_path / "checks.csv").read_text().startswith("name,passed,detail")


def test_environment_reports_unset_blas_variables_as_null(tmp_path, monkeypatch):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    for name in ("OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(name, raising=False)
    assert main(["checks", "--check", "orthonormality", "--workers", "3", "--out", str(tmp_path)]) == 0
    env = json.loads((tmp_path / "checks.json").read_text())["environment"]
    assert env["workers"] == 3
    assert (env["OPENBLAS_NUM_THREADS"], env["OMP_NUM_THREADS"], env["MKL_NUM_THREADS"]) == ("1", None, None)
    # the CSV carries the results only
    assert "environment" not in (tmp_path / "checks.csv").read_text()


def _checks_payload(tmp_path, *flags) -> dict:
    assert main(["checks", "--check", "orthonormality", *flags, "--out", str(tmp_path)]) == 0
    return json.loads((tmp_path / "checks.json").read_text())


def test_peak_rss_is_the_process_peak_next_to_the_runtime(tmp_path):
    import resource

    payload = _checks_payload(tmp_path, "--workers", "1")
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    assert list(payload)[list(payload).index("runtime_seconds") + 1] == "peak_rss_mb"
    assert 0 < payload["peak_rss_mb"] <= after + 0.05
    assert "peak_rss_mb" not in (tmp_path / "checks.csv").read_text()


def test_peak_rss_counts_pool_workers_only_with_several_workers(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from ppgen import cli

    kib = {"self": 100 * 1024, "children": 300 * 1024}
    fake = SimpleNamespace(
        RUSAGE_SELF="self", RUSAGE_CHILDREN="children",
        getrusage=lambda who: SimpleNamespace(ru_maxrss=kib[who]),
    )
    monkeypatch.setattr(cli, "resource", fake)
    monkeypatch.setattr(cli.sys, "platform", "linux")
    assert _checks_payload(tmp_path, "--workers", "1")["peak_rss_mb"] == 100.0
    assert _checks_payload(tmp_path, "--workers", "2")["peak_rss_mb"] == 300.0
    kib["self"] = 400 * 1024
    assert _checks_payload(tmp_path, "--workers", "2")["peak_rss_mb"] == 400.0


def test_peak_rss_is_null_without_the_resource_module(tmp_path, monkeypatch):
    from ppgen import cli

    monkeypatch.setattr(cli, "resource", None)
    payload = _checks_payload(tmp_path)
    assert payload["peak_rss_mb"] is None and payload["runtime_seconds"] >= 0


def test_export_world_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["export-world", "--seed", "4", "--out", str(out_a), "--degrees", "3"]) == 0
    assert main(["export-world", "--seed", "4", "--out", str(out_b), "--degrees", "3"]) == 0
    grid_a = (out_a / "world_grid.csv").read_text()
    assert grid_a == (out_b / "world_grid.csv").read_text()
    assert (out_a / "world_fits.csv").read_text() == (out_b / "world_fits.csv").read_text()
    lines = grid_a.splitlines()
    assert lines[0] == "x,u,fom0,fom1,ps,pa"
    assert len(lines) == 1 + 101 * 101


def test_config_file_and_flag_precedence(tmp_path):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 11, "scale": 0.05, "out": str(tmp_path / "from_file")}))
    code = main(["checks", "--config", str(config), "--check", "orthonormality"])
    assert code == 0
    assert (tmp_path / "from_file" / "checks.json").exists()
    # explicit flag beats the file
    code = main([
        "checks", "--config", str(config), "--check", "orthonormality",
        "--out", str(tmp_path / "from_flag"),
    ])
    assert code == 0
    assert (tmp_path / "from_flag" / "checks.json").exists()


def test_env_seed_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("PPGEN_SEED", "123")
    code = main(["checks", "--check", "orthonormality", "--out", str(tmp_path)])
    assert code == 0
    payload = json.loads((tmp_path / "checks.json").read_text())
    assert payload["master_seed"] == 123


def test_noise_robustness_single_combo(tmp_path):
    code = main([
        "noise-robustness", "--combo", "n1=200,lx=0.5,conf=none", "--scale", "0.02",
        "--seed", "5", "--degrees", "1,3", "--estimators", "om,abc,aom",
        "--out", str(tmp_path),
    ])
    assert code == 0
    csv_text = (tmp_path / "noise_robustness.csv").read_text()
    lines = csv_text.splitlines()
    assert lines[0].startswith("combo_id,n1,")
    assert all("n1=200;lx=0.5;conf=none" in line for line in lines[1:])
    assert not any(",os-om," in line for line in lines)  # estimator filter applied
    payload = json.loads((tmp_path / "noise_robustness.json").read_text())
    assert payload["robustness_report"]["entries"]


def test_combo_filter_rejects_unknown(tmp_path):
    import pytest

    with pytest.raises(SystemExit):
        main([
            "figure3", "--combo", "n1=77,lx=0.2,conf=none", "--scale", "0.01",
            "--out", str(tmp_path),
        ])


def test_scale_validation(tmp_path):
    import pytest

    with pytest.raises(SystemExit):
        main(["checks", "--scale", "1.5", "--out", str(tmp_path)])


def test_unknown_estimator_lists_valid_names(tmp_path):
    import pytest

    with pytest.raises(SystemExit, match="omm.*valid: om, os-om, abc"):
        main(["figure3", "--estimators", "omm", "--scale", "0.01", "--out", str(tmp_path)])


def test_degrees_and_combo_validation(tmp_path):
    import pytest

    # -1 is the degree label of os-om; the others do not parse
    for flag, value in [("--degrees", "-1"), ("--degrees", ""), ("--degrees", "1,1"), ("--combo", "lx")]:
        with pytest.raises(SystemExit, match=flag):
            main(["figure3", flag, value, "--scale", "0.01", "--out", str(tmp_path)])


def test_check_names_and_workers_validation(tmp_path, monkeypatch):
    import pytest

    from ppgen import cli

    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_checks", no_run)
    with pytest.raises(SystemExit, match="--check: .*nope.*valid: orthonormality, prop1"):
        main(["checks", "--check", "orthonormality,nope", "--out", str(tmp_path)])
    for workers in ("0", "-3"):
        with pytest.raises(SystemExit, match="--workers"):
            main(["checks", "--check", "orthonormality", "--workers", workers, "--out", str(tmp_path)])


def test_error_inside_a_check_propagates(tmp_path, monkeypatch):
    import pytest

    from ppgen import checks

    def failing(seed, scaled):
        raise ValueError("raised inside a check")

    monkeypatch.setitem(checks.CHECKS, "orthonormality", failing)
    with pytest.raises(ValueError, match="raised inside a check"):
        main(["checks", "--check", "orthonormality", "--out", str(tmp_path)])


def test_commands_reject_selection_flags_they_ignore(tmp_path, monkeypatch):
    import pytest

    from ppgen import cli

    def no_run(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(cli, "run_table2", no_run)
    monkeypatch.setattr(cli, "run_checks", no_run)
    monkeypatch.setattr(cli, "run_scenario_grid", no_run)
    cases = [
        ("table2", "--estimators", "dr"), ("table2", "--degrees", "2"), ("table2", "--combo", "lx=0.9"),
        ("table2", "--check", "prop1"), ("table2", "--max-failures", "3"),
        ("checks", "--estimators", "om"), ("checks", "--degrees", "2"), ("checks", "--combo", "lx=0.9"),
        ("checks", "--max-failures", "3"), ("figure3", "--check", "prop1"),
        ("export-world", "--estimators", "om"), ("export-world", "--combo", "lx=0.2"),
    ]
    for command, flag, value in cases:
        with pytest.raises(SystemExit, match=f"{flag}: {command} does not use this flag"):
            main([command, flag, value, "--scale", "0.01", "--out", str(tmp_path)])


def test_noise_robustness_needs_aom_and_om(tmp_path, monkeypatch):
    import pytest

    from ppgen import cli

    def no_run(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "benchmark_grid", no_run)
    monkeypatch.setattr(cli, "run_scenario_grid", no_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimators": "abc,aom"}))
    for flags in (["--estimators", "om"], ["--estimators", "aom,abc"], ["--config", str(config)]):
        with pytest.raises(SystemExit, match="--estimators: .*aom.*om"):
            main(["noise-robustness", *flags, "--scale", "0.01", "--combo", "n1=200,lx=0.5,conf=mid",
                  "--out", str(tmp_path)])
    assert not list(tmp_path.glob("noise_robustness.*"))


def test_config_file_format_is_validated(tmp_path, monkeypatch):
    import pytest

    from ppgen import cli

    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_checks", no_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"format": "xml"}))
    with pytest.raises(SystemExit, match="--format .*csv, json, both.*'xml'"):
        main(["checks", "--config", str(config), "--check", "orthonormality", "--out", str(tmp_path)])
    assert not list(tmp_path.glob("checks.*"))
