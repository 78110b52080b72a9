import json
import re
import sys
import types
from pathlib import Path

import pytest

from ppgen import cli
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


def test_environment_reports_each_librarys_openblas_threads_and_kernel(tmp_path):
    env = _checks_payload(tmp_path)["environment"]
    for lib in ("numpy", "scipy"):
        record = env[f"{lib}_openblas"]
        assert set(record) == {"threads", "core"}
        if record["threads"] == "unavailable":  # a wheel without the OpenBLAS getters
            assert record["core"] == "unavailable"
        else:
            assert isinstance(record["threads"], int) and record["threads"] >= 1
            assert isinstance(record["core"], str) and record["core"]


def test_an_openblas_without_the_getters_reads_unavailable():
    # a linked OpenBLAS asked for names it does not export, and a module that is no shared library
    for module, suffix in (("scipy.linalg._fblas", "_absent"), ("json", "")):
        assert cli._openblas(module, suffix) == {"threads": "unavailable", "core": "unavailable"}


def test_environment_reports_numpys_dispatched_cpu_targets(tmp_path):
    record = _checks_payload(tmp_path)["environment"]["numpy_cpu"]
    assert set(record) == {"baseline", "dispatched"}
    umath = sys.modules["numpy._core._multiarray_umath"]
    assert record["baseline"] == list(umath.__cpu_baseline__)
    assert all(t in umath.__cpu_dispatch__ and umath.__cpu_features__[t] for t in record["dispatched"])


def test_a_numpy_without_the_dispatch_record_reads_unavailable(monkeypatch):
    monkeypatch.setitem(sys.modules, "numpy._core._multiarray_umath", types.ModuleType("stub"))
    assert cli._numpy_cpu() == "unavailable"


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


def _flag_error(capsys, argv) -> str:
    """The error argparse gives a bad flag: exit 2, with the usage and the message on stderr."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


def test_combo_filter_rejects_unknown(tmp_path):
    import pytest

    with pytest.raises(SystemExit):
        main([
            "figure3", "--combo", "n1=77,lx=0.2,conf=none", "--scale", "0.01",
            "--out", str(tmp_path),
        ])


def test_combo_values_match_by_number(tmp_path, capsys):
    grid = cli.benchmark_grid(7)
    chosen = {text: cli._filter_grid(grid, [cli._combo(text)]).combos for text in ("lx=0.5", "lx=0.50", "n1=200,lx=.5")}
    assert len(chosen["lx=0.5"]) == 6 and all(combo.lx == 0.5 for combo in chosen["lx=0.5"])
    assert chosen["lx=0.50"] == chosen["lx=0.5"]
    assert chosen["n1=200,lx=.5"] == tuple(combo for combo in chosen["lx=0.5"] if combo.n1 == 200)
    for value, message in [("n1=200.0", "invalid literal for int() with base 10: '200.0'"),
                           ("lx=wide", "could not convert string to float: 'wide'")]:
        err = _flag_error(capsys, ["figure3", "--combo", value, "--scale", "0.01", "--out", str(tmp_path)])
        assert f"argument --combo: {message}" in err


def test_a_union_of_combo_filters_keeps_the_grids_order_and_settings():
    grid = cli.benchmark_grid(7, predictor_kind="iid_noise")
    union = cli._filter_grid(grid, [cli._combo("n1=200,lx=0.5"), cli._combo("n1=1000,conf=strong")])
    # not a product of axes: three settings at n1=200, lx=0.5, and strong alone at n1=1000
    assert union.combos == ((200, 0.5, "none"), (200, 0.5, "mid"), (200, 0.5, "strong"),
                            (1000, 0.5, "strong"), (1000, 0.2, "strong"))
    assert (union.master_seed, union.n0, union.n_os, union.predictor_kind) == (7, 20_000, 50_000, "iid_noise")
    assert cli._filter_grid(grid, None) is grid
    with pytest.raises(SystemExit, match="no combos match"):
        cli._filter_grid(grid, [cli._combo("n1=77")])


def test_scale_validation(tmp_path, capsys):
    err = _flag_error(capsys, ["checks", "--scale", "1.5", "--out", str(tmp_path)])
    assert "ppgen checks: error: argument --scale: must lie in (0, 1]" in err


def test_unknown_estimator_lists_valid_names(tmp_path, capsys):
    err = _flag_error(capsys, ["figure3", "--estimators", "omm", "--scale", "0.01", "--out", str(tmp_path)])
    assert "argument --estimators: unknown estimators ['omm']; valid: om, os-om, abc" in err


def test_degrees_and_combo_validation(tmp_path, capsys):
    # -1 is the degree label of os-om; the others do not parse
    for flag, value, message in [
        ("--degrees", "-1", "degrees must be distinct nonnegative integers, got (-1,)"),
        ("--degrees", "", "invalid literal for int() with base 10: ''"),
        ("--degrees", "1,1", "degrees must be distinct nonnegative integers, got (1, 1)"),
        ("--combo", "lx", "expected key=value pairs such as n1=200,lx=0.2,conf=none, not 'lx'"),
    ]:
        err = _flag_error(capsys, ["figure3", flag, value, "--scale", "0.01", "--out", str(tmp_path)])
        assert f"argument {flag}: {message}" in err


def test_combo_keys_and_confounding_are_checked_where_parsed(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "benchmark_grid", lambda *args, **kwargs: pytest.fail("the grid was built"))
    config = tmp_path / "config.json"
    for value, message in [("l=0.5", "unknown combo keys ['l']; valid: n1, lx, conf"),
                           ("n1=200,conf=mod", "unknown confounding ['mod']; valid: none, mid, strong"),
                           ("lx=0.5,lx=0.2", "combo keys named more than once: ['lx']")]:
        err = _flag_error(capsys, ["figure3", "--combo", value, "--scale", "0.01", "--out", str(tmp_path)])
        assert f"argument --combo: {message}" in err
        config.write_text(json.dumps({"combo": [value]}))
        with pytest.raises(SystemExit, match=re.escape(f"--config {config}: argument --combo: {message}")):
            main(["figure3", "--config", str(config), "--scale", "0.01", "--out", str(tmp_path)])
    assert not list(tmp_path.glob("figure3.*"))


def test_check_names_and_workers_validation(tmp_path, monkeypatch, capsys):
    _no_checks(monkeypatch)
    err = _flag_error(capsys, ["checks", "--check", "orthonormality,nope", "--out", str(tmp_path)])
    assert "argument --check: unknown check ['nope']; valid: orthonormality, prop1" in err
    for workers in ("0", "-3"):
        err = _flag_error(capsys, ["checks", "--check", "orthonormality", "--workers", workers, "--out", str(tmp_path)])
        assert "ppgen checks: error: argument --workers: must be at least 1" in err


def test_a_repeated_estimator_or_check_name_is_rejected(tmp_path, monkeypatch, capsys):
    _no_checks(monkeypatch)
    monkeypatch.setattr(cli, "run_scenario_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
    err = _flag_error(capsys, ["figure3", "--estimators", "om,om", "--degrees", "1", "--combo",
                               "n1=200,lx=0.5,conf=mid", "--scale", "0.01", "--out", str(tmp_path)])
    assert "argument --estimators: estimators named more than once: ['om']" in err
    err = _flag_error(capsys, ["checks", "--check", "prop1,orthonormality,prop1", "--out", str(tmp_path)])
    assert "argument --check: check named more than once: ['prop1']" in err
    # across flags, the names are joined before any check runs
    with pytest.raises(SystemExit) as exc:
        main(["checks", "--check", "orthonormality", "--check", "orthonormality", "--out", str(tmp_path)])
    assert exc.value.code == "--check: check named more than once: ['orthonormality']"
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"check": ["orthonormality", "orthonormality"]}))
    with pytest.raises(SystemExit) as exc:
        main(["checks", "--config", str(config), "--out", str(tmp_path)])
    assert exc.value.code == f"--config {config}: argument --check: check named more than once: ['orthonormality']"
    assert not list(tmp_path.glob("figure3.*")) and not list(tmp_path.glob("checks.*"))


def test_error_inside_a_check_propagates(tmp_path, monkeypatch):
    import pytest

    from ppgen import checks

    def failing(seed, scaled):
        raise ValueError("raised inside a check")

    monkeypatch.setitem(checks.CHECKS, "orthonormality", failing)
    with pytest.raises(ValueError, match="raised inside a check"):
        main(["checks", "--check", "orthonormality", "--out", str(tmp_path)])


def test_commands_reject_selection_flags_they_ignore(tmp_path, monkeypatch, capsys):
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
        err = _flag_error(capsys, [command, flag, value, "--scale", "0.01", "--out", str(tmp_path)])
        assert f"ppgen: error: unrecognized arguments: {flag} {value}" in err


# the common flags, which every command reads, and each command's own
COMMON_FLAGS = ["--config", "--scale", "--seed", "--out", "--format", "--workers"]
GRID_FLAGS = ["--combo", "--estimators", "--degrees", "--max-failures"]
COMMAND_FLAGS = {"figure3": GRID_FLAGS, "ipwdr": GRID_FLAGS, "table2": [], "noise-robustness": GRID_FLAGS,
                 "checks": ["--check"], "export-world": ["--degrees"]}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS))
def test_each_commands_help_lists_only_the_flags_it_reads(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    options = capsys.readouterr().out.split("options:\n", 1)[1]
    listed = re.findall(r"^  (?:-h, )?(--[a-z-]+)", options, flags=re.MULTILINE)
    assert listed == ["--help", *COMMON_FLAGS, *COMMAND_FLAGS[command]]
    assert [f"--{flag}" for flag in cli.COMMANDS[command].flags] == COMMAND_FLAGS[command]


def test_max_failures_below_zero_exits_before_the_run(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "run_scenario_grid", no_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"max-failures": -1}))
    err = _flag_error(capsys, ["figure3", "--max-failures=-1", "--scale", "0.01", "--out", str(tmp_path)])
    assert "argument --max-failures: must be at least 0" in err
    with pytest.raises(SystemExit, match=re.escape(f"--config {config}: argument --max-failures: must be at least 0")):
        main(["figure3", "--config", str(config), "--scale", "0.01", "--out", str(tmp_path)])
    assert not list(tmp_path.glob("figure3.*"))


def test_export_world_degrees_names_one_degree(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the world was built")

    monkeypatch.setattr(cli, "gp_world", no_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"degrees": [5, 1]}))
    message = "argument --degrees: export-world fits one degree, not 5,1"
    assert message in _flag_error(capsys, ["export-world", "--degrees", "5,1", "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match=re.escape(f"--config {config}: {message}")):
        main(["export-world", "--config", str(config), "--out", str(tmp_path)])
    assert not list(tmp_path.glob("world_*"))


def test_readme_cli_block_names_every_command_once():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    named = [line.split()[1] for line in block.splitlines() if line.startswith("ppgen ")]
    assert named == list(cli.COMMANDS)


def test_noise_robustness_needs_aom_and_om(tmp_path, monkeypatch, capsys):
    def no_run(*args, **kwargs):
        raise AssertionError("the grid ran")

    monkeypatch.setattr(cli, "benchmark_grid", no_run)
    monkeypatch.setattr(cli, "run_scenario_grid", no_run)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"estimators": "abc,aom"}))
    message = "argument --estimators: noise-robustness compares aom with om, so it needs both"
    for flags in (["--estimators", "om"], ["--estimators", "aom,abc"]):
        assert message in _flag_error(capsys, ["noise-robustness", *flags, "--scale", "0.01", "--combo",
                                               "n1=200,lx=0.5,conf=mid", "--out", str(tmp_path)])
    with pytest.raises(SystemExit, match=re.escape(f"--config {config}: {message}")):
        main(["noise-robustness", "--config", str(config), "--scale", "0.01", "--combo", "n1=200,lx=0.5,conf=mid",
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
    message = "argument --format: must be one of csv, json, both, not 'xml'"
    with pytest.raises(SystemExit, match=re.escape(f"--config {config}: {message}")):
        main(["checks", "--config", str(config), "--check", "orthonormality", "--out", str(tmp_path)])
    assert not list(tmp_path.glob("checks.*"))


def _no_checks(monkeypatch):
    from ppgen import cli

    def no_run(*args, **kwargs):
        raise AssertionError("a check ran")

    monkeypatch.setattr(cli, "run_checks", no_run)


CONFIG_ERRORS = [
    ("checks", {"seed": 1.5}, "argument --seed: invalid int value: '1.5'"),
    ("checks", {"sede": 3}, "unrecognized arguments: --sede=3"),
    ("checks", {"sca": 0.5}, "unrecognized arguments: --sca=0.5"),  # keys are whole flag names
    ("checks", {"estimators": "om"}, "unrecognized arguments: --estimators=om"),
    ("checks", {"workers": "two"}, "argument --workers: invalid int value: 'two'"),
    ("checks", {"scale": "half"}, "argument --scale: invalid float value: 'half'"),
    ("checks", {"config": "other.json"}, "a config file cannot name another"),
    # values that parse but that the flag's type rejects, as it rejects the flag's
    ("checks", {"workers": 0}, "argument --workers: must be at least 1"),
    ("checks", {"scale": 1.5}, "argument --scale: must lie in (0, 1]"),
    ("figure3", {"max-failures": -1}, "argument --max-failures: must be at least 0"),
    ("figure3", {"estimators": "omm"}, "argument --estimators: unknown estimators ['omm']"),
    ("checks", {"check": "nope"}, "argument --check: unknown check ['nope']"),
    ("figure3", {"degrees": "1,1"}, "argument --degrees: degrees must be distinct nonnegative integers"),
    ("figure3", {"combo": "lx"}, "argument --combo: expected key=value pairs"),
    ("figure3", {"estimators": "om,om"}, "argument --estimators: estimators named more than once: ['om']"),
]


def _first_key_ids(cases) -> list[str]:
    """Each case's first entry name, with its value where an earlier case has that name."""
    ids = []
    for _, entries, _ in cases:
        key = next(iter(entries))
        ids.append(f"{key}={entries[key]}" if key in ids else key)
    return ids


@pytest.mark.parametrize("command, entries, message", CONFIG_ERRORS, ids=_first_key_ids(CONFIG_ERRORS))
def test_config_file_entries_are_parsed_like_flags(tmp_path, monkeypatch, command, entries, message):
    _no_checks(monkeypatch)
    monkeypatch.setattr(cli, "run_scenario_grid", lambda *args, **kwargs: pytest.fail("the grid ran"))
    config = tmp_path / "config.json"
    config.write_text(json.dumps(entries))
    with pytest.raises(SystemExit, match=re.escape(f"--config {config}: {message}")):
        main([command, "--config", str(config), "--out", str(tmp_path)])
    assert not list(tmp_path.glob(f"{command}.*"))


def test_env_seed_and_config_lists_are_parsed_like_flags(tmp_path, monkeypatch):
    from ppgen.grid import combo_id

    monkeypatch.setenv("PPGEN_SEED", "5")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"seed": 6, "scale": 0.05, "check": ["orthonormality", "prop1"]}))
    # the file beats the environment, and a list stands for the flag's values
    assert main(["checks", "--config", str(config), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "checks.json").read_text())
    assert payload["master_seed"] == 6
    assert [r["name"] for r in payload["results"]] == ["orthonormality", "prop1"]
    # each item of a combo list is one filter
    seen = {}

    class Captured(Exception):
        pass

    def capture(grid, **kwargs):
        seen.update(combos=[combo_id(combo) for combo in grid.combos], **kwargs)
        raise Captured

    monkeypatch.setattr(cli, "run_scenario_grid", capture)
    config.write_text(json.dumps({"combo": ["n1=200,lx=0.5,conf=mid", "n1=1000,lx=0.2,conf=none"],
                                  "estimators": ["om", "abc"], "degrees": [3, 1]}))
    with pytest.raises(Captured):
        main(["figure3", "--config", str(config), "--out", str(tmp_path)])
    assert seen["combos"] == ["n1=200;lx=0.5;conf=mid", "n1=1000;lx=0.2;conf=none"]
    assert (seen["estimators"], seen["degrees"]) == (("om", "abc"), (3, 1))
    # an explicit seed makes a bad PPGEN_SEED irrelevant; without one it stops the run
    monkeypatch.setenv("PPGEN_SEED", "abc")
    assert _checks_payload(tmp_path, "--seed", "4")["master_seed"] == 4
    _no_checks(monkeypatch)
    with pytest.raises(SystemExit, match=re.escape("PPGEN_SEED: argument --seed: invalid int value: 'abc'")):
        main(["checks", "--check", "orthonormality", "--out", str(tmp_path)])


CONFIG_FILE_ERRORS = [
    (None, "No such file or directory"),  # no file at all
    ("{bad", "Expecting property name"),
    ("[1]", "expected a JSON object of flag names and values"),
]


@pytest.mark.parametrize("text, message", CONFIG_FILE_ERRORS, ids=["missing", "malformed", "not-an-object"])
def test_unreadable_config_file_exits_naming_it(tmp_path, monkeypatch, text, message):
    _no_checks(monkeypatch)
    config = tmp_path / "config.json"
    if text is not None:
        config.write_text(text)
    with pytest.raises(SystemExit, match=re.escape(f"--config {config}: ") + f".*{message}"):
        main(["checks", "--config", str(config), "--check", "orthonormality", "--out", str(tmp_path)])
    assert not list(tmp_path.glob("checks.*"))


# command -> the CSVs it writes; its JSON is the command's name with - replaced by _
CSV_OUTPUTS = {
    "figure3": ["figure3.csv"], "ipwdr": ["ipwdr.csv"],
    "noise-robustness": ["noise_robustness.csv"], "table2": ["table2.csv"], "checks": ["checks.csv"],
    "export-world": ["world_fits.csv", "world_grid.csv"],
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", sorted(CSV_OUTPUTS))
def test_format_selects_the_files_every_command_writes(tmp_path, monkeypatch, command, fmt):
    from types import SimpleNamespace

    from ppgen import cli

    # the grids, table2 and the checks are stubbed; export-world runs for real
    grid = SimpleNamespace(combo_rows=[], combo_csv_text=lambda: "combo_id\n")
    monkeypatch.setattr(cli, "run_scenario_grid", lambda *args, **kwargs: grid)
    table = SimpleNamespace(table_rows=[], csv_text=lambda: "row_id\n")
    monkeypatch.setattr(cli, "run_table2", lambda *args, **kwargs: table)
    monkeypatch.setattr(cli, "run_checks", lambda *args, **kwargs: [])
    assert main([command, "--format", fmt, "--scale", "0.01", "--seed", "7", "--out", str(tmp_path)]) == 0
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == (CSV_OUTPUTS[command] if fmt == "csv" else [f"{command.replace('-', '_')}.json"])


def test_a_failed_gate_exits_1_after_writing_its_outputs(tmp_path, monkeypatch):
    from types import SimpleNamespace

    from ppgen import cli
    from ppgen.checks import CheckResult

    monkeypatch.setattr(cli, "run_checks", lambda *args, **kwargs: [CheckResult("prop1", False, "off")])
    assert main(["checks", "--out", str(tmp_path)]) == 1
    assert json.loads((tmp_path / "checks.json").read_text())["results"][0]["passed"] is False
    assert (tmp_path / "checks.csv").read_text().splitlines()[1] == "prop1,0,off"
    grid = SimpleNamespace(combo_rows=[{"n_failures": 2}, {"n_failures": 1}], combo_csv_text=lambda: "combo_id\n")
    monkeypatch.setattr(cli, "run_scenario_grid", lambda *args, **kwargs: grid)
    for max_failures, code in (("2", 1), ("3", 0)):
        (tmp_path / "figure3.json").unlink(missing_ok=True)
        assert main(["figure3", "--max-failures", max_failures, "--scale", "0.01", "--out", str(tmp_path)]) == code
        assert json.loads((tmp_path / "figure3.json").read_text())["rows"] == grid.combo_rows


@pytest.mark.parametrize("below, reason", [(False, "File exists"), (True, "Not a directory")],
                         ids=["a-file", "below-a-file"])
def test_an_out_that_cannot_be_a_directory_exits_before_the_run(tmp_path, monkeypatch, below, reason):
    from ppgen import cli

    def no_run(cfg):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli.COMMANDS, "checks", cli.COMMANDS["checks"]._replace(run=no_run))
    blocker = tmp_path / "F"
    blocker.write_text("kept")
    out = blocker / "sub" if below else blocker
    with pytest.raises(SystemExit, match=re.escape(f"--out {out}: ") + f".*{reason}"):
        main(["checks", "--check", "orthonormality", "--out", str(out)])
    assert blocker.read_text() == "kept"
