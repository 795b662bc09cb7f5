"""End-to-end tests of the command-line interface."""

import pytest
from click.testing import CliRunner

from adicke.cli import main
from adicke.sweep import CSV_COLUMNS


@pytest.fixture()
def runner():
    return CliRunner()


SWEEP_ARGS = ["sweep", "--model", "co_np", "--param", "g", "--from", "0.2",
              "--to", "0.8", "--points", "3", "--gamma", "2", "--j", "2",
              "--nmax", "30"]


def test_sweep_to_stdout(runner):
    result = runner.invoke(main, SWEEP_ARGS)
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 4


def test_sweep_invalid_spec_exits_one(runner):
    result = runner.invoke(main, ["sweep", "--model", "co_np", "--points", "1"])
    assert result.exit_code == 1


def test_sweep_missing_model_exits_one(runner):
    result = runner.invoke(main, ["sweep", "--points", "3"])
    assert result.exit_code == 1


def test_sweep_partial_failure_exits_two(runner, tmp_path):
    out = tmp_path / "rows.csv"
    result = runner.invoke(main, [
        "sweep", "--model", "cs_sp", "--param", "g", "--from", "0.8", "--to", "1.2",
        "--points", "3", "--gamma", "2", "--j", "2", "--nmax", "12",
        "--nmax-b", "12", "--out", str(out)])
    assert result.exit_code == 2
    text = out.read_text()
    assert "false" in text and "true" in text


def test_sweep_config_file_with_flag_override(runner, tmp_path):
    config = tmp_path / "sweep.ini"
    config.write_text("""
[sweep]
model = co_np
param = g
start = 0.2
stop = 0.6
points = 3

[parameters]
gamma = 2
j = 2

[truncation]
n_max = 25

[output]
workers = 1
""")
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = runner.invoke(main, ["sweep", "--config", str(config), "--out", str(out_a)])
    overridden = runner.invoke(main, ["sweep", "--config", str(config),
                                      "--points", "4", "--out", str(out_b)])
    assert base.exit_code == 0 and overridden.exit_code == 0
    assert len(out_a.read_text().strip().split("\n")) == 4
    assert len(out_b.read_text().strip().split("\n")) == 5


def test_sweep_worker_count_does_not_change_bytes(runner, tmp_path):
    outs = []
    for workers, name in ((1, "w1.csv"), (3, "w3.csv")):
        path = tmp_path / name
        result = runner.invoke(main, SWEEP_ARGS + ["--workers", str(workers),
                                                   "--out", str(path)])
        assert result.exit_code == 0
        outs.append(path.read_bytes())
    assert outs[0] == outs[1]


def test_sweep_json_output(runner, tmp_path):
    import json
    path = tmp_path / "rows.json"
    result = runner.invoke(main, SWEEP_ARGS + ["--json", str(path)])
    assert result.exit_code == 0
    payload = json.loads(path.read_text())
    assert len(payload) == 3 and set(payload[0]) == set(CSV_COLUMNS)


def test_gamma_compare_command(runner):
    result = runner.invoke(main, [
        "gamma-compare", "--model", "co_np", "--g", "0.9",
        "--gammas", "1/2,1,2", "--j", "2", "--nmax", "30"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0] == "gamma,I_omega_omega"
    assert len(lines) == 5 and lines[-1].startswith("#")


def test_gamma_compare_flagged_entries_exit_two(runner):
    result = runner.invoke(main, [
        "gamma-compare", "--model", "co_np", "--g", "1.2", "--gammas", "1,2", "--j", "10"])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().split("\n")
    assert [line.split(",")[1] for line in lines if line[0].isdigit()] == ["nan", "nan"]
    assert [line for line in lines if "flagged" in line] == [
        "note: 2 of 2 entries flagged (gamma = 1, 2); the summaries cover the finite entries"]
    bad = runner.invoke(main, [
        "gamma-compare", "--model", "co_np", "--g", "0.9", "--gammas", "1,0", "--j", "10"])
    assert bad.exit_code == 1, bad.output


def test_gamma_compare_summaries_over_too_few_values_are_undefined(runner):
    result = runner.invoke(main, [
        "gamma-compare", "--model", "co_np", "--g", "1.2", "--gammas", "1,2", "--j", "10"])
    assert "# strictly_increasing=undefined reciprocal_asymmetry=nan\n" in result.output
    # one finite value has no order, and gamma = 1 is no reciprocal pair
    result = runner.invoke(main, [
        "gamma-compare", "--model", "co_np", "--g", "0.9", "--gammas", "1", "--j", "10"])
    assert result.exit_code == 0, result.output
    assert result.output.endswith("# strictly_increasing=undefined reciprocal_asymmetry=nan\n")
    result = runner.invoke(main, [
        "gamma-compare", "--model", "co_np", "--g", "0.9", "--gammas", "1/2,2", "--j", "10"])
    summary = result.output.strip().split("\n")[-1]
    assert summary.startswith("# strictly_increasing=") and "undefined" not in summary
    assert float(summary.rsplit("=", 1)[1]) < 1e-8


GAMMA_COMPARE_ARGS = ["gamma-compare", "--model", "cs_np", "--g", "0.9", "--gammas", "1"]


def _gamma_compare_value(result) -> float:
    assert result.exit_code == 0, result.output
    return float(result.output.strip().split("\n")[1].split(",")[1])


def test_gamma_compare_reads_the_config_under_the_flags(runner, tmp_path):
    config = tmp_path / "eta.ini"
    config.write_text("[parameters]\neta = 3\n")
    from_file = _gamma_compare_value(
        runner.invoke(main, GAMMA_COMPARE_ARGS + ["--config", str(config)]))
    from_flag = _gamma_compare_value(runner.invoke(main, GAMMA_COMPARE_ARGS + ["--eta", "3"]))
    flag_wins = _gamma_compare_value(
        runner.invoke(main, GAMMA_COMPARE_ARGS + ["--config", str(config), "--eta", "1"]))
    default = _gamma_compare_value(runner.invoke(main, GAMMA_COMPARE_ARGS))
    assert from_file == from_flag
    assert flag_wins == default != from_file


def test_gamma_compare_model_from_the_config(runner, tmp_path):
    config = tmp_path / "model.ini"
    config.write_text("[sweep]\nmodel = cs_np\n")
    args = [a for a in GAMMA_COMPARE_ARGS if a not in ("--model", "cs_np")]
    assert _gamma_compare_value(runner.invoke(main, args + ["--config", str(config)])) \
        == _gamma_compare_value(runner.invoke(main, GAMMA_COMPARE_ARGS))


def test_gamma_compare_rejects_gamma(runner):
    result = runner.invoke(main, GAMMA_COMPARE_ARGS + ["--gamma", "2"])
    assert result.exit_code == 1, result.output
    assert "Usage:" in result.output and "--gammas" in result.output


def test_gamma_compare_refuses_a_config_gamma(runner, tmp_path):
    config = tmp_path / "gamma.ini"
    config.write_text("[parameters]\ngamma = 2\n")
    result = runner.invoke(main, GAMMA_COMPARE_ARGS + ["--config", str(config)])
    assert result.exit_code == 1, result.output
    assert "--gammas" in result.output


def test_gamma_compare_reads_g_and_out_from_the_config(runner, tmp_path):
    out = tmp_path / "from_config.csv"
    config = tmp_path / "g_out.ini"
    config.write_text(f"[parameters]\ng = 0.5\n[output]\nout = {out}\n")
    args = [a for a in GAMMA_COMPARE_ARGS if a not in ("--g", "0.9")]
    result = runner.invoke(main, args + ["--config", str(config)])
    assert result.exit_code == 0, result.output
    assert result.output == ""
    at_half = _gamma_compare_value(runner.invoke(main, args + ["--g", "0.5"]))
    assert float(out.read_text().split("\n")[1].split(",")[1]) == at_half
    flag_out = tmp_path / "from_flag.csv"
    result = runner.invoke(main, GAMMA_COMPARE_ARGS + ["--config", str(config),
                                                       "--out", str(flag_out)])
    assert result.exit_code == 0, result.output
    at_flag = _gamma_compare_value(runner.invoke(main, GAMMA_COMPARE_ARGS))
    assert float(flag_out.read_text().split("\n")[1].split(",")[1]) == at_flag != at_half


def test_gamma_compare_needs_a_coupling(runner):
    args = [a for a in GAMMA_COMPARE_ARGS if a not in ("--g", "0.9")]
    result = runner.invoke(main, args)
    assert result.exit_code == 1
    assert "--g" in result.output


def test_ratio_scan_command(runner):
    result = runner.invoke(main, [
        "ratio-scan", "--j-list", "2", "--gamma-list", "1", "--eta-list", "2,5",
        "--g", "0.9", "--nmax", "40"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0] == "j,gamma,eta,I_lab,I_eff,ratio,converged"
    assert len(lines) == 3


def test_ratio_scan_zero_effective_value_exits_two(runner):
    result = runner.invoke(main, [
        "ratio-scan", "--j-list", "2", "--gamma-list", "1", "--eta-list", "2",
        "--g", "0", "--nmax", "20"])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].split(",")[-2:] == ["nan", "false"]


def test_ratio_scan_above_the_transition_exits_two(runner):
    result = runner.invoke(main, [
        "ratio-scan", "--j-list", "5", "--gamma-list", "1", "--eta-list", "2",
        "--g", "1.2"])
    assert result.exit_code == 2, result.output
    lines = result.output.strip().split("\n")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert float(cells[3]) > 0
    assert cells[4:] == ["nan", "nan", "false"]


def test_ratio_scan_gapless_effective_form_exits_two(runner):
    result = runner.invoke(main, [
        "ratio-scan", "--j-list", "5", "--gamma-list", "1", "--eta-list", "2", "--g", "1.0"])
    assert result.exit_code == 2, result.output
    cells = result.output.strip().split("\n")[1].split(",")
    assert float(cells[3]) > 0
    assert cells[4:] == ["nan", "nan", "false"]


def test_converge_command(runner):
    result = runner.invoke(main, [
        "converge", "--model", "full", "--param", "g", "--from", "0.1",
        "--to", "0.5", "--points", "2", "--gamma", "1", "--j", "2",
        "--nmax-list", "15,25"])
    assert result.exit_code == 0, result.output
    lines = result.output.strip().split("\n")
    assert lines[0].startswith("value,I_nmax_15,I_nmax_25")


@pytest.mark.parametrize("args", [
    ["sweep", "--model", "foo"],
    ["ratio-scan", "--j-list", "2", "--gamma-list", "1", "--eta-list", "2", "--g", "abc"],
    ["sweep", "--method", "analytic", "--model", "co_np"],
    ["no-such-command"],
], ids=["unknown-model", "bad-number", "retired-method", "unknown-command"])
def test_usage_errors_exit_one(runner, args):
    # exit code 2 means a finished run with flagged points
    result = runner.invoke(main, args)
    assert result.exit_code == 1, result.output
    assert "Usage:" in result.output
