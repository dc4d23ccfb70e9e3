import json

import numpy as np
import pytest

from lownoise.cli import main
from lownoise.report import parse_jsonl
from lownoise.scenarios import scenario_ancilla_bell, scenario_threelevel, scenario_to_config

FAST = ["--scales", "1e-5:1e-2:5"]


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["ancilla-bell", "pauli2", "three-level"]


def test_run_bell_writes_report(tmp_path, capsys):
    out = tmp_path / "bell.jsonl"
    code = main(["run", "ancilla-bell", *FAST, "--out", str(out)])
    assert code == 0
    records = parse_jsonl(out.read_text())
    assert records[0]["kind"] == "meta"
    assert records[-1] == {"kind": "summary", "passed": True}
    assert "PASS ancilla-bell" in capsys.readouterr().out


def test_run_csv_format(tmp_path):
    out = tmp_path / "bell.csv"
    assert main(["run", "ancilla-bell", *FAST, "--format", "csv", "--out", str(out)]) == 0
    assert out.read_text().startswith("record,")


def test_run_pauli_negative_control_passes(tmp_path):
    assert main(["run", "pauli2", *FAST, "--out", str(tmp_path / "p.jsonl")]) == 0


def test_run_unknown_scenario():
    assert main(["run", "does-not-exist"]) == 2


def test_run_bad_direction():
    assert main(["run", "three-level", "--direction", "0.9,0.9"]) == 2


def test_run_excluded_direction():
    # the default three-level operators make this direction singular
    assert main(["run", "three-level", "--direction", "0.3333333333333333,0.6666666666666667"]) == 2


def test_run_config_file(tmp_path):
    cfg = scenario_to_config(scenario_threelevel(scales=tuple(np.geomspace(1e-5, 1e-2, 5))))
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 0


def test_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("LOWNOISE_OUT_DIR", str(tmp_path))
    assert main(["run", "ancilla-bell", *FAST]) == 0
    assert (tmp_path / "ancilla-bell.jsonl").exists()


@pytest.mark.slow
def test_verify_smoke():
    assert main(["verify", "--seeds", "3", "--shots", "10000"]) == 0


def test_random_suite_smoke():
    assert main(["random-suite", "--seeds", "3"]) == 0


@pytest.mark.parametrize(
    "args",
    [["three-level", "--direction", "nan,nan"], ["pauli2", "--scales", "1e-4,1e-3,1e-2,inf"]],
)
def test_run_non_finite_input(args):
    assert main(["run", *args]) == 2


def _frame_of_basis_vectors(cfg):
    cfg["frame"] = [[[1.0 if i == j else 0.0, 0.0] for j in range(3)] for i in range(4)]


@pytest.mark.parametrize(
    "scenario, mutate",
    [
        (scenario_threelevel, lambda cfg: cfg.update(frame=[[1]])),
        (scenario_threelevel, lambda cfg: cfg.update(frame=[[[1.0, 0.0]]])),
        (scenario_threelevel, lambda cfg: cfg.update(input_state=cfg["input_state"][:2])),
        (scenario_threelevel, lambda cfg: cfg.update(input_state=[[0.0, 0.0]] * 3)),
        (scenario_ancilla_bell, _frame_of_basis_vectors),
        (scenario_threelevel, lambda cfg: cfg["channel"].update(dim=2)),
        (scenario_threelevel, lambda cfg: cfg["channel"].update(jump_operators=[{}])),
        (scenario_threelevel, lambda cfg: cfg["channel"].update(generators=[[[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]] * 3] * 2)),
        (scenario_threelevel, lambda cfg: cfg["channel"]["jump_operators"][0]["matrix"][1].__setitem__(0, [np.nan, 0.0])),
        (scenario_threelevel, lambda cfg: cfg["sweep"].update(direction=[0.2, 0.3, 0.5])),
    ],
    ids=[
        "frame-not-a-matrix",
        "frame-wrong-shape",
        "input-wrong-length",
        "input-zero",
        "frame-not-a-complement",
        "channel-dim-mismatch",
        "jump-item-empty",
        "generators-not-hermitian",
        "jump-not-finite",
        "direction-wrong-length",
    ],
)
def test_run_config_error_exits_2(tmp_path, capsys, scenario, mutate):
    cfg = scenario_to_config(scenario(scales=tuple(np.geomspace(1e-5, 1e-2, 5))))
    mutate(cfg)
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "args",
    [["three-level", "--direction", "0.2,0.3,0.5"], ["pauli2", "--direction", "1"], ["three-level", "--direction", "1"]],
)
def test_run_direction_of_wrong_length_exits_2(args, capsys):
    # one component per noise parameter, checked before any point runs
    assert main(["run", *args]) == 2
    assert "noise parameters" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["run", "ancilla-bell", *FAST, "--shots", "-5"],
        ["verify", "--shots", "0"],
        ["verify", "--seeds", "-2"],
        ["random-suite", "--seeds", "-1"],
    ],
)
def test_count_below_its_minimum_exits_2(args, capsys):
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("seed", ["-1", "18446744073709551616"])
def test_run_seed_outside_the_key_range_exits_2(seed, capsys):
    # Monte Carlo keys seed * 1009 + t must lie in [0, 2**64); -1 would wrap to 2**64 - 1
    assert main(["run", "three-level", *FAST, "--shots", "10", "--seed", seed]) == 2
    assert "seed" in capsys.readouterr().err


def test_run_failed_points_are_recorded(tmp_path):
    # the three-level completion leaves its positivity region above scale 1
    out = tmp_path / "t.jsonl"
    assert main(["run", "three-level", "--scales", "1e-3:2:8", "--out", str(out)]) == 1
    records = parse_jsonl(out.read_text())
    points = [r for r in records if r["kind"] == "point"]
    assert len(points) == 8
    assert points[0]["error"] is None
    assert points[-1]["error"].startswith("TPCPViolation")
    assert records[-1] == {"kind": "summary", "passed": False}
