import filecmp
import json
import os

import numpy as np
import pytest

from infocontracts import cli
from infocontracts.cli import main
from infocontracts.errors import NoConvergenceError, NoPatternFoundError
from infocontracts.problem_io import fmt17

EXAMPLE_PROBLEM = {
    "decisions": ["d1", "d2"],
    "states": ["theta1", "theta2"],
    "output": [[0.0, 10.0], [5.0, 5.0]],
    "prior": [2.0 / 3.0, 1.0 / 3.0],
    "capacity": 0.5,
    "cost": {"type": "shannon", "scale": 1.0},
}


@pytest.fixture
def problem_file(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(EXAMPLE_PROBLEM))
    return str(path)


@pytest.fixture
def contract_file(tmp_path):
    path = tmp_path / "contract.json"
    path.write_text(json.dumps({"payments": [[0.0, 10.0], [5.0, 5.0]]}))
    return str(path)


def test_solve_agent_capacity_mode(problem_file, contract_file, capsys):
    code = main(["solve-agent", "--problem", problem_file,
                 "--contract", contract_file, "--capacity"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["mu"] - 0.446) < 2e-3
    assert abs(out["cost"] - 0.5) < 1e-6
    assert len(out["experiment"]) == 2


def test_solve_agent_fixed_mu(problem_file, contract_file, capsys):
    code = main(["solve-agent", "--problem", problem_file,
                 "--contract", contract_file, "--mu", "0.446"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["mu"] == 0.446


def test_solve_agent_flag_exclusivity(problem_file, contract_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve-agent", "--problem", problem_file,
              "--contract", contract_file, "--mu", "0.1", "--capacity"])
    assert exc.value.code == 2


def test_missing_problem_file(contract_file):
    code = main(["solve-agent", "--problem", "/nonexistent/p.json",
                 "--contract", contract_file])
    assert code == 66


def test_malformed_prior_names_pointer(tmp_path, contract_file, capsys):
    bad = dict(EXAMPLE_PROBLEM, prior=[0.5, 0.6])
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["solve-agent", "--problem", str(path),
                 "--contract", contract_file])
    assert code == 65
    assert "/prior" in capsys.readouterr().err


def test_malformed_cost_tag(tmp_path, contract_file, capsys):
    bad = dict(EXAMPLE_PROBLEM, cost={"type": "mystery"})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code = main(["solve-agent", "--problem", str(path),
                 "--contract", contract_file])
    assert code == 65
    assert "/cost" in capsys.readouterr().err


def test_solve_contract_requires_exactly_one_mode(problem_file):
    with pytest.raises(SystemExit) as exc:
        main(["solve-contract", "--problem", problem_file,
              "--xi", "0.0", "--reservation", "1.0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["solve-contract", "--problem", problem_file])
    assert exc.value.code == 2


def test_solve_contract_multiplier_mode(problem_file, capsys, tmp_path):
    csv_dir = str(tmp_path / "csv")
    code = main(["solve-contract", "--problem", problem_file,
                 "--xi", "0.0", "--alpha", "1.0", "--emit-csv", csv_dir])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["contract"][1][0] - 0.702) < 0.02
    assert abs(out["decomposition"]["beta"][1] - 6.596) < 0.02
    assert abs(out["duals"]["xi"]) < 1e-12
    assert abs(out["report"]["welfare"]
               - (out["report"]["agent_utility"]
                  + out["report"]["principal_utility"])) < 1e-12
    for name in ("contract", "experiment", "gamma", "lambda"):
        assert os.path.exists(os.path.join(csv_dir, f"{name}.csv"))


def test_solve_contract_reservation_mode(problem_file, capsys):
    code = main(["solve-contract", "--problem", problem_file,
                 "--reservation", "1.8"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["report"]["agent_utility"] - 1.8) < 1e-3
    assert out["report"]["cost"] <= 0.5 + 1e-6


def test_first_best_command(problem_file, capsys):
    code = main(["first-best", "--problem", problem_file,
                 "--reservation", "2.853"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["value"] - 2.853) < 5e-3


def test_alpha_prime_command(problem_file, capsys):
    code = main(["alpha-prime", "--problem", problem_file])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["alpha_prime"] - 0.692) < 2e-3


def test_geometry_command(tmp_path, capsys):
    problem = {
        "decisions": ["d1", "d2"], "states": ["t1", "t2"],
        "output": [[0.0, 2.0], [1.0, 1.0]], "prior": [0.55, 0.45],
        "capacity": 10.0, "cost": {"type": "shannon"},
    }
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(problem))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps([[0.0, 2.0], [1.0, 1.0]]))
    out_dir = str(tmp_path / "figs")
    code = main(["geometry", "--problem", str(ppath), "--contract", str(cpath),
                 "--out", out_dir, "--tag", "demo"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["path"].endswith("fig_demo.csv")
    assert os.path.exists(out["path"])


def test_oracle_command(problem_file, capsys):
    code = main(["oracle", "--problem", problem_file,
                 "--reservation", "6.036", "--grid-n", "11"])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert np.allclose(out["contract"], EXAMPLE_PROBLEM["output"])


def test_reproduce_passes_and_is_deterministic(tmp_path, capsys):
    out_a = str(tmp_path / "a")
    out_b = str(tmp_path / "b")
    assert main(["reproduce", "--out", out_a]) == 0
    assert main(["reproduce", "--out", out_b]) == 0
    report = capsys.readouterr().out
    assert "golden values matched" in report
    for name in sorted(os.listdir(out_a)):
        assert filecmp.cmp(os.path.join(out_a, name), os.path.join(out_b, name),
                           shallow=False), name


def test_float_formatting_round_trips():
    rng = np.random.default_rng(0)
    for _ in range(1000):
        x = float(rng.normal() * 10.0 ** rng.integers(-8, 8))
        assert float(fmt17(x)) == x


def _one_error_line(err, label):
    lines = err.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {label}: ")


def test_out_of_range_exit_code(problem_file, capsys):
    code = main(["first-best", "--problem", problem_file, "--reservation", "100"])
    assert code == 3
    _one_error_line(capsys.readouterr().err, "out of range")


@pytest.mark.parametrize("error, code, label", [
    (NoPatternFoundError, 4, "no binding pattern"),
    (NoConvergenceError, 5, "no convergence"),
])
def test_solver_failure_exit_codes(problem_file, capsys, monkeypatch, error, code, label):
    def failing(*args, **kwargs):
        raise error("solver gave up")

    monkeypatch.setattr(cli, "second_best_solve", failing)
    assert main(["solve-contract", "--problem", problem_file, "--xi", "0.5"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, label)


def test_too_large_exit_code(tmp_path, capsys):
    big = dict(EXAMPLE_PROBLEM, decisions=["a", "b", "c"],
               output=[[1.0, 2.0], [2.0, 1.0], [1.0, 1.0]])
    path = tmp_path / "big.json"
    path.write_text(json.dumps(big))
    code = main(["oracle", "--problem", str(path)])
    assert code == 6
    _one_error_line(capsys.readouterr().err, "too large")


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


def test_solve_agent_output_is_json_where_a_conditional_underflows(tmp_path, contract_file,
                                                                   capsys):
    # at cost scale 0.001 a live p(d|theta) underflows to 0: the residual
    # was printed as Infinity, which no JSON parser accepts
    problem = dict(EXAMPLE_PROBLEM, cost={"type": "shannon", "scale": 0.001})
    path = tmp_path / "small.json"
    path.write_text(json.dumps(problem))
    assert main(["solve-agent", "--problem", str(path), "--contract", contract_file]) == 0
    out = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
    assert out["residual"] <= 1e-9


GRIDDED_PROBLEM = dict(EXAMPLE_PROBLEM, cost={
    "type": "posterior_separable",
    "upsilon": {"grid": [[q, 2.0 * q * (1.0 - q)] for q in np.linspace(0.0, 1.0, 201)]},
})


@pytest.mark.parametrize("argv", [
    ["alpha-prime"],
    ["first-best", "--reservation", "3"],
    ["solve-contract", "--xi", "0.5"],
])
def test_gridded_upsilon_commands_exit_cleanly(tmp_path, capsys, argv):
    # each of these once ended in a BoundaryPointError traceback (exit 1):
    # the finite-difference gradient needed 2e-5 of room from the boundary
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(GRIDDED_PROBLEM))
    code = main([argv[0], "--problem", str(path), *argv[1:]])
    captured = capsys.readouterr()
    assert code in (0, *(typed for typed, _ in cli.SOLVER_EXITS.values()))
    if code == 0:
        json.loads(captured.out, parse_constant=_reject_constant)
    else:
        assert captured.out == ""
        assert len(captured.err.strip().splitlines()) == 1
