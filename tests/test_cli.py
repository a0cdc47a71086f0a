import dataclasses
import filecmp
import inspect
import json
import os
import subprocess
import sys
import types

import numpy as np
import pytest

import infocontracts
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


@pytest.mark.parametrize("argv", [
    # each ended in a traceback (exit 1), a futile search (exit 3 or 5) or,
    # for --mu inf, in exit 0 with "mu": Infinity, which is not JSON
    ["solve-contract", "--xi", "1.5"],
    ["solve-contract", "--xi", "-0.1"],
    ["solve-contract", "--xi", "nan"],
    ["solve-contract", "--alpha", "nan"],
    ["solve-contract", "--alpha", "inf"],
    ["solve-contract", "--reservation", "nan"],
    ["alpha-star", "--reservation", "nan"],
    ["first-best", "--reservation", "nan"],
    ["first-best", "--reservation=-inf"],
    ["solve-agent", "--contract", "CONTRACT", "--mu", "nan"],
    ["solve-agent", "--contract", "CONTRACT", "--mu", "inf"],
    ["geometry", "--contract", "CONTRACT", "--out", "OUT", "--mu", "nan"],
    ["geometry", "--contract", "CONTRACT", "--out", "OUT", "--mu", "-2"],
    ["solve-agent", "--contract", "CONTRACT", "--mu", "-1"],
    ["oracle", "--reservation", "nan"],
    # --grid-n 0 and -3 ended in a traceback (exit 1); --grid-n 1 returned
    # the all-zero contract, the one point of its grid; --alpha -1 exited 4
    # as if the pattern solve had failed
    ["oracle", "--grid-n", "0"],
    ["oracle", "--grid-n", "-3"],
    ["oracle", "--grid-n", "1"],
    ["solve-contract", "--alpha", "-1"],
])
def test_non_finite_or_out_of_range_options_are_usage_errors(problem_file, contract_file,
                                                             tmp_path, capsys, argv):
    argv = [{"CONTRACT": contract_file, "OUT": str(tmp_path)}.get(a, a) for a in argv]
    with pytest.raises(SystemExit) as exc:
        main([argv[0], "--problem", problem_file, *argv[1:]])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    option = next(a for a in reversed(argv) if a.startswith("--")).split("=")[0]
    assert f"argument {option}: " in captured.err


def test_oracle_takes_an_infinite_reservation(problem_file, capsys):
    assert main(["oracle", "--problem", problem_file, "--reservation=-inf",
                 "--grid-n", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["report"]


def test_parser_is_built_once_and_keeps_no_state(problem_file, contract_file, capsys):
    assert cli._parser() is cli._parser()
    base = ["solve-agent", "--problem", problem_file, "--contract", contract_file]
    assert main(base + ["--mu", "0.4"]) == 0
    first = json.loads(capsys.readouterr().out)
    assert main(base) == 0
    second = json.loads(capsys.readouterr().out)
    assert (first["mu"], second["mu"]) == (0.4, 0.0)
    with pytest.raises(SystemExit) as exc:
        main(["alpha-prime"])
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


def test_solve_contract_cross_checks_against_the_oracle(problem_file, capsys):
    assert main(["solve-contract", "--problem", problem_file, "--xi", "0.75", "--oracle"]) == 0
    out = json.loads(capsys.readouterr().out)
    grid = out["oracle"]
    assert np.shape(grid["contract"]) == (2, 2)
    # the grid contract clears the KKT answer's agent utility, and the KKT
    # answer is optimal over every such contract
    assert grid["agent_utility"] >= out["report"]["agent_utility"] - 1e-9
    assert grid["principal_utility"] <= out["report"]["principal_utility"] + 1e-9


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


@pytest.mark.parametrize("capacity, r", [(0.5, 6.5), (0.5, 3.0), (0.3, 2.0)])
@pytest.mark.parametrize("command", ["alpha-star", "solve-contract"])
def test_alpha_star_refuses_what_the_request_refuses(tmp_path, capsys, capacity, r,
                                                     command):
    # alpha-star once printed 1.0, 0.7219 and 0.51239 here, bracket ends of a
    # search that the reservation request refused with exit 3.  Above the
    # first-best floor both now answer on the frontier (r = 3.0 at capacity
    # 0.5, r = 2.0 at 0.3), alpha-star with the answer's piece rate; above
    # the first-best range (r = 6.5) both refuse
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(dict(EXAMPLE_PROBLEM, capacity=capacity)))
    other = "solve-contract" if command == "alpha-star" else "alpha-star"
    outcomes = {}
    for name in (command, other):
        code = main([name, "--problem", str(path), "--reservation", repr(r)])
        outcomes[name] = code, capsys.readouterr()
    code, captured = outcomes[command]
    assert code == outcomes[other][0] == (3 if r > 6.0 else 0)
    if code:
        assert captured.out == ""
        _one_error_line(captured.err, "out of range")
        return
    answer = json.loads(outcomes["solve-contract"][1].out)
    alpha = json.loads(outcomes["alpha-star"][1].out)["alpha_star"]
    assert alpha == answer["decomposition"]["alpha"] < 1.0
    assert abs(answer["report"]["agent_utility"] - r) <= 1e-4


@pytest.mark.parametrize("error, code, label", [
    (NoPatternFoundError, 4, "unsupported by the contract solvers"),
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


def test_oracle_refuses_an_output_below_zero(tmp_path, capsys):
    # the oracle paid 0 in the -1 cell, outside the limit b <= y, and exited 0
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(dict(EXAMPLE_PROBLEM, output=[[-1.0, 10.0], [5.0, 5.0]])))
    assert main(["oracle", "--problem", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "unsupported by the contract solvers")
    assert "an output below 0 leaves no payment within both liability limits" in captured.err


def test_oracle_refuses_a_table_as_the_contract_solvers_do(tmp_path, capsys):
    # it exited 6, "too large", as if the problem were too big for the grid
    path = tmp_path / "table.json"
    path.write_text(json.dumps(GRIDDED_PROBLEM))
    assert main(["oracle", "--problem", str(path)]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "unsupported by the contract solvers")
    assert "the grid oracle needs the logit rule" in captured.err


def test_one_decision_xi_request_answers(tmp_path, capsys):
    # the pattern system has no free cell: its empty residual once raised an
    # untyped ValueError, a traceback under exit code 1
    path = tmp_path / "one.json"
    path.write_text(json.dumps(dict(EXAMPLE_PROBLEM, decisions=["d1"], output=[[3.0, 1.0]],
                                    prior=[0.5, 0.5])))
    for xi in ("0", "0.5", "1"):
        assert main(["solve-contract", "--problem", str(path), "--xi", xi]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["contract"] == [[0.0, 0.0]]
        assert out["residual"] == 0.0


@pytest.mark.parametrize("problem", [
    # three states: the figure export is two-state only
    dict(EXAMPLE_PROBLEM, states=["a", "b", "c"], output=[[0.0, 10.0, 1.0], [5.0, 5.0, 5.0]],
         prior=[0.5, 0.25, 0.25]),
    # the second state's prior lies below the posterior grid's edge at 1e-6
    dict(EXAMPLE_PROBLEM, prior=[0.9999999, 1e-7]),
], ids=["three-states", "prior-off-grid"])
def test_geometry_rejects_an_unsupported_problem_as_usage(tmp_path, capsys, problem):
    # both once ended in a traceback under exit code 1, the golden-mismatch code
    ppath = tmp_path / "p.json"
    ppath.write_text(json.dumps(problem))
    cpath = tmp_path / "c.json"
    cpath.write_text(json.dumps(problem["output"]))
    out_dir = tmp_path / "figs"
    code = main(["geometry", "--problem", str(ppath), "--contract", str(cpath),
                 "--out", str(out_dir)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "unsupported problem")
    assert not out_dir.exists()


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


HAT_TABLE = {"grid": [[0.0, 0.0], [0.25, 0.375], [0.5, 0.5], [0.75, 0.375], [1.0, 0.0]]}


@pytest.mark.parametrize("mu", ["0", "1", "2.5"])
def test_solve_agent_under_a_table_reports_the_unpenalized_cost(tmp_path, contract_file,
                                                               capsys, mu):
    # at --mu 1 the cost read 0.8333 (not 0.4167) and the value 5.8333 (not
    # 6.25): the cost of the penalized problem, where the Shannon route
    # reports the unpenalized one
    problem = dict(EXAMPLE_PROBLEM, cost={"type": "posterior_separable",
                                          "upsilon": HAT_TABLE})
    path = tmp_path / "hat.json"
    path.write_text(json.dumps(problem))
    assert main(["solve-agent", "--problem", str(path), "--contract", contract_file,
                 "--mu", mu]) == 0
    out = json.loads(capsys.readouterr().out)
    exp = infocontracts.Experiment(out["experiment"])
    prior = np.array(EXAMPLE_PROBLEM["prior"])
    model = infocontracts.PosteriorSeparableCost(HAT_TABLE)
    assert out["mu"] == float(mu)
    assert out["cost"] == pytest.approx(model.value(exp, prior), abs=1e-12)
    e_b = float(np.sum(exp.conditionals * prior * np.array(EXAMPLE_PROBLEM["output"])))
    assert out["value"] == pytest.approx(e_b - out["cost"], abs=1e-12)


@pytest.mark.parametrize("argv", [
    ["solve-agent", "--contract", None],
    ["first-best", "--reservation", "3"],
])
def test_gridded_upsilon_without_two_states_is_malformed(tmp_path, capsys, argv):
    # both once loaded the problem and died in a ValueError traceback, exit 1
    problem = dict(GRIDDED_PROBLEM, states=["a", "b", "c"],
                   output=[[0.0, 10.0, 1.0], [5.0, 5.0, 5.0]], prior=[0.5, 0.25, 0.25])
    ppath = tmp_path / "p3.json"
    ppath.write_text(json.dumps(problem))
    cpath = tmp_path / "c3.json"
    cpath.write_text(json.dumps(problem["output"]))
    argv = [str(cpath) if a is None else a for a in argv]
    assert main([argv[0], "--problem", str(ppath), *argv[1:]]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "malformed input")
    assert "/cost" in captured.err


@pytest.mark.parametrize("grid", [
    [[0.0, 0.0], [0.5, -1.0], [1.0, 0.0]],
    [[0.25, 0.0], [0.75, 1.0]],
], ids=["dip", "flat-beyond-its-ends"])
def test_a_table_not_concave_is_malformed(tmp_path, contract_file, capsys, grid):
    # both were solved, on a route of their own, into experiments that a
    # feasible experiment beat
    problem = dict(EXAMPLE_PROBLEM, cost={"type": "posterior_separable",
                                          "upsilon": {"grid": grid}})
    path = tmp_path / "dip.json"
    path.write_text(json.dumps(problem))
    assert main(["solve-agent", "--problem", str(path), "--contract", contract_file]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "malformed input")
    assert " /cost: " in captured.err and "concave" in captured.err


@pytest.mark.parametrize("argv", [
    ["alpha-prime"],
    ["first-best", "--reservation", "3"],
    ["solve-agent", "--contract", None, "--capacity"],
])
def test_zero_capacity_is_malformed(tmp_path, contract_file, capsys, argv):
    # each loaded the problem and died in a "capacity must be positive"
    # ValueError traceback, exit 1
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(dict(EXAMPLE_PROBLEM, capacity=0)))
    argv = [contract_file if a is None else a for a in argv]
    assert main([argv[0], "--problem", str(path), *argv[1:]]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "malformed input")
    assert "/capacity" in captured.err


NAN_PRIOR = {"prior": [float("nan"), 0.5]}
INFINITE_SCALE = {"cost": {"type": "shannon", "scale": float("inf")}}
NAN_PAYMENTS = [[0.0, float("nan")], [5.0, 5.0]]
NO_COST = json.dumps({k: v for k, v in EXAMPLE_PROBLEM.items() if k != "cost"})


@pytest.mark.parametrize("change, argv, pointer", [
    # NaN fails both comparisons of the prior checks: alpha-prime, first-best
    # and oracle ran 500 Newton steps and exited 5, solve-contract exited 4
    (NAN_PRIOR, ["alpha-prime"], "/prior"),
    (NAN_PRIOR, ["first-best", "--reservation", "3"], "/prior"),
    (NAN_PRIOR, ["oracle"], "/prior"),
    (NAN_PRIOR, ["solve-contract", "--xi", "0.5"], "/prior"),
    # alpha-prime printed 1.0 with a RuntimeWarning; first-best died in a
    # ValueError traceback, exit 1
    (INFINITE_SCALE, ["alpha-prime"], "/cost/scale"),
    (INFINITE_SCALE, ["first-best", "--reservation", "3"], "/cost/scale"),
    # loaded as capacity 1.0
    ({"capacity": True}, ["alpha-prime"], "/capacity"),
    # a NaN payment died in a "contract payments must be finite" ValueError
    # traceback, exit 1
    ({}, ["solve-agent", "--contract", NAN_PAYMENTS], "/payments"),
    # each other check of a problem or contract file: a string is the
    # file's whole text, and a list in argv the payments of the contract
    pytest.param("[1, 2]", ["alpha-prime"], "", id="not-an-object"),
    pytest.param("{", ["alpha-prime"], "", id="invalid-json"),
    pytest.param(NO_COST, ["alpha-prime"], "/cost", id="missing-key"),
    pytest.param({"decisions": "d1"}, ["alpha-prime"], "/decisions", id="decisions-not-a-list"),
    pytest.param({"decisions": ["d1", "d1"]}, ["alpha-prime"], "/decisions",
                 id="duplicate-decisions"),
    pytest.param({"states": ["t", "t"]}, ["alpha-prime"], "/states", id="duplicate-states"),
    pytest.param({"output": [["a", 10.0], [5.0, 5.0]]}, ["alpha-prime"], "/output",
                 id="output-not-numeric"),
    pytest.param({"output": [[0.0, 10.0]]}, ["alpha-prime"], "/output", id="output-shape"),
    pytest.param({"prior": [1.0]}, ["alpha-prime"], "/prior", id="prior-length"),
    pytest.param({"prior": [1.0, 0.0]}, ["alpha-prime"], "/prior", id="prior-zero"),
    pytest.param({"cost": "shannon"}, ["alpha-prime"], "/cost", id="cost-not-an-object"),
    pytest.param({"cost": {"type": "bregman", "matrix": "nope"}}, ["alpha-prime"], "/cost",
                 id="unknown-bregman-matrix"),
    pytest.param({}, ["solve-agent", "--contract", [0.0, 10.0]], "/payments",
                 id="payments-1-d"),
    pytest.param({}, ["solve-agent", "--contract", [[0.0, 10.0, 1.0], [5.0, 5.0, 5.0]]],
                 "/payments", id="payments-shape"),
])
def test_non_finite_and_boolean_numbers_are_malformed(tmp_path, capsys, change, argv,
                                                      pointer):
    path = tmp_path / "problem.json"
    path.write_text(change if isinstance(change, str)
                    else json.dumps(dict(EXAMPLE_PROBLEM, **change)))
    contract = tmp_path / "contract.json"
    payments = [a for a in argv if isinstance(a, list)]
    contract.write_text(json.dumps({"payments": payments[0] if payments else None}))
    argv = [a if isinstance(a, str) else str(contract) for a in argv]
    assert main([argv[0], "--problem", str(path), *argv[1:]]) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    _one_error_line(captured.err, "malformed input")
    assert f" {pointer}: " in captured.err


def test_import_loads_no_scipy():
    # a fresh CLI call pays every import, and scipy.optimize alone once took
    # 0.6 s of its 1 s
    env = dict(os.environ,
               PYTHONPATH=os.path.dirname(os.path.dirname(infocontracts.__file__)))
    code = ("import sys, infocontracts, infocontracts.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    assert proc.stdout.strip() == "[]"


def public_parameters():
    """The parameters of the public functions and of the hand-written
    constructors and public methods of the public classes, self aside (a
    dataclass's generated constructor holds fields, not options)."""
    params = []
    for name in infocontracts.__all__:
        obj = getattr(infocontracts, name)
        members = vars(obj).items() if isinstance(obj, type) else [(name, obj)]
        for attr, member in members:
            generated = attr == "__init__" and dataclasses.is_dataclass(obj)
            if (inspect.isfunction(member) and not generated
                    and (attr == "__init__" or not attr.startswith("_"))):
                params += [param for param in inspect.signature(member).parameters.values()
                           if param.name != "self"]
    return params


def test_all_lists_the_public_names_and_no_modules():
    assert len(infocontracts.__all__) == len(set(infocontracts.__all__))
    namespace = {}
    exec(f"from infocontracts import {', '.join(infocontracts.__all__)}", namespace)
    for name in infocontracts.__all__:
        assert not isinstance(namespace[name], types.ModuleType), name
    # thin wrappers of model methods and of Contract arithmetic stay out
    assert len(infocontracts.__all__) <= 62
    # options no caller sets are module constants
    params = public_parameters()
    assert sum(param.default is not inspect.Parameter.empty for param in params) <= 23
    # the distortion formulas dropped a participation weight xi that has
    # no effect (H p = 0)
    assert len(params) <= 115


def _round_tripped(obj):
    """The JSON form canonical_json gave before floats were passed through
    unchanged: each float formatted to 17 digits and parsed back."""
    if isinstance(obj, dict):
        return {k: _round_tripped(v) for k, v in obj.items()}
    if isinstance(obj, np.ndarray):
        return _round_tripped(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return [_round_tripped(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        return float(fmt17(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


@pytest.mark.parametrize("argv", [["solve-contract", "--reservation", "1.0"],
                                  ["solve-contract", "--xi", "0.0"],
                                  ["first-best", "--reservation", "4.0"],
                                  ["alpha-prime"]])
def test_stdout_unchanged_without_the_float_round_trip(problem_file, monkeypatch, capsys,
                                                       argv):
    # the 17-digit round trip in canonical_json is the identity on every
    # float, so its output is byte-identical without it
    seen = []
    real = cli.canonical_json

    def recording(obj):
        seen.append(obj)
        return real(obj)

    monkeypatch.setattr(cli, "canonical_json", recording)
    assert main([argv[0], "--problem", problem_file, *argv[1:]]) == 0
    out = capsys.readouterr().out
    assert len(seen) == 1
    assert out == json.dumps(_round_tripped(seen[0]), sort_keys=True, indent=2) + "\n"
