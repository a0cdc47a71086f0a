"""Tests of the benchmark's own answer checks: each accepts the package's
answer on a known input and rejects a deliberately wrong one.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import refs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

import infocontracts as api  # noqa: E402
from infocontracts import cli  # noqa: E402

EX_Y = workloads.EXAMPLE_PAYMENTS
EX_PI = workloads.EXAMPLE_PRIOR


@pytest.fixture(scope="module")
def example_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("problems") / "example.json"
    path.write_text(json.dumps(workloads.EXAMPLE))
    return str(path)


@pytest.fixture(scope="module")
def reservation_answer(example_file):
    rc, text = workloads._run_cli(cli, ["solve-contract", "--problem", example_file,
                                        "--reservation", "1.0"])
    assert rc == 0
    return json.loads(text)


@pytest.fixture(scope="module")
def oracle_answer(example_file):
    rc, text = workloads._run_cli(cli, ["solve-contract", "--problem", example_file,
                                        "--xi", "0.0", "--oracle"])
    assert rc == 0
    return json.loads(text)


def test_own_logit_reproduces_published_first_best():
    cond = refs.logit_conditionals(EX_Y, EX_PI, 1.0)
    post = cond * EX_PI[None, :] / (cond @ EX_PI)[:, None]
    assert np.allclose(post, [[0.007, 0.993], [0.993, 0.007]], atol=1e-3)
    assert abs(refs.mutual_information(cond, EX_PI) - 0.596) < 5e-3


def test_contract_checks_accept_package_answers(reservation_answer, oracle_answer):
    assert refs.check_contract_answer(workloads.EXAMPLE, reservation_answer, 1.0) == []
    assert refs.check_contract_answer(workloads.EXAMPLE, oracle_answer) == []


def _mutated(answer, edit):
    out = copy.deepcopy(answer)
    edit(out)
    return out


def _shift_experiment(out):
    cond = np.asarray(out["experiment"])
    cond[:, 0] += [1e-3, -1e-3]
    out["experiment"] = cond.tolist()


def _add(path, delta):
    def edit(out):
        node = out
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = (np.asarray(node[path[-1]], float) + delta).tolist()
    return edit


@pytest.mark.parametrize("edit, reason", [
    (_shift_experiment, "experiment vs own best response"),
    (_add(["report", "agent_utility"], 1e-6), "reported agent utility"),
    (_add(["contract"], [[0.0, 0.0], [0.0, -1e-3]]), "minimum payment per state"),
    (_add(["contract"], [[-1e-3, 0.0], [0.0, 0.0]]), "payment outside [0, y]"),
    (_add(["decomposition", "beta"], [1e-3, 0.0]), "b = alpha y - beta - gamma"),
    (_add(["decomposition", "gamma_hat"], [1e-3, 0.0]), "gamma = gamma_hat"),
])
def test_contract_checks_reject_wrong_answers(reservation_answer, edit, reason):
    problems = refs.check_contract_answer(workloads.EXAMPLE,
                                          _mutated(reservation_answer, edit), 1.0)
    assert any(reason in p for p in problems), problems


def test_reservation_target_is_enforced_when_binding(reservation_answer):
    problems = refs.check_contract_answer(workloads.EXAMPLE, reservation_answer, 1.001)
    assert any("binding reservation" in p for p in problems)


def test_slack_reservation_must_still_be_met(oracle_answer):
    v_a = oracle_answer["report"]["agent_utility"]
    assert refs.check_contract_answer(workloads.EXAMPLE, oracle_answer, v_a - 0.1) == []
    problems = refs.check_contract_answer(workloads.EXAMPLE, oracle_answer, v_a + 0.1)
    assert any("below the slack reservation" in p for p in problems)


def test_oracle_must_not_beat_kkt(oracle_answer):
    wrong = _mutated(oracle_answer, _add(["oracle", "principal_utility"], 1e-3))
    wrong["oracle"]["principal_utility"] = wrong["report"]["principal_utility"] + 1e-3
    problems = refs.check_contract_answer(workloads.EXAMPLE, wrong)
    assert any("grid oracle beats" in p for p in problems)


def test_reproduction_check(tmp_path):
    out_dir = str(tmp_path / "rep")
    result = workloads._run_cli(cli, ["reproduce", "--out", out_dir])
    check = workloads._reproduce_check(out_dir)
    assert check(result) == []
    scalars = json.loads((tmp_path / "rep" / "scalars.json").read_text())
    scalars["mu"] += 0.01
    (tmp_path / "rep" / "scalars.json").write_text(json.dumps(scalars))
    assert any(p.startswith("mu") for p in check(result))
    assert any("exited 1" in p for p in check((1, "")))


def test_capacity_checks():
    free = refs.mutual_information(refs.logit_conditionals(EX_Y, EX_PI, 1.0), EX_PI)
    cap = 0.2 * free
    sol = api.best_response_capacity(api.Contract(EX_Y), EX_PI, cap, api.ShannonCost())
    cond = sol.experiment.conditionals
    assert refs.check_capacity_answer(EX_Y, EX_PI, cap, 1.0, sol.mu, cond, sol.cost) == []
    # a capacity the answer exceeds, and one it does not reach although mu > 0
    over = refs.check_capacity_answer(EX_Y, EX_PI, cap * 0.99, 1.0, sol.mu, cond, sol.cost)
    assert any("above capacity" in p for p in over)
    under = refs.check_capacity_answer(EX_Y, EX_PI, cap * 1.01, 1.0, sol.mu, cond, sol.cost)
    assert any("binding cost" in p for p in under)
    # the right cost with the wrong dual breaks the within-state KKT spread
    wrong_mu = refs.check_capacity_answer(EX_Y, EX_PI, cap, 1.0, sol.mu * 1.01, cond,
                                          sol.cost)
    assert any("KKT spread" in p for p in wrong_mu)


def test_fixed_mu_checks():
    sol = api.best_response_shannon(api.Contract(EX_Y), EX_PI, mu=0.5)
    cond = sol.experiment.conditionals
    assert refs.check_fixed_mu_answer(EX_Y, EX_PI, 1.0, 0.5, cond, sol.value) == []
    bad = cond + [[1e-4, 0.0], [-1e-4, 0.0]]
    assert any("optimality gap" in p
               for p in refs.check_fixed_mu_answer(EX_Y, EX_PI, 1.0, 0.5, bad, sol.value))
    assert any("reported value" in p
               for p in refs.check_fixed_mu_answer(EX_Y, EX_PI, 1.0, 0.5, cond,
                                                   sol.value + 1e-6))


def test_general_cost_checks():
    sol = api.best_response_general(api.Contract(EX_Y), EX_PI, api.BregmanMatrixCost())
    cond = sol.experiment.conditionals
    assert refs.check_mi_general_answer(EX_Y, EX_PI, cond, sol.value) == []
    assert refs.check_mi_general_answer(EX_Y, EX_PI, cond, sol.value + 1e-4)
    assert refs.check_mi_general_answer(EX_Y, EX_PI, np.full((2, 2), 0.5), sol.value)

    grid = workloads._entropy_grid()
    model = api.PosteriorSeparableCost({"grid": grid.tolist()})
    gsol = api.best_response_general(api.Contract(EX_Y), EX_PI, model)
    assert refs.check_gridded_answer(EX_Y, EX_PI, grid, 1.0, gsol.value) == []
    assert refs.check_gridded_answer(EX_Y, EX_PI, grid, 1.0, gsol.value - 1e-5)
    # the smooth entropy value differs from its gridded version
    assert refs.check_gridded_answer(EX_Y, EX_PI, grid, 1.0, sol.value)


@pytest.mark.parametrize("kind", ["value", "gradient", "hessian"])
def test_kernel_checks(kind):
    rng = np.random.default_rng(0)
    cond = workloads.interior_experiment(rng, 3, 3)
    pi = rng.dirichlet(np.full(3, 4.0))
    exp = api.Experiment(cond)
    for model, analytic in ((api.BregmanMatrixCost(), True),
                            (api.PosteriorSeparableCost("entropy"), False)):
        res = getattr(model, kind)(exp, pi)
        assert refs.check_mi_kernel(kind, res, cond, pi, analytic) == []
        wrong = np.array(res, float)
        wrong.flat[-1] += 1e-3
        assert refs.check_mi_kernel(kind, wrong, cond, pi, analytic)


def test_workloads_are_deterministic_and_large_enough(tmp_path):
    for name, build in workloads.BUILDERS.items():
        a = build(7, str(tmp_path))
        b = build(7, str(tmp_path))
        assert [op.name for op in a.ops] == [op.name for op in b.ops]
        assert len(a.ops) >= 40, name
        assert len({op.name for op in a.ops}) == len(a.ops), name


def test_tail_rank_leaves_ten_operations_beyond():
    for n in (40, 49, 100):
        assert n - 1 - run.tail_rank(n) == 10


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"] for m in spec["per_layer"]}
    assert set(run.PER_LAYER) | set(run.IMPORT_METRICS.values()) <= per_layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "ops_per_s", "op_p50_s", "op_tail_s", "peak_rss_mb"}


def test_tracer_counts_and_restores():
    original = api.agent.best_response_shannon
    tracer = Tracer()
    tracer.install()
    try:
        assert api.best_response_shannon is not original
        api.best_response_capacity(api.Contract(EX_Y), EX_PI, 0.5, api.ShannonCost())
    finally:
        tracer.uninstall()
    assert api.best_response_shannon is original
    assert api.agent.best_response_shannon is original
    assert tracer.metric("agent.best_response_capacity.calls") == 1
    inner = tracer.metric("agent.capacity_inner_solves")
    assert inner == tracer.metric("agent.best_response_shannon.calls") > 1
    assert tracer.metric("agent.logit_iterations") > inner
    assert tracer.metric("contracts.second_best_solve.calls") == 0
    assert tracer.metric("no.such_function.calls") == 0
    spans = len(tracer.start)
    assert spans == sum(tracer.calls.values())
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))


def test_speed_probe_returns_outcome_and_restores_the_signal_handler():
    import signal

    from speed import SpeedProbe

    before = signal.getsignal(signal.SIGALRM)
    probe = SpeedProbe()
    result, error, seconds, factor = probe.call(lambda: sum(range(10**6)))
    assert result == sum(range(10**6)) and error is None
    assert seconds > 0 and factor > 0
    result, error, _, _ = probe.call(lambda: 1 / 0)
    assert result is None and isinstance(error, ZeroDivisionError)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_general_capacity_checks():
    free = refs.mutual_information(refs.logit_conditionals(EX_Y, EX_PI, 1.0), EX_PI)
    cap = 0.3 * free
    sol = api.best_response_capacity(api.Contract(EX_Y), EX_PI, cap, api.BregmanMatrixCost())
    cond = sol.experiment.conditionals
    assert refs.check_general_capacity_answer(EX_Y, EX_PI, cap, sol.mu, cond) == []
    assert any("binding cost" in p for p in
               refs.check_general_capacity_answer(EX_Y, EX_PI, cap * 1.01, sol.mu, cond))
    assert any("optimality gap" in p for p in
               refs.check_general_capacity_answer(EX_Y, EX_PI, cap, sol.mu * 1.1, cond))
