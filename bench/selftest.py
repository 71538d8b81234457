"""Self-tests of the benchmark itself.

Run from the root of a source checkout:

  python3 -m pytest -q bench/selftest.py

The file is not named test_*.py, so the project's own test suite does not
collect it. The smoke runs start real child processes at a tiny size.
"""

from __future__ import annotations

import json
import shutil
import sys
import types

import pytest

import run
import workloads
from spans import SpanError, Tracer

sys.path.insert(0, str(run.ROOT / "src"))


@pytest.fixture
def work(request):
    path = run.WORK_DIR / f"selftest-{request.node.name}".replace("[", "-").replace("]", "")
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_its_checks(workload, work):
    inputs = workloads.make_inputs(run.ROOT, workload, seed=3, reps=1, horizon=20)
    plain = run.run_child(inputs, "run", work, 0)
    traced = run.run_child(inputs, "trace", work, 1)
    for sample in (plain, traced):
        assert sample["attempted"] > 0 and sample["failures"] == []
    assert 0 < plain["setup_s"] < plain["wall_s"] and plain["rep_days_per_s"] > 0
    summary = run.summarize(inputs, {"setup": [plain], "run": [plain], "trace": [traced]}, trace=True)
    assert set(summary["metrics"]) == set(run.PER_LAYER)
    assert summary["metrics"]["other.calls"]["value"] == 1


def test_dense_long_inputs_follow_the_seed():
    a, b, c = (workloads.make_inputs(run.ROOT, "dense-long", seed=s, horizon=20) for s in (5, 5, 6))
    assert a == b and a.scenario_text != c.scenario_text
    prov = workloads.scenario_provenance(a)
    assert prov["n_areas"] == 24 and 100 < prov["mean_lambda_star"] < 300
    assert prov["scenario_sha256"] == workloads.scenario_provenance(b)["scenario_sha256"]


def test_wrong_compare_none_csv_is_a_failed_check(work):
    from safesim import cli

    inputs = workloads.make_inputs(run.ROOT, "compare", seed=3, reps=1, horizon=15)
    (work / "scenario.json").write_text(inputs.scenario_text, encoding="utf-8")
    argv = ["compare", "--scenario", str(work / "scenario.json"), "--reps", "1", "--horizon", "15"]
    for spec in inputs.policies[1:]:
        argv += ["--policy", spec]
    assert cli.main(argv + ["--seed", str(inputs.sim_seed), "--out-dir", str(work)]) == 0
    assert workloads.check_outputs(inputs, work, exit_ok=True).failed == 0

    path = work / "compare_none.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    day, loss, *rest = lines[5].split(",")
    lines[5] = ",".join([day, format(float(loss) * 0.99, ".6g"), *rest])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    checks = workloads.check_outputs(inputs, work, exit_ok=True)
    assert checks.failed / checks.attempted > 0
    assert checks.failures == ["compare_none.csv: closed-form theta0 * k^t loss"]


def test_tracer_self_time_of_a_nested_call(monkeypatch):
    fake = types.ModuleType("fake_layers")

    def outer():
        fake.inner()
        fake.inner()
        return "done"

    fake.outer, fake.inner = outer, lambda: None
    monkeypatch.setitem(sys.modules, "fake_layers", fake)
    # root opens at 0; outer spans 1..7 and holds inner calls 2..5 and 5.5..6; root closes at 10.
    ticks = iter([0.0, 1.0, 2.0, 5.0, 5.5, 6.0, 7.0, 10.0])
    tracer = Tracer(
        targets=[("cli", "fake_layers:outer"), ("reports", "fake_layers:inner")],
        counters={},
        clock=lambda: next(ticks),
    )
    tracer.install()
    assert tracer.run(lambda: fake.outer()) == "done"
    tracer.uninstall()
    assert fake.outer is outer
    totals = tracer.layer_totals()
    assert totals["reports.self_s"] == pytest.approx(3.5)
    assert totals["cli.self_s"] == pytest.approx(6.0 - 3.5)
    assert totals["other.self_s"] == pytest.approx(10.0 - 6.0)
    assert (totals["reports.calls"], totals["cli.calls"], totals["other.calls"]) == (2, 1, 1)
    assert totals["trace.wall_s"] == pytest.approx(10.0)


def test_missing_target_fails_loudly():
    with pytest.raises(SpanError, match="safesim.engine.step_week"):
        Tracer(targets=[("engine", "safesim.engine:step_week")]).install()
    tracer = Tracer()  # every real target exists at this commit
    tracer.install()
    tracer.uninstall()


def test_benchmark_json_lists_what_the_benchmark_reports():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in doc["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
