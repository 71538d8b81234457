"""The benchmark's hold on the program: every function it wraps or marks exists
and is reached.

bench/spans.py traces the functions named in its TARGETS, and bench/child.py
marks the end of set-up at the first call to run_simulation or run_ensemble.
A rename in safesim would otherwise surface only when the benchmark runs, and
a function that still exists but is no longer called would let its layer read
zero. The benchmark's files are read and executed here, never written: no
module of bench/ is imported, so no bytecode cache is left there.
"""

import types
from collections import Counter
from pathlib import Path

import pytest

from safesim import cli, engine, intervention, observation
from safesim.policies import NoObservationPolicy, ObservableHistory, make_policy
from safesim.scenario import case_study_path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"), module.__dict__)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("target", [target for _, target in SPANS.TARGETS])
def test_traced_target_resolves(target):
    owner, attr = SPANS.resolve(target)
    assert callable(getattr(owner, attr))


def test_counters_hook_traced_targets():
    assert set(SPANS.COUNTERS) <= {target for _, target in SPANS.TARGETS}


@pytest.mark.parametrize("module", [cli, engine], ids=["cli", "engine"])
def test_set_up_markers_exist(module):
    for name in ("run_simulation", "run_ensemble"):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"


def count_calls(monkeypatch, module, name, calls):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[f"{module.__name__}.{name}"] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_compare_enters_the_engine_through_run_ensemble(monkeypatch, tmp_path):
    # bench/child.py's set-up marker fires on cli.run_ensemble.
    calls = Counter()
    for module, name in ((cli, "run_ensemble"), (cli, "run_simulation"), (engine, "run_simulation")):
        count_calls(monkeypatch, module, name, calls)
    argv = ["compare", "--scenario", str(case_study_path()), "--horizon", "3", "--reps", "2"]
    argv += ["--policy", "uniform", "--policy", "counts", "--out-dir", str(tmp_path)]
    assert cli.main(argv) == 0
    assert calls == Counter({"safesim.cli.run_ensemble": 3})  # none, uniform, counts


def test_table2_reaches_the_traced_day_functions(monkeypatch, tmp_path):
    # The table2 workload runs only the none policy, so these spans are its layers.
    targets = [
        (engine, "step_events"),
        (engine, "step_theta"),
        (engine, "compute_day_metrics"),
        (NoObservationPolicy, "decide"),
    ]
    calls = Counter()
    for owner, name in targets:
        count_calls(monkeypatch, owner, name, calls)
    argv = ["table2", "--scenario", str(case_study_path()), "--horizon", "3", "--reps", "2"]
    assert cli.main(argv + ["--out-dir", str(tmp_path)]) == 0
    for owner, name in targets:
        assert calls[f"{owner.__name__}.{name}"] > 0, f"{owner.__name__}.{name}"


def test_observing_run_reaches_the_traced_observation_functions(monkeypatch, case_study):
    calls = Counter()
    for name in ("allocate_observers", "select_observed"):
        count_calls(monkeypatch, observation, name, calls)
    engine.run_simulation(case_study, make_policy("uniform"), seed=1, horizon=3)
    assert calls["safesim.observation.allocate_observers"] > 0
    assert calls["safesim.observation.select_observed"] > 0


# (owner, attribute) of each traced function a windowed observing run must
# reach through that attribute: the namespace its caller looks it up in.
WINDOWED_RUN_TARGETS = [
    (engine, "step_events"),
    (engine, "step_theta"),
    (intervention, "apply_feedback"),
    (engine, "step_observations"),
    (ObservableHistory, "window"),
    (engine, "compute_day_metrics"),
]


@pytest.mark.parametrize(
    "policy_name,query", [("counts", "incident_counts"), ("severity", "max_ahl")]
)
def test_windowed_run_reaches_the_traced_functions(monkeypatch, case_study, policy_name, query):
    targets = WINDOWED_RUN_TARGETS + [(ObservableHistory, query)]
    calls = Counter()
    for owner, name in targets:
        count_calls(monkeypatch, owner, name, calls)
    engine.run_simulation(case_study, make_policy(policy_name), seed=1, horizon=20)
    for owner, name in targets:
        assert calls[f"{owner.__name__}.{name}"] > 0, f"{owner.__name__}.{name}"


def test_decision_intake_runs_inside_the_traced_observation_call(monkeypatch, case_study):
    # bench/spans.py traces engine.step_observations as the observation
    # layer: the intake's time must fall inside that span, not the engine's.
    active, intakes = [], []
    traced, intake = engine.step_observations, observation.proportions_by_type

    def traced_step(*args, **kwargs):
        active.append(True)
        try:
            return traced(*args, **kwargs)
        finally:
            active.pop()

    def counted_intake(*args, **kwargs):
        intakes.append(bool(active))
        return intake(*args, **kwargs)

    monkeypatch.setattr(engine, "step_observations", traced_step)
    monkeypatch.setattr(observation, "proportions_by_type", counted_intake)
    engine.run_simulation(case_study, make_policy("counts"), seed=1, horizon=20)
    assert intakes and all(intakes)
