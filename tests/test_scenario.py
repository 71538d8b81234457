import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import NON_FINITE_CASES, case_study_text_with
from safesim.engine import run_simulation
from safesim.policies import make_policy
from safesim.scenario import (
    DEFAULT_LOSS_VECTOR,
    MAX_LAMBDA_STAR,
    MAX_RECORDING_SLOTS,
    N_HURT_LEVELS,
    ObservationTypeConfig,
    SafetyAreaConfig,
    Scenario,
    ScenarioArrays,
    ScenarioParseError,
    ScenarioValidationError,
    case_study_path,
    load_case_study,
    load_scenario,
    serialize_scenario,
    validate_scenario,
)

GOLDEN_SERIALIZED = Path(__file__).parent / "golden" / "scenario" / "case_study.json"

MINIMAL = {
    "areas": [
        {
            "id": "A",
            "lambda_star": 10,
            "xi_base": 0.5,
            "alpha": 0.1,
            "k_decay": 0.95,
            "theta0": 0.5,
            "hl_probs": [0.5, 0.2, 0.15, 0.1, 0.04, 0.01],
        }
    ],
    "obs_types": [
        {"id": "OBS", "m": 1, "delta_neg": 0.03, "eta_pos": 100, "eta_neg": 100}
    ],
}


def doc_with(**overrides) -> str:
    doc = json.loads(json.dumps(MINIMAL))
    doc.update(overrides)
    return json.dumps(doc)


def test_case_study_matches_reference_setup(case_study):
    assert case_study.area_ids == ("A", "B", "C", "D", "E", "F", "G")
    assert case_study.obs_type_ids == ("WSO", "SAO", "BPO")
    assert sum(t.m for t in case_study.obs_types) == 5
    area_a = case_study.areas[0]
    assert area_a.lambda_star == 17
    assert area_a.hl_probs == (0.50, 0.35, 0.13, 0.02, 0.0, 0.0)
    assert all(a.theta0 == 0.1 and a.k_decay == 0.98 for a in case_study.areas)
    assert case_study.delta_e == 0.0
    assert all(t.delta_neg == 0.03 for t in case_study.obs_types)
    wso, sao, bpo = case_study.obs_types
    assert (wso.eta_pos, wso.eta_neg) == (150, 100)
    assert (sao.eta_pos, sao.eta_neg) == (100, 100)
    assert (bpo.eta_pos, bpo.eta_neg) == (100, 120)


def test_case_study_is_valid(case_study):
    assert validate_scenario(case_study) == []


def test_defaults_applied():
    scenario = load_scenario(json.dumps(MINIMAL))
    assert scenario.obs_types[0].rho == 1
    assert scenario.delta_e == 0.0
    assert scenario.loss_vector == DEFAULT_LOSS_VECTOR
    assert scenario.horizon_days == 365


def test_hl_probs_not_summing_to_one_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["areas"][0]["hl_probs"] = [0.4, 0.2, 0.15, 0.1, 0.04, 0.01]  # sums to 0.9
    with pytest.raises(ScenarioValidationError, match="hl_probs must sum to 1"):
        load_scenario(json.dumps(doc))


def test_empty_areas_rejected():
    with pytest.raises(ScenarioValidationError, match="at least one safety area"):
        load_scenario(doc_with(areas=[]))


def test_alpha_out_of_range_is_single_violation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["areas"][0]["alpha"] = 1.5
    scenario_text = json.dumps(doc)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(scenario_text)
    assert len(exc.value.violations) == 1
    assert "alpha" in exc.value.violations[0]


def test_duplicate_area_ids_is_single_violation():
    doc = json.loads(json.dumps(MINIMAL))
    doc["areas"].append(dict(doc["areas"][0]))
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    assert len(exc.value.violations) == 1
    assert "duplicate" in exc.value.violations[0]


def test_loss_vector_must_be_nondecreasing():
    with pytest.raises(ScenarioValidationError, match="nondecreasing"):
        load_scenario(doc_with(loss_vector=[0, 1, 10, 5, 1000, 10000]))


def test_loss_vector_entries_must_be_nonnegative():
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(doc_with(loss_vector=[-1, 1, 10, 100, 1000, 10000]))
    assert exc.value.violations == ["scenario: loss_vector entries must be nonnegative"]


def _with_first_area(scenario, **changes):
    return replace(scenario, areas=(replace(scenario.areas[0], **changes), *scenario.areas[1:]))


def _with_first_obs_type(scenario, **changes):
    first, *rest = scenario.obs_types
    return replace(scenario, obs_types=(replace(first, **changes), *rest))


@pytest.mark.parametrize(
    "build,violation",
    [
        pytest.param(
            lambda s: replace(s, loss_vector=(5, 4, 3, 2, 1, 0)),
            "scenario: loss_vector must be nondecreasing",
            id="decreasing-loss-vector",
        ),
        pytest.param(
            lambda s: _with_first_area(s, hl_probs=(0.25, 0.25, 0, 0, 0, 0)),
            "area 'A': hl_probs must sum to 1, got 0.5",
            id="hl-probs-summing-to-half",
        ),
        pytest.param(
            lambda s: Scenario(areas=s.areas[:1] * 2, obs_types=s.obs_types),
            "area 'A': duplicate area id",
            id="duplicate-area-ids",
        ),
        pytest.param(
            lambda s: _with_first_area(s, k_decay=1.5),
            "area 'A': k_decay must be in [0, 1], got 1.5",
            id="k-decay-above-one",
        ),
        pytest.param(
            lambda s: replace(s, horizon_days=2.5),
            "scenario: horizon_days must be an integer, got 2.5",
            id="fractional-horizon",
        ),
        pytest.param(
            lambda s: replace(s, horizon_days=True),
            "scenario: horizon_days must be an integer, got True",
            id="bool-horizon",
        ),
        pytest.param(
            lambda s: replace(s, delta_e="x"),
            "scenario: delta_e must be a number, got 'x'",
            id="text-delta-e",
        ),
        pytest.param(
            lambda s: _with_first_obs_type(s, m=2.0),
            "obs type 'WSO': m must be an integer, got 2.0",
            id="float-m",
        ),
        pytest.param(
            lambda s: _with_first_obs_type(s, m="2"),
            "obs type 'WSO': m must be an integer, got '2'",
            id="text-m-skips-the-slot-bound",
        ),
    ],
)
def test_scenario_built_in_code_checks_itself(case_study, build, violation):
    # not only load_scenario: a Scenario built or replaced in code is refused when built
    with pytest.raises(ScenarioValidationError) as exc:
        build(case_study)
    assert exc.value.violations == [violation]


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("m", -1, "m must be >= 0"),
        ("rho", 0, "rho must be >= 1"),
        ("eta_pos", 0, "eta_pos must be > 0"),
        ("eta_neg", -2, "eta_neg must be > 0"),
        ("delta_neg", 1.5, "delta_neg must be in"),
    ],
)
def test_obs_type_invariants(field, value, message):
    doc = json.loads(json.dumps(MINIMAL))
    doc["obs_types"][0][field] = value
    with pytest.raises(ScenarioValidationError, match=message):
        load_scenario(json.dumps(doc))


def test_per_day_bounds_are_inclusive():
    doc = json.loads(json.dumps(MINIMAL))
    doc["areas"][0]["lambda_star"] = 1e6
    doc["obs_types"][0].update(m=1000, rho=1000)
    load_scenario(json.dumps(doc))
    doc["areas"][0]["lambda_star"] = 1000000.5
    doc["obs_types"][0].update(m=1000, rho=1001)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.violations == [
        "area 'A': lambda_star must be in (0, 1e6], got 1000000.5",
        "obs type 'OBS': m * rho must be <= 1e6, got 1001000",
    ]


def test_parse_error_reports_location():
    with pytest.raises(ScenarioParseError, match="line"):
        load_scenario('{"areas": [,]}')


def test_missing_field_names_the_field():
    doc = json.loads(json.dumps(MINIMAL))
    del doc["areas"][0]["lambda_star"]
    with pytest.raises(ScenarioParseError, match="lambda_star"):
        load_scenario(json.dumps(doc))


def test_wrong_type_rejected():
    doc = json.loads(json.dumps(MINIMAL))
    doc["obs_types"][0]["m"] = 1.5
    with pytest.raises(ScenarioParseError, match="must be an integer"):
        load_scenario(json.dumps(doc))


def test_round_trip_is_identity(case_study):
    assert load_scenario(serialize_scenario(case_study)) == case_study


def test_round_trip_of_non_default_fields():
    scenario = load_scenario(
        doc_with(delta_e=0.05, loss_vector=[0, 2, 4, 8, 16, 32], horizon_days=10)
    )
    again = load_scenario(serialize_scenario(scenario))
    assert again == scenario
    assert again.delta_e == 0.05
    assert again.horizon_days == 10


def test_loaded_scenarios_pass_validation(case_study):
    for text in (serialize_scenario(case_study), json.dumps(MINIMAL)):
        assert validate_scenario(load_scenario(text)) == []


def test_case_study_file_exists():
    assert case_study_path().is_file()


def test_serialized_case_study_matches_golden():
    # Pins key order and formatting, which a round trip does not check.
    assert serialize_scenario(load_case_study()) == GOLDEN_SERIALIZED.read_text(encoding="utf-8")


@pytest.mark.parametrize("obj,index,field,value", NON_FINITE_CASES)
def test_non_finite_number_rejected_once(obj, index, field, value):
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(case_study_text_with(obj, index, field, value))
    (violation,) = exc.value.violations
    assert f"{field or obj} must be finite, got " in violation


def test_integer_too_large_for_a_float_is_not_finite():
    doc = json.loads(json.dumps(MINIMAL))
    doc["areas"][0]["lambda_star"] = -(10**400)
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    assert exc.value.violations == ["area 'A': lambda_star must be finite, got -inf"]


@pytest.mark.parametrize(
    "path,message",
    [
        ((), "top level: unknown field 'horizon_day'"),
        (("areas", 0), "areas[0]: unknown field 'horizon_day'"),
        (("obs_types", 0), "obs_types[0]: unknown field 'horizon_day'"),
    ],
)
def test_unknown_field_rejected(path, message):
    doc = json.loads(json.dumps(MINIMAL))
    obj = doc[path[0]][path[1]] if path else doc
    obj["horizon_day"] = 30
    with pytest.raises(ScenarioParseError) as exc:
        load_scenario(json.dumps(doc))
    assert str(exc.value) == message


def test_arrays_built_once_and_read_only(case_study):
    arrays = case_study.arrays
    assert arrays is case_study.arrays
    assert np.array_equal(arrays.hl_sums, ScenarioArrays.of(case_study).hl_sums)
    with pytest.raises(ValueError):
        arrays.xi_base[0] = 0.0


# ---------------------------------------------------------------- properties

fractions = st.floats(0.0, 1.0)
positives = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
ids = st.text(min_size=1, max_size=6)


@st.composite
def hl_probs(draw):
    weights = draw(st.lists(st.integers(0, 1000), min_size=6, max_size=6).filter(any))
    return tuple(w / sum(weights) for w in weights)


areas = st.builds(
    SafetyAreaConfig,
    id=ids,
    lambda_star=st.floats(0.0, MAX_LAMBDA_STAR, exclude_min=True),
    xi_base=fractions,
    alpha=fractions,
    k_decay=fractions,
    theta0=fractions,
    hl_probs=hl_probs(),
)
obs_types = st.builds(
    ObservationTypeConfig,
    id=ids,
    m=st.integers(0, 100),
    rho=st.integers(1, 10),
    delta_neg=fractions,
    eta_pos=positives,
    eta_neg=positives,
)


def scenarios(min_obs_types=0):
    return st.builds(
        Scenario,
        areas=st.lists(areas, min_size=1, max_size=4, unique_by=lambda a: a.id).map(tuple),
        obs_types=st.lists(
            obs_types, min_size=min_obs_types, max_size=3, unique_by=lambda t: t.id
        ).map(tuple),
        delta_e=fractions,
        loss_vector=st.lists(st.floats(0.0, 1e12), min_size=6, max_size=6).map(sorted).map(tuple),
        horizon_days=st.integers(1, 10**6),
    )


@settings(deadline=None)
@given(scenarios())
def test_valid_scenarios_round_trip(scenario):
    assert validate_scenario(scenario) == []
    assert load_scenario(serialize_scenario(scenario)) == scenario


non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
outside_fraction = st.floats(max_value=0.0, exclude_max=True) | st.floats(min_value=1.0, exclude_min=True)
not_positive = st.floats(max_value=0.0, allow_nan=False)
bad_entry = non_finite | st.floats(max_value=0.0, exclude_max=True)

# Where a field lives in the JSON document, and values its rule rejects.
BAD_VALUES = {
    ("areas", "lambda_star"): not_positive | non_finite | st.floats(min_value=MAX_LAMBDA_STAR, exclude_min=True),
    ("areas", "xi_base"): outside_fraction | non_finite,
    ("areas", "alpha"): outside_fraction | non_finite,
    ("areas", "k_decay"): outside_fraction | non_finite,
    ("areas", "theta0"): outside_fraction | non_finite,
    ("areas", "hl_probs"): bad_entry,
    ("obs_types", "m"): st.integers(-(10**6), -1) | st.integers(MAX_RECORDING_SLOTS + 1, 2**70),
    ("obs_types", "rho"): st.integers(-(10**6), 0),
    ("obs_types", "delta_neg"): outside_fraction | non_finite,
    ("obs_types", "eta_pos"): not_positive | non_finite,
    ("obs_types", "eta_neg"): not_positive | non_finite,
    (None, "delta_e"): outside_fraction | non_finite,
    (None, "loss_vector"): bad_entry,
    (None, "horizon_days"): st.integers(-(10**6), 0),
}


@settings(deadline=None)
@given(scenarios(min_obs_types=1), st.sampled_from(sorted(BAD_VALUES, key=str)), st.data())
def test_one_bad_field_rejected_at_load_naming_it(scenario, key, data):
    doc = json.loads(serialize_scenario(scenario))
    group, name = key
    value = data.draw(BAD_VALUES[key])
    if group is None:
        obj, where = doc, "scenario"
    else:
        obj = data.draw(st.sampled_from(doc[group]))
        where = f"{'area' if group == 'areas' else 'obs type'} {obj['id']!r}"
    if isinstance(obj[name], list):  # one entry of a vector field
        obj[name][data.draw(st.integers(0, N_HURT_LEVELS - 1))] = value
    else:
        obj[name] = value
    with pytest.raises(ScenarioValidationError) as exc:
        load_scenario(json.dumps(doc))
    violations = exc.value.violations
    assert violations and all(v.startswith(f"{where}: {name} ") for v in violations)
    if isinstance(value, float) and not math.isfinite(value):
        assert len(violations) == 1 and "must be finite" in violations[0]


# (m, rho) pairs with m * rho at its bound.
AT_SLOT_BOUND = [(MAX_RECORDING_SLOTS, 1), (1, MAX_RECORDING_SLOTS), (1000, 1000)]


@settings(deadline=None, max_examples=6)
@given(scenarios(min_obs_types=1), st.data())
def test_scenario_at_the_bounds_runs(scenario, data):
    # One area at the lambda_star bound, every observation type at the m * rho
    # bound: two days run, within the record invariants.
    area = replace(scenario.areas[0], lambda_star=MAX_LAMBDA_STAR)
    types = []
    for obs in scenario.obs_types:
        m, rho = data.draw(st.sampled_from(AT_SLOT_BOUND))
        types.append(replace(obs, m=m, rho=rho))
    scenario = replace(scenario, areas=(area,), obs_types=tuple(types))
    assert validate_scenario(scenario) == []
    run = run_simulation(scenario, make_policy("uniform"), seed=data.draw(st.integers(0, 2**32)), horizon=2)
    assert np.all(run.obs_pos <= run.n_pos[:, None, :]) and np.all(run.obs_neg <= run.n_neg[:, None, :])
    recorded = run.obs_pos + run.obs_neg
    slots = np.array([t.m * t.rho for t in types])[None, :, None]
    assert np.all(recorded == np.minimum(slots, (run.n_pos + run.n_neg)[:, None, :]))
    assert np.all(run.theta >= 0.0) and np.all(run.theta <= 1.0)
