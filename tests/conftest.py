import json
import math

import pytest

from safesim.scenario import (
    ObservationTypeConfig,
    SafetyAreaConfig,
    Scenario,
    case_study_path,
    load_case_study,
)


@pytest.fixture(scope="session")
def case_study() -> Scenario:
    return load_case_study()


def make_area(
    area_id="X",
    lambda_star=10.0,
    xi_base=0.5,
    alpha=0.1,
    k_decay=0.95,
    theta0=0.5,
    hl_probs=(0.5, 0.2, 0.15, 0.1, 0.04, 0.01),
) -> SafetyAreaConfig:
    return SafetyAreaConfig(
        id=area_id,
        lambda_star=lambda_star,
        xi_base=xi_base,
        alpha=alpha,
        k_decay=k_decay,
        theta0=theta0,
        hl_probs=tuple(hl_probs),
    )


def make_obs_type(
    type_id="OBS", m=2, rho=1, delta_neg=0.03, eta_pos=100.0, eta_neg=100.0
) -> ObservationTypeConfig:
    return ObservationTypeConfig(
        id=type_id, m=m, rho=rho, delta_neg=delta_neg, eta_pos=eta_pos, eta_neg=eta_neg
    )


def make_scenario(areas=None, obs_types=None, delta_e=0.0, horizon_days=365) -> Scenario:
    if areas is None:
        areas = (make_area(),)
    if obs_types is None:
        obs_types = (make_obs_type(),)
    return Scenario(
        areas=tuple(areas),
        obs_types=tuple(obs_types),
        delta_e=delta_e,
        horizon_days=horizon_days,
    )


# Ten weights whose running sum misses 1 by 1.0000000827e-9 and whose pairwise
# (numpy) sum by 0.9999999861e-9: just either side of PROB_TOL.
EDGE_WEIGHTS = [
    0.12322240001482794, 0.06979518191374619, 0.16261741100030633, 0.11767406136682186,
    0.1042963382836637, 0.04955971667182307, 0.16826908536167323, 0.0414922256401724,
    0.08444301149204288, 0.07863056925492226,
]


# (object, index, field, value): one non-finite number in the case study that
# a scenario must be rejected for at load time.
NON_FINITE_CASES = [
    ("areas", 0, "lambda_star", math.inf),
    ("areas", 0, "lambda_star", math.nan),
    ("obs_types", 0, "eta_pos", math.inf),
    ("loss_vector", 3, None, math.nan),
    ("areas", 0, "hl_probs", [0.5, math.nan, 0.13, 0.02, 0.0, 0.0]),
]


def case_study_text_with(obj, index, field, value) -> str:
    """The case study's JSON text with one number replaced; json writes NaN/Infinity."""
    doc = json.loads(case_study_path().read_text(encoding="utf-8"))
    if field is None:
        doc[obj][index] = value
    else:
        doc[obj][index][field] = value
    return json.dumps(doc)
