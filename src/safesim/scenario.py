"""Scenario configuration: safety areas, observation types, and global settings.

A scenario is a single JSON document describing the simulated work environment.
It is immutable after loading and safe to share across concurrent replications.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

N_HURT_LEVELS = 6

DEFAULT_RHO = 1
DEFAULT_DELTA_E = 0.0
DEFAULT_LOSS_VECTOR = (0.0, 1.0, 10.0, 100.0, 1000.0, 10000.0)
DEFAULT_HORIZON_DAYS = 365

# Probability vectors must sum to 1 within this tolerance.
PROB_TOL = 1e-9


class ScenarioError(ValueError):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    """The config text is not well-formed or has missing/ill-typed fields."""


class ScenarioValidationError(ScenarioError):
    """The config parsed but violates one or more scenario invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid scenario:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True)
class SafetyAreaConfig:
    """Static parameters of one safety area.

    lambda_star  task rate (tasks/day, > 0)
    xi_base      worst-case fraction of tasks performed unsafely, in [0, 1]
    alpha        fraction of unsafe tasks that become incidents, in [0, 1]
    k_decay      daily complacency decay factor applied to theta, in [0, 1]
    theta0       initial safety state, in [0, 1]
    hl_probs     probabilities of Hurt levels 0-5 for an incident (sum to 1)
    """

    id: str
    lambda_star: float
    xi_base: float
    alpha: float
    k_decay: float
    theta0: float
    hl_probs: tuple[float, ...]


@dataclass(frozen=True)
class ObservationTypeConfig:
    """Static parameters of one observation channel.

    m          observers fielded per day (nonnegative integer)
    rho        observations each observer can record per day (positive integer)
    delta_neg  safety-state feedback magnitude per observed unsafe event, in [0, 1]
    eta_pos    Dirichlet concentration given to each safe event (> 0)
    eta_neg    Dirichlet concentration given to each unsafe event (> 0)

    eta_pos == eta_neg records safe/unsafe events without bias; a larger
    eta_neg tilts recording toward unsafe events, and vice versa.
    """

    id: str
    m: int
    rho: int = DEFAULT_RHO
    delta_neg: float = 0.0
    eta_pos: float = 1.0
    eta_neg: float = 1.0


@dataclass(frozen=True)
class Scenario:
    """Complete, validated simulation configuration."""

    areas: tuple[SafetyAreaConfig, ...]
    obs_types: tuple[ObservationTypeConfig, ...]
    delta_e: float = DEFAULT_DELTA_E
    loss_vector: tuple[float, ...] = DEFAULT_LOSS_VECTOR
    horizon_days: int = DEFAULT_HORIZON_DAYS

    @property
    def n_areas(self) -> int:
        return len(self.areas)

    @property
    def area_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.areas)

    @property
    def obs_type_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.obs_types)

    def without_incident_feedback(self) -> "Scenario":
        return replace(self, delta_e=0.0)


@dataclass(frozen=True)
class ScenarioArrays:
    """A scenario's per-area numbers as arrays over areas, in config order.

    The engine builds one per run, so that a simulated day takes one array
    operation per step instead of one Python loop over areas. hl_probs is
    shaped (areas, N_HURT_LEVELS). hl_sums[a, k, l] is hl_probs[a, k] + ...
    + hl_probs[a, l], added left to right, and 0 for l < k: the running sums
    a sequential severity draw compares its uniform against.
    """

    xi_base: np.ndarray
    lambda_star: np.ndarray
    alpha: np.ndarray
    hl_probs: np.ndarray
    hl_sums: np.ndarray
    loss_vector: np.ndarray

    @classmethod
    def of(cls, scenario: Scenario) -> "ScenarioArrays":
        areas = scenario.areas
        hl = np.array([a.hl_probs for a in areas], dtype=float).reshape(-1, N_HURT_LEVELS)
        sums = np.zeros((len(areas), N_HURT_LEVELS, N_HURT_LEVELS))
        for k in range(N_HURT_LEVELS):
            sums[:, k, k:] = np.add.accumulate(hl[:, k:], axis=1)
        return cls(
            xi_base=np.array([a.xi_base for a in areas]),
            lambda_star=np.array([a.lambda_star for a in areas]),
            alpha=np.array([a.alpha for a in areas]),
            hl_probs=hl,
            hl_sums=sums,
            loss_vector=np.array(scenario.loss_vector, dtype=float),
        )


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _get(obj: dict, key: str, where: str):
    if key not in obj:
        raise ScenarioParseError(f"{where}: missing required field '{key}'")
    return obj[key]


def _number(obj: dict, key: str, where: str, required: bool = True, default=None) -> float:
    if key not in obj:
        if required:
            raise ScenarioParseError(f"{where}: missing required field '{key}'")
        return default
    val = obj[key]
    if not _is_number(val):
        raise ScenarioParseError(f"{where}: field '{key}' must be a number, got {val!r}")
    return float(val)


def _integer(obj: dict, key: str, where: str, required: bool = True, default=None) -> int:
    if key not in obj:
        if required:
            raise ScenarioParseError(f"{where}: missing required field '{key}'")
        return default
    val = obj[key]
    if not isinstance(val, int) or isinstance(val, bool):
        raise ScenarioParseError(f"{where}: field '{key}' must be an integer, got {val!r}")
    return val


def _parse_area(obj: dict, index: int) -> SafetyAreaConfig:
    where = f"areas[{index}]"
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{where}: expected an object")
    area_id = _get(obj, "id", where)
    if not isinstance(area_id, str) or not area_id:
        raise ScenarioParseError(f"{where}: field 'id' must be a nonempty string")
    hl = _get(obj, "hl_probs", where)
    if not isinstance(hl, list) or len(hl) != N_HURT_LEVELS or not all(_is_number(p) for p in hl):
        raise ScenarioParseError(f"{where}: field 'hl_probs' must be a list of {N_HURT_LEVELS} numbers")
    return SafetyAreaConfig(
        id=area_id,
        lambda_star=_number(obj, "lambda_star", where),
        xi_base=_number(obj, "xi_base", where),
        alpha=_number(obj, "alpha", where),
        k_decay=_number(obj, "k_decay", where),
        theta0=_number(obj, "theta0", where),
        hl_probs=tuple(float(p) for p in hl),
    )


def _parse_obs_type(obj: dict, index: int) -> ObservationTypeConfig:
    where = f"obs_types[{index}]"
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{where}: expected an object")
    type_id = _get(obj, "id", where)
    if not isinstance(type_id, str) or not type_id:
        raise ScenarioParseError(f"{where}: field 'id' must be a nonempty string")
    return ObservationTypeConfig(
        id=type_id,
        m=_integer(obj, "m", where),
        rho=_integer(obj, "rho", where, required=False, default=DEFAULT_RHO),
        delta_neg=_number(obj, "delta_neg", where),
        eta_pos=_number(obj, "eta_pos", where),
        eta_neg=_number(obj, "eta_neg", where),
    )


def load_scenario(text: str) -> Scenario:
    """Parse a JSON scenario document and return a validated Scenario.

    Optional fields and their defaults: rho=1 per observation type, delta_e=0,
    loss_vector=[0, 1, 10, 100, 1000, 10000], horizon_days=365.

    Raises ScenarioParseError on malformed input and ScenarioValidationError
    (listing every violated invariant) on invalid parameter values.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("top level: expected a JSON object")

    areas_raw = _get(doc, "areas", "top level")
    if not isinstance(areas_raw, list):
        raise ScenarioParseError("top level: field 'areas' must be a list")
    types_raw = _get(doc, "obs_types", "top level")
    if not isinstance(types_raw, list):
        raise ScenarioParseError("top level: field 'obs_types' must be a list")

    loss_raw = doc.get("loss_vector", list(DEFAULT_LOSS_VECTOR))
    if (
        not isinstance(loss_raw, list)
        or len(loss_raw) != N_HURT_LEVELS
        or not all(_is_number(c) for c in loss_raw)
    ):
        raise ScenarioParseError(f"top level: field 'loss_vector' must be a list of {N_HURT_LEVELS} numbers")

    scenario = Scenario(
        areas=tuple(_parse_area(a, i) for i, a in enumerate(areas_raw)),
        obs_types=tuple(_parse_obs_type(t, i) for i, t in enumerate(types_raw)),
        delta_e=_number(doc, "delta_e", "top level", required=False, default=DEFAULT_DELTA_E),
        loss_vector=tuple(float(c) for c in loss_raw),
        horizon_days=_integer(doc, "horizon_days", "top level", required=False, default=DEFAULT_HORIZON_DAYS),
    )
    violations = validate_scenario(scenario)
    if violations:
        raise ScenarioValidationError(violations)
    return scenario


def load_scenario_file(path: str | Path) -> Scenario:
    return load_scenario(Path(path).read_text(encoding="utf-8"))


def _check_fraction(violations: list[str], where: str, name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        violations.append(f"{where}: {name} must be in [0, 1], got {value}")


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every scenario invariant; return human-readable violations.

    An empty list means the scenario is valid. Violations are data, not
    errors: callers decide whether to raise.
    """
    violations: list[str] = []

    if not scenario.areas:
        violations.append("scenario: at least one safety area is required")

    seen_ids: set[str] = set()
    for area in scenario.areas:
        where = f"area {area.id!r}"
        if area.id in seen_ids:
            violations.append(f"{where}: duplicate area id")
        seen_ids.add(area.id)
        if area.lambda_star <= 0:
            violations.append(f"{where}: lambda_star must be > 0, got {area.lambda_star}")
        _check_fraction(violations, where, "xi_base", area.xi_base)
        _check_fraction(violations, where, "alpha", area.alpha)
        _check_fraction(violations, where, "k_decay", area.k_decay)
        _check_fraction(violations, where, "theta0", area.theta0)
        if len(area.hl_probs) != N_HURT_LEVELS:
            violations.append(f"{where}: hl_probs must have {N_HURT_LEVELS} entries")
            continue
        if any(p < 0 for p in area.hl_probs):
            violations.append(f"{where}: hl_probs entries must be nonnegative")
        elif abs(sum(area.hl_probs) - 1.0) > PROB_TOL:
            violations.append(f"{where}: hl_probs must sum to 1, got {sum(area.hl_probs)}")

    for obs in scenario.obs_types:
        where = f"obs type {obs.id!r}"
        if obs.m < 0:
            violations.append(f"{where}: m must be >= 0, got {obs.m}")
        if obs.rho < 1:
            violations.append(f"{where}: rho must be >= 1, got {obs.rho}")
        _check_fraction(violations, where, "delta_neg", obs.delta_neg)
        if obs.eta_pos <= 0:
            violations.append(f"{where}: eta_pos must be > 0, got {obs.eta_pos}")
        if obs.eta_neg <= 0:
            violations.append(f"{where}: eta_neg must be > 0, got {obs.eta_neg}")

    seen_types: set[str] = set()
    for obs in scenario.obs_types:
        if obs.id in seen_types:
            violations.append(f"obs type {obs.id!r}: duplicate obs type id")
        seen_types.add(obs.id)

    _check_fraction(violations, "scenario", "delta_e", scenario.delta_e)
    if len(scenario.loss_vector) != N_HURT_LEVELS:
        violations.append(f"scenario: loss_vector must have {N_HURT_LEVELS} entries")
    else:
        if any(c < 0 for c in scenario.loss_vector):
            violations.append("scenario: loss_vector entries must be nonnegative")
        if any(b < a for a, b in zip(scenario.loss_vector, scenario.loss_vector[1:])):
            violations.append("scenario: loss_vector must be nondecreasing")
    if scenario.horizon_days < 1:
        violations.append(f"scenario: horizon_days must be >= 1, got {scenario.horizon_days}")

    return violations


def serialize_scenario(scenario: Scenario) -> str:
    """Render a Scenario back to JSON text; load_scenario inverts this."""
    doc = {
        "areas": [
            {
                "id": a.id,
                "lambda_star": a.lambda_star,
                "xi_base": a.xi_base,
                "alpha": a.alpha,
                "k_decay": a.k_decay,
                "theta0": a.theta0,
                "hl_probs": list(a.hl_probs),
            }
            for a in scenario.areas
        ],
        "obs_types": [
            {
                "id": t.id,
                "m": t.m,
                "rho": t.rho,
                "delta_neg": t.delta_neg,
                "eta_pos": t.eta_pos,
                "eta_neg": t.eta_neg,
            }
            for t in scenario.obs_types
        ],
        "delta_e": scenario.delta_e,
        "loss_vector": list(scenario.loss_vector),
        "horizon_days": scenario.horizon_days,
    }
    return json.dumps(doc, indent=2)


def case_study_path() -> Path:
    """Path of the bundled 7-area / 3-observation-type example scenario."""
    return Path(resources.files("safesim").joinpath("data", "case_study.json"))


def load_case_study() -> Scenario:
    return load_scenario(case_study_path().read_text(encoding="utf-8"))
