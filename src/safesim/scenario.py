"""Scenario configuration: safety areas, observation types, and global settings.

A scenario is a single JSON document describing the simulated work environment.
It is immutable after loading and safe to share across concurrent replications.

The config dataclasses are the schema: a JSON object's keys are its class's
field names, a field's type says what its value must be, a default makes it
optional, and the metadata holds the rule validate_scenario checks.
"""

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, field, fields, replace
from functools import cached_property
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

# Upper bounds that cap a day's work and memory: each day draws Poisson task
# counts at rate lambda_star per area, and one uniform per observer and per
# recording slot (m + rho * m per observation type).
MAX_LAMBDA_STAR = 1e6
MAX_RECORDING_SLOTS = 10**6  # m * rho of one observation type

# Range rules of number fields, keyed by the text a violation quotes. A field
# names one of these, or a function of its value returning its problems.
_RANGES = {
    "> 0": lambda v: v > 0,
    "in (0, 1e6]": lambda v: 0 < v <= MAX_LAMBDA_STAR,
    ">= 0": lambda v: v >= 0,
    ">= 1": lambda v: v >= 1,
    "in [0, 1]": lambda v: 0.0 <= v <= 1.0,
}


def _rule(rule, default=MISSING):
    return field(default=default, metadata={"rule": rule})


def _hl_probs_problems(hl: tuple[float, ...]) -> list[str]:
    if any(p < 0 for p in hl):
        return ["hl_probs entries must be nonnegative"]
    return [f"hl_probs must sum to 1, got {sum(hl)}"] if abs(sum(hl) - 1.0) > PROB_TOL else []


def _loss_vector_problems(loss: tuple[float, ...]) -> list[str]:
    problems = []
    if any(c < 0 for c in loss):
        problems.append("loss_vector entries must be nonnegative")
    if any(b < a for a, b in zip(loss, loss[1:])):
        problems.append("loss_vector must be nondecreasing")
    return problems


class ScenarioError(ValueError):
    """Base class for scenario loading problems."""


class ScenarioParseError(ScenarioError):
    """The config text is not well-formed or has missing/ill-typed/unknown fields."""


class ScenarioValidationError(ScenarioError):
    """The config parsed but violates one or more scenario invariants."""

    def __init__(self, violations: list[str]):
        self.violations = list(violations)
        super().__init__("invalid scenario:\n  " + "\n  ".join(self.violations))


@dataclass(frozen=True, kw_only=True)
class SafetyAreaConfig:
    """Static parameters of one safety area."""

    id: str
    lambda_star: float = _rule("in (0, 1e6]")  # task rate, tasks/day
    xi_base: float = _rule("in [0, 1]")  # worst-case fraction of tasks performed unsafely
    alpha: float = _rule("in [0, 1]")  # fraction of unsafe tasks that become incidents
    k_decay: float = _rule("in [0, 1]")  # daily complacency decay factor applied to theta
    theta0: float = _rule("in [0, 1]")  # initial safety state
    hl_probs: tuple[float, ...] = _rule(_hl_probs_problems)  # P(Hurt level 0-5) of an incident


@dataclass(frozen=True, kw_only=True)
class ObservationTypeConfig:
    """Static parameters of one observation channel.

    eta_pos == eta_neg records safe/unsafe events without bias; a larger
    eta_neg tilts recording toward unsafe events, and vice versa.
    """

    id: str
    m: int = _rule(">= 0")  # observers fielded per day
    rho: int = _rule(">= 1", DEFAULT_RHO)  # observations each observer can record per day
    delta_neg: float = _rule("in [0, 1]")  # theta feedback per observed unsafe event
    eta_pos: float = _rule("> 0")  # recording weight of each safe event
    eta_neg: float = _rule("> 0")  # recording weight of each unsafe event


@dataclass(frozen=True, kw_only=True)
class Scenario:
    """Complete, validated simulation configuration.

    Built in code, by dataclasses.replace or by load_scenario, a Scenario
    checks itself: validate_scenario's violations raise ScenarioValidationError.
    """

    areas: tuple[SafetyAreaConfig, ...]
    obs_types: tuple[ObservationTypeConfig, ...]
    delta_e: float = _rule("in [0, 1]", DEFAULT_DELTA_E)
    loss_vector: tuple[float, ...] = _rule(_loss_vector_problems, DEFAULT_LOSS_VECTOR)
    horizon_days: int = _rule(">= 1", DEFAULT_HORIZON_DAYS)

    def __post_init__(self):
        violations = validate_scenario(self)
        if violations:
            raise ScenarioValidationError(violations)

    @property
    def n_areas(self) -> int:
        return len(self.areas)

    @cached_property
    def area_ids(self) -> tuple[str, ...]:
        return tuple(a.id for a in self.areas)

    @cached_property
    def obs_type_ids(self) -> tuple[str, ...]:
        return tuple(t.id for t in self.obs_types)

    @cached_property
    def arrays(self) -> "ScenarioArrays":
        """The per-area numbers as arrays, built on first use and then shared."""
        return ScenarioArrays.of(self)

    def without_incident_feedback(self) -> "Scenario":
        return replace(self, delta_e=0.0)


@dataclass(frozen=True, eq=False)
class ScenarioArrays:
    """A scenario's per-area numbers as read-only arrays over areas, in config order.

    Scenario.arrays holds one, so that a simulated day takes one array
    operation per step instead of one Python loop over areas. hl_probs is
    shaped (areas, N_HURT_LEVELS). hl_sums[a, k, l] is hl_probs[a, k] + ...
    + hl_probs[a, l], added left to right, and 0 for l < k: the running sums
    a sequential severity draw compares its uniform against. delta_neg is
    the one array over observation types: each type's delta_neg.
    """

    xi_base: np.ndarray
    lambda_star: np.ndarray
    alpha: np.ndarray
    hl_probs: np.ndarray
    hl_sums: np.ndarray
    loss_vector: np.ndarray
    delta_neg: np.ndarray

    @classmethod
    def of(cls, scenario: Scenario) -> "ScenarioArrays":
        areas = scenario.areas
        hl = np.array([a.hl_probs for a in areas], dtype=float).reshape(-1, N_HURT_LEVELS)
        sums = np.zeros((len(areas), N_HURT_LEVELS, N_HURT_LEVELS))
        for k in range(N_HURT_LEVELS):
            sums[:, k, k:] = np.add.accumulate(hl[:, k:], axis=1)
        arrays = cls(
            xi_base=np.array([a.xi_base for a in areas]),
            lambda_star=np.array([a.lambda_star for a in areas]),
            alpha=np.array([a.alpha for a in areas]),
            hl_probs=hl,
            hl_sums=sums,
            loss_vector=np.array(scenario.loss_vector, dtype=float),
            delta_neg=np.array([t.delta_neg for t in scenario.obs_types], dtype=float),
        )
        for array in vars(arrays).values():
            array.flags.writeable = False
        return arrays


def _is_number(x) -> bool:
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def _is_integer(x) -> bool:
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _float(x) -> float:
    """A real number as a float; one too large for a float, an integer say, is inf or -inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf


# What a value of each field type must be, parsed or built in code, and the words a refusal quotes.
_TYPES = {
    str: (lambda v: isinstance(v, str) and v != "", "a nonempty string"),
    float: (_is_number, "a number"),
    int: (_is_integer, "an integer"),
    tuple[float, ...]: (
        lambda v: isinstance(v, (list, tuple)) and len(v) == N_HURT_LEVELS and all(map(_is_number, v)),
        f"a list of {N_HURT_LEVELS} numbers",
    ),
}


def _parse_value(kind, value, name: str, where: str):
    """Parse one field's JSON value by the field's type."""
    if kind not in _TYPES:  # tuple[config class, ...]
        if not isinstance(value, list):
            raise ScenarioParseError(f"{where}: field '{name}' must be a list")
        (item, _) = kind.__args__
        return tuple(_parse(item, v, f"{name}[{i}]") for i, v in enumerate(value))
    is_kind, what = _TYPES[kind]
    if not is_kind(value):
        raise ScenarioParseError(f"{where}: field '{name}' must be {what}, got {value!r}")
    if kind == tuple[float, ...]:
        return tuple(_parse_value(float, v, name, where) for v in value)
    return _float(value) if kind is float else value


def _parse(cls, obj, where: str):
    """Build a config object of class cls from its JSON object, field by field."""
    if not isinstance(obj, dict):
        raise ScenarioParseError(f"{where}: expected an object")
    values = {}
    for f in fields(cls):
        if f.name in obj:
            values[f.name] = _parse_value(f.type, obj[f.name], f.name, where)
        elif f.default is MISSING:
            raise ScenarioParseError(f"{where}: missing required field '{f.name}'")
    for key in obj:
        if key not in values:
            raise ScenarioParseError(f"{where}: unknown field '{key}'")
    return cls(**values)


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's fields as a dict; a field given twice is refused, not overwritten."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ScenarioParseError(f"field {key!r} is given twice in one object")
        obj[key] = value
    return obj


def load_scenario(text: str) -> Scenario:
    """Parse a JSON scenario document and return a validated Scenario.

    Fields with a default are optional: rho=1 per observation type, delta_e=0,
    loss_vector=[0, 1, 10, 100, 1000, 10000], horizon_days=365. All others
    are required, and unknown or repeated fields are rejected.

    Raises ScenarioParseError on malformed input and ScenarioValidationError
    (listing every violated invariant) on invalid parameter values.
    """
    try:
        doc = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise ScenarioParseError("nested too deeply to parse") from None
    if not isinstance(doc, dict):
        raise ScenarioParseError("top level: expected a JSON object")
    return _parse(Scenario, doc, "top level")


def load_scenario_file(path: str | Path) -> Scenario:
    """Read a UTF-8 scenario file and load it; a file that cannot be read is a ScenarioError.

    Every ScenarioError it raises names the file.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise ScenarioError(f"cannot read scenario file {str(path)!r}: {reason}") from exc
    try:
        return load_scenario(text)
    except ScenarioError as exc:
        exc.args = (f"scenario file {str(path)!r}: {exc}",)
        raise


def _field_violations(config, where: str) -> list[str]:
    """Check every field of one config object: its type, then finite, then its rule."""
    violations = []
    for f in fields(config):
        value = getattr(config, f.name)
        vector = f.type == tuple[float, ...]
        is_kind, what = _TYPES.get(f.type, (None, None))
        rule = f.metadata.get("rule")
        if is_kind and not is_kind(value):
            problems = [f"{f.name} must be {what}, got {value!r}"]
        elif (vector or f.type is float) and not all(
            map(math.isfinite, map(_float, value if vector else [value]))
        ):
            shown = tuple(map(_float, value)) if vector else _float(value)
            problems = [f"{f.name} must be finite, got {shown}"]
        elif rule in _RANGES:
            problems = [] if _RANGES[rule](value) else [f"{f.name} must be {rule}, got {value}"]
        else:
            problems = rule(value) if rule else []
        violations += [f"{where}: {p}" for p in problems]
    return violations


def _configs(scenario: Scenario, name: str, cls, violations: list[str]):
    """The field's configs: a list or tuple of cls, as hl_probs is one of numbers.

    Otherwise a violation naming the field is added, and there are none.
    """
    value = getattr(scenario, name)
    if isinstance(value, (list, tuple)) and all(isinstance(v, cls) for v in value):
        return value
    violations.append(f"scenario: {name} must be a list of {cls.__name__}, got {value!r}")
    return ()


def validate_scenario(scenario: Scenario) -> list[str]:
    """Check every scenario invariant; return human-readable violations.

    An empty list means the scenario is valid. Violations are data, not
    errors: Scenario raises them when it is built, so a Scenario in hand has
    none, and other callers decide whether to raise.
    """
    violations: list[str] = []
    if isinstance(scenario.areas, (list, tuple)) and not scenario.areas:
        violations.append("scenario: at least one safety area is required")
    areas = _configs(scenario, "areas", SafetyAreaConfig, violations)
    obs_types = _configs(scenario, "obs_types", ObservationTypeConfig, violations)
    area_ids = [area.id for area in areas]
    for i, area in enumerate(areas):
        where = f"area {area.id!r}"
        if area.id in area_ids[:i]:
            violations.append(f"{where}: duplicate area id")
        violations += _field_violations(area, where)
    for obs in obs_types:
        violations += _field_violations(obs, f"obs type {obs.id!r}")
        if _is_integer(obs.m) and _is_integer(obs.rho) and obs.m * obs.rho > MAX_RECORDING_SLOTS:
            violations.append(f"obs type {obs.id!r}: m * rho must be <= 1e6, got {obs.m * obs.rho}")
    ids = [obs.id for obs in obs_types]
    violations += [f"obs type {t!r}: duplicate obs type id" for i, t in enumerate(ids) if t in ids[:i]]
    return violations + _field_violations(scenario, "scenario")


def _json_scalar(value):
    """A numpy scalar, which a Scenario built in code may hold, as its Python number."""
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def serialize_scenario(scenario: Scenario) -> str:
    """Render a Scenario back to JSON text; load_scenario inverts this."""
    return json.dumps(asdict(scenario), indent=2, default=_json_scalar)


def case_study_path() -> Path:
    """Path of the bundled 7-area / 3-observation-type example scenario."""
    return Path(resources.files("safesim").joinpath("data", "case_study.json"))


def load_case_study() -> Scenario:
    return load_scenario_file(case_study_path())
