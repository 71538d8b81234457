"""Allocation policies: map observed safety history to observer proportions.

A policy sees only recorded data (observations and incident reports), never
the latent safety state. Its decision each day maps each observation type id
to a proportion vector, or is None for no observers. The built-ins: uniform
random, trailing incident counts, exponential incident-severity weights,
fixed prior weights, and a no-observation baseline. Custom policies subclass
Policy and register under a name for CLI use.
"""

from __future__ import annotations

import numbers

import numpy as np

from .events import AHL, AREA, DAY, PHL  # the incident log's columns, importable from here too
from .observation import ProportionError, check_proportions

DEFAULT_WINDOW_DAYS = 30


class PolicyError(ValueError):
    """Unknown policy name or invalid policy parameters."""


def _check_window(window_days) -> int:
    """A trailing window length in days: an integer of at least 1, not a bool."""
    integer = isinstance(window_days, numbers.Integral) and not isinstance(window_days, bool)
    if not (integer and window_days >= 1):
        raise PolicyError(f"window_days must be an integer >= 1, got {window_days!r}")
    return int(window_days)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class ObservableHistory:
    """Everything a policy is allowed to see: the run's recorded data.

    Holds only recorded data; latent theta/xi never enter. obs_pos and
    obs_neg are the observation counts, indexed [day - 1, obs_type, area]:
    views of the replication's columns, which the engine writes and from
    whose shape the history reads the areas and the horizon. The incident
    log is int32 (16 B an incident) and indexed like a CSR matrix: the rows
    of day t are log[day_end[t - 1]:day_end[t]]. The engine closes each day
    with _append_day after the day's decision, so while deciding day t a
    policy sees days 1..t-1, and a window query costs O(window), not O(days).
    Every array handed out is a read-only view, so a policy cannot alter
    the run's record.
    """

    def __init__(self, obs_type_ids: tuple[str, ...], obs_pos: np.ndarray, obs_neg: np.ndarray):
        horizon, _, self.n_areas = obs_pos.shape
        self.obs_type_ids = tuple(obs_type_ids)
        self.obs_pos = _read_only(obs_pos)
        self.obs_neg = _read_only(obs_neg)
        self._day_end = np.zeros(horizon + 1, dtype=np.intp)
        self._log = np.zeros((64, 4), dtype=np.int32)
        self._n_days = self._n_rows = 0

    def __len__(self) -> int:
        return self._n_days

    @property
    def current_day(self) -> int:
        """Index of the day currently being decided."""
        return self._n_days + 1

    @property
    def incidents(self) -> np.ndarray:
        """The incident log of all closed days; columns DAY, AREA, AHL, PHL."""
        return _read_only(self._log[: self._n_rows])

    def _append_day(self, rows: np.ndarray) -> None:
        """Close the current day: log its incidents. The engine alone calls it.

        rows holds the day's log rows (DAY = current_day), shaped (incidents,
        4), in log order: area by area and, within an area, in draw order, as
        step_events gives them.
        """
        start = self._n_rows
        end = start + len(rows)
        if end > len(self._log):
            grown = np.zeros((max(end, 2 * len(self._log)), 4), dtype=self._log.dtype)
            grown[:start] = self._log[:start]
            self._log = grown
        self._log[start:end] = rows
        self._n_days += 1
        self._day_end[self._n_days] = self._n_rows = end

    def window(self, window_days: int) -> np.ndarray:
        """Incident log rows of days current_day - window_days .. current_day - 1."""
        first = min(max(self._n_days - window_days, 0), self._n_days)
        return _read_only(self._log[self._day_end[first] : self._n_rows])

    def incident_counts(self, window_days: int) -> np.ndarray:
        """Recorded incidents per area over the trailing window (near-misses included)."""
        return np.bincount(self.window(window_days)[:, AREA], minlength=self.n_areas)

    def max_ahl(self, window_days: int) -> np.ndarray:
        """Highest recorded AHL per area over the trailing window; 0 where none."""
        rows = self.window(window_days)
        worst = np.zeros(self.n_areas, dtype=rows.dtype)  # no casting: np.maximum.at's fast loop
        np.maximum.at(worst, rows[:, AREA].astype(np.intp), rows[:, AHL])
        return worst


class Policy:
    """Base class for allocation policies.

    decide() returns the day's decision: a mapping from every observation
    type id to a proportion vector over areas, or None to field no observers.
    It must be a pure function of the history and of rng: identical
    histories and generator states yield identical decisions. Policies
    needing randomness must draw from rng, the replication's policy stream
    (see the engine docstring), so replications stay reproducible. Nothing
    else draws from that stream, so a policy's draws never shift the
    environment or the observers.

    The engine steps an ensemble's replications together, so one instance
    decides for every replication each day, one call per replication in
    turn. It must therefore keep no per-run state: whatever it needs to
    remember belongs in the history it is handed.
    """

    name = "policy"

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> dict | None:
        raise NotImplementedError


class UniformRandomPolicy(Policy):
    """Spread observers uniformly: every area gets proportion 1/n, every day."""

    name = "uniform"

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> dict:
        s = np.full(history.n_areas, 1.0 / history.n_areas)
        return dict.fromkeys(history.obs_type_ids, s)


class IncidentCountPolicy(Policy):
    """Proportions follow recorded incident counts over a trailing window.

    Falls back to uniform until any incident has been recorded in the window.
    """

    name = "counts"

    def __init__(self, window_days: int = DEFAULT_WINDOW_DAYS):
        self.window_days = _check_window(window_days)

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> dict:
        counts = history.incident_counts(self.window_days)
        total = counts.sum()
        if total == 0:
            s = np.full(history.n_areas, 1.0 / history.n_areas)
        else:
            s = counts / total
        return dict.fromkeys(history.obs_type_ids, s)


class IncidentSeverityPolicy(Policy):
    """Weight each area by 2**(worst recorded AHL in a trailing window).

    Areas with no recorded incidents keep weight 2**0 = 1, so none starves.
    """

    name = "severity"

    def __init__(self, window_days: int = DEFAULT_WINDOW_DAYS):
        self.window_days = _check_window(window_days)

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> dict:
        weights = np.power(2.0, history.max_ahl(self.window_days))
        s = weights / weights.sum()
        return dict.fromkeys(history.obs_type_ids, s)


class FixedWeightsPolicy(Policy):
    """Allocate by a fixed prior weight vector, ignoring history.

    When built, the weights pass check_proportions, the rule for every
    decision's vectors, and the policy keeps its own copy of them. Their
    number is checked against the areas on the first day with observers.
    """

    name = "weighted"

    def __init__(self, weights):
        try:
            self.weights = np.array(check_proportions(weights, np.size(weights)))
        except ProportionError as exc:
            raise PolicyError(str(exc).replace("proportions", "weights")) from None

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> dict:
        return dict.fromkeys(history.obs_type_ids, self.weights)


class NoObservationPolicy(Policy):
    """Baseline: no observers in the field, so the environment gets no feedback."""

    name = "none"

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> None:
        return None


_REGISTRY: dict[str, type[Policy]] = {}


def register_policy(name: str, cls: type[Policy]) -> None:
    """Make a policy class constructible by name (see make_policy)."""
    _REGISTRY[name] = cls


for _builtin in (UniformRandomPolicy, IncidentCountPolicy, IncidentSeverityPolicy,
                 FixedWeightsPolicy, NoObservationPolicy):
    register_policy(_builtin.name, _builtin)


def policy_names() -> list[str]:
    return sorted(_REGISTRY)


def make_policy(spec: str) -> Policy:
    """Build a policy from a CLI spec string.

    Plain names ('uniform', 'counts', 'severity', 'none') take no arguments,
    so no ':'; 'weighted:w1,w2,...' supplies the fixed weight vector inline.
    """
    name, colon, args = spec.partition(":")
    cls = _REGISTRY.get(name)
    if cls is None:
        raise PolicyError(f"unknown policy {name!r}; valid names: {', '.join(policy_names())}")
    if cls is FixedWeightsPolicy:
        if not args:
            raise PolicyError("the weighted policy needs weights, e.g. weighted:0.5,0.5")
        try:
            weights = [float(w) for w in args.split(",")]
        except ValueError as exc:
            raise PolicyError(f"could not parse weights {args!r}") from exc
        return cls(weights)
    if colon:
        raise PolicyError(f"policy {name!r} takes no arguments")
    return cls()
