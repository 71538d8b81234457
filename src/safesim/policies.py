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
from .scenario import N_HURT_LEVELS

DEFAULT_WINDOW_DAYS = 30


class PolicyError(ValueError):
    """Unknown policy name or invalid policy parameters."""


class DecisionError(RuntimeError):
    """A policy broke a rule while deciding: it read its history past its
    lookback_days, or drew from numpy's or Python's global generator."""


def _check_days(days, what: str, minimum: int) -> int:
    """A number of days: an integer of at least minimum, not a bool."""
    integer = isinstance(days, numbers.Integral) and not isinstance(days, bool)
    if not (integer and days >= minimum):
        raise PolicyError(f"{what} must be an integer >= {minimum}, got {days!r}")
    return int(days)


def check_lookback(policy) -> int | None:
    """policy.lookback_days, refused with PolicyError unless None or an integer >= 0."""
    lookback = policy.lookback_days
    if lookback is None:
        return None
    return _check_days(lookback, f"policy {policy.name!r}: lookback_days, if not None,", 0)


def _read_only(a: np.ndarray) -> np.ndarray:
    view = a.view()
    view.flags.writeable = False
    return view


class ObservableHistory:
    """Everything a policy is allowed to see: the run's recorded data.

    Holds only recorded data; latent theta/xi never enter. obs_pos and
    obs_neg are the observation counts, indexed [day - 1, obs_type, area]:
    views of the replication's columns, which the engine writes and from
    whose shape the history reads the areas and, unless held_days is given,
    the horizon. The incident log is int32 (16 B an incident) and indexed
    like a CSR matrix: the rows of day t are log[day_end[t - 1]:day_end[t]].
    The engine closes each day with _append_day after the day's decision, so
    while deciding day t a policy sees days 1..t-1, and a window query costs
    O(window), not O(days). Every array handed out is a read-only view, so a
    policy cannot alter the run's record.

    From day 1 to the end of the run the engine binds the history to its
    policy's lookback_days (_bind, _unbind). Under a finite lookback the
    history refuses, with DecisionError, a window longer than the lookback
    and every read of incidents, obs_pos and obs_neg: it never returns fewer
    days than asked. held_days None keeps every closed day's rows. An
    integer keeps the rows of the last held_days closed days, and the
    history then refuses to read past them, bound or not: when the log's
    buffer is full, the rows of older days are folded into per-area,
    per-AHL totals, and only then does the buffer grow. len() counts every
    closed day either way.
    """

    def __init__(
        self, obs_type_ids: tuple[str, ...], obs_pos: np.ndarray, obs_neg: np.ndarray,
        held_days: int | None = None,
    ):
        horizon, _, self.n_areas = obs_pos.shape
        self.obs_type_ids = tuple(obs_type_ids)
        self._obs_pos = _read_only(obs_pos)
        self._obs_neg = _read_only(obs_neg)
        self._held = held_days
        # day t's end is in slot t % len: every day of the run, or the held days and the one before
        self._day_end = np.zeros((horizon if held_days is None else held_days) + 1, dtype=np.intp)
        self._log = np.zeros((64, 4), dtype=np.int32)
        self._folded = np.zeros((self.n_areas, N_HURT_LEVELS), dtype=np.intp)
        self._n_days = self._n_rows = 0
        self._policy_name, self._lookback = None, held_days

    def __len__(self) -> int:
        return self._n_days

    @property
    def current_day(self) -> int:
        """Index of the day currently being decided."""
        return self._n_days + 1

    def _refuse_past_lookback(self, what: str) -> None:
        if self._lookback is not None:
            raise DecisionError(
                f"policy {self._policy_name!r} declares lookback_days = {self._lookback}, "
                f"so it cannot read {what}"
            )

    @property
    def obs_pos(self) -> np.ndarray:
        """Recorded safe counts, [day - 1, obs_type, area]; refused under a finite lookback."""
        self._refuse_past_lookback("obs_pos")
        return self._obs_pos

    @property
    def obs_neg(self) -> np.ndarray:
        """Recorded unsafe counts, [day - 1, obs_type, area]; refused under a finite lookback."""
        self._refuse_past_lookback("obs_neg")
        return self._obs_neg

    @property
    def incidents(self) -> np.ndarray:
        """The incident log of all closed days; columns DAY, AREA, AHL, PHL."""
        self._refuse_past_lookback("the whole incident log (incidents)")
        return self._held_rows()

    def _held_rows(self) -> np.ndarray:
        """The log rows held, read-only: every closed day's under held_days None."""
        return _read_only(self._log[: self._n_rows])

    def _totals_of(self, rows: np.ndarray) -> np.ndarray:
        """Log rows counted per area and AHL, by one bincount."""
        cells = rows[:, AREA] * N_HURT_LEVELS + rows[:, AHL]
        return np.bincount(cells, minlength=self._folded.size).reshape(self._folded.shape)

    def _incident_totals(self) -> np.ndarray:
        """Incidents of every closed day per area and AHL: the folded totals plus the held rows."""
        return self._folded + self._totals_of(self._log[: self._n_rows])

    def _bind(self, policy_name: str, lookback_days: int | None) -> None:
        """Refuse reads past lookback_days (check_lookback's) from now on: the engine's call on day 1."""
        if self._held is not None and (lookback_days is None or lookback_days > self._held):
            raise ValueError(
                f"policy {policy_name!r} reads back {lookback_days} days; the history holds {self._held}"
            )
        self._policy_name, self._lookback = policy_name, lookback_days

    def _unbind(self) -> None:
        """The run has ended: refuse reads past the days held only, as before _bind."""
        self._lookback = self._held

    def _fold_unread_days(self) -> int:
        """Fold the rows no window can read any more into the totals; returns the rows kept.

        After the current day closes, a window of held_days reads back to
        day current_day - held_days + 1, so the rows of the days before it
        go into the totals, and the rest move to the front.
        """
        if self._held is None:
            return self._n_rows
        last_unread = self._n_days + 1 - max(self._held, 1)
        cut = self._day_end[max(last_unread, 0) % len(self._day_end)]
        self._folded += self._totals_of(self._log[:cut])
        self._log[: self._n_rows - cut] = self._log[cut : self._n_rows]
        self._day_end -= cut
        self._n_rows -= cut
        return self._n_rows

    def _append_day(self, rows: np.ndarray) -> None:
        """Close the current day: log its incidents. The engine alone calls it.

        rows holds the day's log rows (DAY = current_day), shaped (incidents,
        4), in log order: area by area and, within an area, in draw order, as
        step_events gives them. A full buffer is first compacted (see the
        class docstring), and doubles only if the kept rows and the day's
        would still fill more than half of it.
        """
        start = self._n_rows
        end = start + len(rows)
        if end > len(self._log):
            start = self._fold_unread_days()
            end = start + len(rows)
            if 2 * end > len(self._log):
                grown = np.zeros((max(end, 2 * len(self._log)), 4), dtype=self._log.dtype)
                grown[:start] = self._log[:start]
                self._log = grown
        self._log[start:end] = rows
        self._n_days += 1
        self._day_end[self._n_days % len(self._day_end)] = self._n_rows = end

    def window(self, window_days: int) -> np.ndarray:
        """Incident log rows of days current_day - window_days .. current_day - 1."""
        if self._lookback is not None and window_days > self._lookback:
            self._refuse_past_lookback(f"a window of {window_days} days")
        first = min(max(self._n_days - window_days, 0), self._n_days)
        return _read_only(self._log[self._day_end[first % len(self._day_end)] : self._n_rows])

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

    The engine steps an ensemble's replications together, each with its own
    instance: the first replication decides with the caller's, and every
    other with a copy.deepcopy of it made on day 1 (engine.step_day). State
    a policy keeps between its calls therefore stays with one replication.
    The engine refuses, with DecisionError, a policy whose day-1 decisions
    move numpy's or Python's global generator.

    lookback_days says how far back decide reads. None, the default, is all
    of history. An integer L lets decide read window(w) for w <= L only,
    and neither incidents nor obs_pos and obs_neg: the history refuses any
    other read with DecisionError (see ObservableHistory), so a run never
    gives a decision made on fewer days than it asked for. An ensemble
    (engine.run_ensemble) of such a policy holds L days of incident rows and
    one day of observed counts, whatever its horizon. A value other than
    None or an integer >= 0 is refused before day 1 (check_lookback).
    """

    name = "policy"
    lookback_days: int | None = None

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> dict | None:
        raise NotImplementedError


class UniformRandomPolicy(Policy):
    """Spread observers uniformly: every area gets proportion 1/n, every day."""

    name = "uniform"
    lookback_days = 0

    def decide(self, history: ObservableHistory, rng: np.random.Generator) -> dict:
        s = np.full(history.n_areas, 1.0 / history.n_areas)
        return dict.fromkeys(history.obs_type_ids, s)


class IncidentCountPolicy(Policy):
    """Proportions follow recorded incident counts over a trailing window.

    Falls back to uniform until any incident has been recorded in the window.
    """

    name = "counts"

    def __init__(self, window_days: int = DEFAULT_WINDOW_DAYS):
        self.window_days = self.lookback_days = _check_days(window_days, "window_days", 1)

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
        self.window_days = self.lookback_days = _check_days(window_days, "window_days", 1)

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
    lookback_days = 0

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
    lookback_days = 0

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
