"""Observer allocation and biased recording of safe/unsafe events.

Observers of each type are spread over safety areas by a policy-supplied
proportion vector, then each (type, area) cell records at most
rho * observers events out of that area's daily activity pool. Which events
get recorded is controlled by a Dirichlet draw: each safe event receives
concentration eta_pos, each unsafe event eta_neg, so unequal concentrations
bias the record toward one class. Incidents bypass this module entirely;
they are always recorded.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .scenario import PROB_TOL, Scenario

TINY = np.finfo(float).tiny  # floor on Dirichlet weights, which can underflow to 0


class ProportionError(ValueError):
    """An allocation proportion vector is malformed."""


def check_proportions(s: np.ndarray, n_areas: int) -> np.ndarray:
    """Validate an allocation proportion vector; returns it as float array."""
    s = np.asarray(s, dtype=float)
    if s.shape != (n_areas,):
        raise ProportionError(f"expected {n_areas} proportions, got shape {s.shape}")
    if not np.all(np.isfinite(s)):
        raise ProportionError("proportions must be finite")
    if np.any(s < 0.0):
        raise ProportionError("proportions must be nonnegative")
    if abs(float(s.sum()) - 1.0) > PROB_TOL:
        raise ProportionError(f"proportions must sum to 1, got {float(s.sum())}")
    return s


@dataclass(frozen=True)
class DayObservations:
    """One day's recorded safe/unsafe event counts, indexed [obs_type, area]."""

    obs_pos: np.ndarray
    obs_neg: np.ndarray

    @classmethod
    def empty(cls, n_types: int, n_areas: int) -> "DayObservations":
        shape = (n_types, n_areas)
        return cls(obs_pos=np.zeros(shape, dtype=int), obs_neg=np.zeros(shape, dtype=int))


def allocate_observers(rng: np.random.Generator, m: int, s: np.ndarray) -> np.ndarray:
    """Distribute m observers over areas: one multinomial draw with proportions s."""
    if m == 0:
        return np.zeros(len(s), dtype=int)
    return rng.multinomial(m, s)


def select_observed(
    rng: np.random.Generator,
    n_pos: int,
    n_neg: int,
    capacity: int,
    eta_pos: float,
    eta_neg: float,
) -> tuple[int, int]:
    """Record min(capacity, n_pos + n_neg) distinct events; return (pos, neg) counts.

    Per-event recording weights are one Dirichlet draw with concentration
    eta_pos for each safe event and eta_neg for each unsafe event (if one
    class is empty the draw covers only the other). Events are then taken
    without replacement, each pick proportional to the remaining weights;
    the exponential race below is distributionally identical to that
    iterative renormalized sampling.
    """
    total = n_pos + n_neg
    if total == 0 or capacity <= 0:
        return 0, 0
    if capacity >= total:
        return n_pos, n_neg
    conc = np.array((eta_pos, eta_neg)).repeat((n_pos, n_neg))
    weights = np.maximum(rng.dirichlet(conc), TINY)
    keys = rng.exponential(size=total) / weights
    chosen = np.argpartition(keys, capacity)[:capacity]
    obs_neg = int(np.count_nonzero(chosen >= n_pos))
    return capacity - obs_neg, obs_neg


def step_observations(
    rng: np.random.Generator,
    scenario: Scenario,
    n_pos: Sequence[int],
    n_neg: Sequence[int],
    proportions_by_type: dict[str, np.ndarray],
) -> DayObservations:
    """Run one day of the observation process over every type and area.

    n_pos and n_neg are the day's safe and unsafe activity counts per area.
    Stream order: for each obs type in config order, one allocation draw,
    then the per-area selection draws for areas that received observers and
    have events. Each type draws its own Dirichlet weights, so the same
    event can be recorded by several types but at most once per type.
    """
    n_areas = scenario.n_areas
    out = DayObservations.empty(len(scenario.obs_types), n_areas)
    checked = {}  # id of a proportion vector -> its validated array
    for t_idx, obs_type in enumerate(scenario.obs_types):
        given = proportions_by_type[obs_type.id]
        s = checked.get(id(given))
        if s is None:
            s = checked[id(given)] = check_proportions(given, n_areas)
        q = allocate_observers(rng, obs_type.m, s)
        for a_idx in np.flatnonzero(q).tolist():
            if n_pos[a_idx] + n_neg[a_idx] == 0:
                continue
            pos, neg = select_observed(
                rng,
                n_pos[a_idx],
                n_neg[a_idx],
                obs_type.rho * int(q[a_idx]),
                obs_type.eta_pos,
                obs_type.eta_neg,
            )
            out.obs_pos[t_idx, a_idx] = pos
            out.obs_neg[t_idx, a_idx] = neg
    return out
