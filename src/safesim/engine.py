"""Simulation engine: daily loop, seeded replications, ensemble summaries.

Stream contract (version STREAM_CONTRACT). A replication's seed fixes three
independent numpy Generators, so a (scenario, policy, seed) triple fully
determines every byte of the trajectory. With root = SeedSequence(seed) and
its two children from root.spawn(2):

- the environment stream, default_rng(root), the same generator as
  default_rng(seed). Each day, per area in config order, it draws the
  event counts (incidents, unsafe, safe: three Poisson draws), then the
  incidents' severity uniforms as one draw of 2 * n_e;
- the observer stream, default_rng of the first child. Each day the
  policy fields observers, it draws m + rho * m uniforms per observation
  type, in config order: m to allocate the type's observers, then
  rho * m for the recording urns of its cells (see
  observation.step_observations). The count is fixed: it depends neither
  on the day's events nor on the allocation. On a day without observers
  (the none policy's every day) it draws nothing;
- the policy stream, default_rng of the second child, handed to
  Policy.decide.

No stream draws for another, so a policy's own draws never shift the
events or the observers, and the observers' draws never shift the events.
Only the order within a stream matters. The three Poisson draws stay
scalar calls per area because an area's counts come between the previous
area's severities and its own. Everything else in a day is deterministic
and runs as array operations over areas (or over the day's incidents, for
mapping uniforms to Hurt levels), with the same floating-point operations
in the same order as a per-area loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import hurt_levels, step_events, xi_of_theta
from .intervention import feedback_drive, step_theta
from .metrics import compute_day_metrics
from .observation import observer_draws, step_observations
from .policies import AHL, AREA, ObservableHistory, Policy
from .scenario import N_HURT_LEVELS, Scenario


STREAM_CONTRACT = 2  # version of the stream contract in the module docstring


class Streams(NamedTuple):
    """A replication's three random streams; see the module docstring."""

    environment: np.random.Generator
    observer: np.random.Generator
    policy: np.random.Generator

    @classmethod
    def from_seed(cls, seed: int) -> "Streams":
        root = np.random.SeedSequence(seed)
        environment = np.random.default_rng(root)
        observer, policy = (np.random.default_rng(child) for child in root.spawn(2))
        return cls(environment, observer, policy)


class HorizonError(ValueError):
    """The horizon is too long for the run's arrays to be preallocated."""


@dataclass(frozen=True)
class Trajectory:
    """One replication as per-run arrays; row d of each array is day d + 1.

    theta is the start-of-day safety state that drives the day's xi, both
    shaped (days, areas), like the event counts n_e, n_neg and n_pos.
    proportions is the policy's decision, shaped (days, obs_types, areas)
    and NaN on days without observers. expected_loss and tail_prob are the
    ground-truth metrics per day, shaped (days,); run_simulation fills them
    from xi after the last day, so they stay 0 in a run stepped by hand with
    step_day. The recorded data (observation counts and the incident log)
    live in history; obs_pos, obs_neg and incidents refer to its arrays.
    """

    scenario: Scenario
    policy_name: str
    seed: int
    history: ObservableHistory
    theta: np.ndarray
    xi: np.ndarray
    n_e: np.ndarray
    n_neg: np.ndarray
    n_pos: np.ndarray
    proportions: np.ndarray
    expected_loss: np.ndarray
    tail_prob: np.ndarray

    @classmethod
    def allocate(
        cls, scenario: Scenario, policy_name: str, seed: int, horizon: int
    ) -> "Trajectory":
        shape = (horizon, scenario.n_areas)
        n_types = len(scenario.obs_types)
        return cls(
            scenario=scenario,
            policy_name=policy_name,
            seed=seed,
            history=ObservableHistory(scenario.n_areas, scenario.obs_type_ids, horizon),
            theta=np.zeros(shape),
            xi=np.zeros(shape),
            n_e=np.zeros(shape, dtype=int),
            n_neg=np.zeros(shape, dtype=int),
            n_pos=np.zeros(shape, dtype=int),
            proportions=np.full((horizon, n_types, scenario.n_areas), np.nan),
            expected_loss=np.zeros(horizon),
            tail_prob=np.zeros(horizon),
        )

    @property
    def horizon(self) -> int:
        return len(self.theta)

    @property
    def obs_pos(self) -> np.ndarray:
        return self.history.obs_pos

    @property
    def obs_neg(self) -> np.ndarray:
        return self.history.obs_neg

    @property
    def incidents(self) -> np.ndarray:
        """Day-sorted incident log; columns DAY, AREA, AHL, PHL (see policies)."""
        return self.history.incidents

    def incident_totals(self) -> np.ndarray:
        """Total incident counts over the run, indexed [area, ahl]."""
        cells = self.incidents[:, AREA] * N_HURT_LEVELS + self.incidents[:, AHL]
        size = self.scenario.n_areas * N_HURT_LEVELS
        return np.bincount(cells, minlength=size).reshape(-1, N_HURT_LEVELS)


def step_day(
    run: Trajectory, d: int, theta: np.ndarray, policy: Policy, streams: Streams
) -> np.ndarray:
    """Simulate day d + 1 into row d of run; returns the next day's theta.

    Order of operations: derive xi from the carried-over theta, generate
    events, ask the policy (which sees history through yesterday only), run
    the observation process, close the day in the history, and update
    theta. The metrics are not evaluated here: they depend on xi alone, and
    run_simulation computes them for every day at once after the last one.
    """
    scenario, history, params = run.scenario, run.history, run.scenario.arrays
    xi = xi_of_theta(theta, params.xi_base)
    rng = streams.environment
    events = [step_events(rng, area, x) for area, x in zip(scenario.areas, xi.tolist())]
    n_e, n_neg, n_pos, uniforms = zip(*events)
    run.theta[d], run.xi[d] = theta, xi
    run.n_e[d], run.n_neg[d], run.n_pos[d] = n_e, n_neg, n_pos

    decision = policy.decide(history, streams.policy)
    observed, n_neg_obs = None, ()
    if decision.proportions is not None:
        u = streams.observer.random(observer_draws(scenario))
        observed = step_observations(u, scenario, n_pos, n_neg, decision.proportions)
        run.proportions[d] = [decision.proportions[t] for t in scenario.obs_type_ids]
        n_neg_obs = observed.obs_neg
    incidents = ()
    if any(n_e):
        areas = np.repeat(np.arange(len(n_e)), n_e)
        ahl, phl = hurt_levels(params.hl_sums, areas, np.concatenate(uniforms, axis=1))
        incidents = np.column_stack((areas, ahl, phl))
    history.append_day(incidents, observed)

    drive = feedback_drive(n_neg_obs, run.n_e[d], scenario)
    next_theta = [
        step_theta(t, dr, area.k_decay)
        for t, dr, area in zip(theta.tolist(), drive.tolist(), scenario.areas)
    ]
    return np.array(next_theta)


def run_simulation(
    scenario: Scenario, policy: Policy, seed: int, horizon: int | None = None
) -> Trajectory:
    """Run one seeded replication over the given horizon (days)."""
    horizon = scenario.horizon_days if horizon is None else horizon
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    streams = Streams.from_seed(seed)
    try:
        run = Trajectory.allocate(scenario, policy.name, seed, horizon)
    except MemoryError as exc:
        raise HorizonError(f"horizon of {horizon} days is too long to preallocate: {exc}") from None
    theta = np.array([area.theta0 for area in scenario.areas], dtype=float)
    for d in range(horizon):
        theta = step_day(run, d, theta, policy, streams)
    run.expected_loss[:], run.tail_prob[:] = compute_day_metrics(scenario.arrays, run.xi)
    return run


def nearest_rank(sorted_values: np.ndarray, percentile: float):
    """Nearest-rank percentile of a sample sorted ascending along its first axis."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class EnsembleSummary:
    """Cross-replication statistics of one (scenario, policy) ensemble."""

    policy_name: str
    n_reps: int
    base_seed: int
    horizon: int
    area_ids: tuple[str, ...]
    mean_expected_loss: np.ndarray  # per day
    std_expected_loss: np.ndarray
    mean_tail_prob: np.ndarray
    std_tail_prob: np.ndarray
    incident_totals: np.ndarray  # [rep, area, ahl] totals over the horizon
    incident_p05: np.ndarray  # [area, ahl]
    incident_p50: np.ndarray
    incident_p95: np.ndarray


def summarize_trajectories(trajectories: list[Trajectory], base_seed: int) -> EnsembleSummary:
    """Aggregate replications (in seed order) into an EnsembleSummary."""
    if not trajectories:
        raise ValueError("at least one trajectory is required")
    trajectories = sorted(trajectories, key=lambda t: t.seed)
    scenario = trajectories[0].scenario
    loss = np.stack([t.expected_loss for t in trajectories])
    tail = np.stack([t.tail_prob for t in trajectories])
    totals = np.stack([t.incident_totals() for t in trajectories])
    sorted_totals = np.sort(totals, axis=0)

    return EnsembleSummary(
        policy_name=trajectories[0].policy_name,
        n_reps=len(trajectories),
        base_seed=base_seed,
        horizon=loss.shape[1],
        area_ids=scenario.area_ids,
        mean_expected_loss=loss.mean(axis=0),
        std_expected_loss=loss.std(axis=0),
        mean_tail_prob=tail.mean(axis=0),
        std_tail_prob=tail.std(axis=0),
        incident_totals=totals,
        incident_p05=nearest_rank(sorted_totals, 5.0),
        incident_p50=nearest_rank(sorted_totals, 50.0),
        incident_p95=nearest_rank(sorted_totals, 95.0),
    )


def run_ensemble(
    scenario: Scenario,
    policy: Policy,
    n_reps: int,
    base_seed: int,
    horizon: int | None = None,
) -> EnsembleSummary:
    """Run n_reps replications with seeds base_seed, base_seed+1, ... and summarize.

    Replications are independent; the summary depends only on the set of
    seeded runs, not on the order they execute in.
    """
    if n_reps < 1:
        raise ValueError(f"n_reps must be >= 1, got {n_reps}")
    trajectories = [
        run_simulation(scenario, policy, seed=base_seed + i, horizon=horizon) for i in range(n_reps)
    ]
    return summarize_trajectories(trajectories, base_seed)
