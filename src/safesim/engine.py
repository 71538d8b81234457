"""Simulation engine: daily loop, seeded replications, ensemble summaries.

Stream contract (version STREAM_CONTRACT). A replication's seed fixes three
independent numpy Generators, so a (scenario, policy, seed) triple fully
determines every byte of the trajectory. With root = SeedSequence(seed) and
its two children from root.spawn(2):

- the environment stream, default_rng(root), the same generator as
  default_rng(seed). At the start of each block of days it draws the
  block's potential tasks and their uniforms, in the order that
  events.EventBlocks states; no draw depends on theta or on the policy;
- the observer stream, default_rng of the first child. Each day the
  policy fields observers, observation.step_observations takes in the
  decision and then draws the day's uniforms from it, in the count and
  layout its docstring states. On a day without observers (the none
  policy's every day) it draws nothing;
- the policy stream, default_rng of the second child, handed to
  Policy.decide.

No stream draws for another, so a policy's own draws never shift the
events or the observers, and the observers' draws never shift the events.
Only the order within a stream matters. Since the environment does not
depend on theta, one seed gives every policy the same tasks: a potential
task becomes real on its day if its uniform is below 1 - theta, and safe
otherwise (events.step_events). Two policies compared at one seed then
differ only through their decisions (common random numbers).

The replications of an ensemble step together (run_replications): one
day loop advances all of them. Each still draws from its own three
streams, in the order above, and has its own history and policy
decision, so its trajectory is byte-identical to the run of its seed
alone. What draws nothing (the day's classification of tasks, storage
and the feedback drive) runs once a day over the areas of every
replication. run_simulation is the case of one replication.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import AHL, AREA, EventBlocks, step_events, xi_of_theta
from .intervention import feedback_drive, step_theta
from .metrics import compute_day_metrics
from .observation import step_observations
from .policies import ObservableHistory, Policy
from .scenario import N_HURT_LEVELS, Scenario


STREAM_CONTRACT = 3  # version of the stream contract in the module docstring


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


MAX_HORIZON = np.iinfo(np.int32).max  # the incident log's DAY column is int32
METRICS_BLOCK = 1 << 9  # days compute_day_metrics evaluates per call; a 365-day run is one


class HorizonError(ValueError):
    """The run is too large to preallocate: too many days, or replications x days x areas."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One replication as per-run arrays; row d of each array is day d + 1.

    theta is the start-of-day safety state, shaped (days, areas) like the
    int32 event counts n_e, n_neg and n_pos (views of Replications.counts);
    xi, the unsafe fraction it drives, is not stored but computed on each read.
    obs_pos and obs_neg are the recorded safe and unsafe counts (int32) and
    proportions the policy's decision, all shaped (days, obs_types, areas);
    the counts are 0 and the proportions NaN on days without observers.
    expected_loss and tail_prob are the ground-truth metrics per day, shaped
    (days,); run_replications fills them from xi after the last day, so they
    stay 0 in a run stepped by hand with step_day. All of these arrays are
    views of the replication's columns in the Replications that stepped it;
    history reads the observation counts through read-only views of the
    same columns and owns the incident log that incidents refers to.
    """

    scenario: Scenario
    policy_name: str
    seed: int
    history: ObservableHistory
    theta: np.ndarray
    n_e: np.ndarray
    n_neg: np.ndarray
    n_pos: np.ndarray
    obs_pos: np.ndarray
    obs_neg: np.ndarray
    proportions: np.ndarray
    expected_loss: np.ndarray
    tail_prob: np.ndarray

    @property
    def horizon(self) -> int:
        return len(self.theta)

    @property
    def xi(self) -> np.ndarray:
        """The unsafe fraction per day and area: the metrics' operation on theta, same bits."""
        return xi_of_theta(self.theta, self.scenario.arrays.xi_base)

    @property
    def incidents(self) -> np.ndarray:
        """Day-sorted int32 incident log; columns DAY, AREA, AHL, PHL (see events)."""
        return self.history.incidents

    def incident_totals(self) -> np.ndarray:
        """Total incident counts over the run, indexed [area, ahl]."""
        cells = self.incidents[:, AREA] * N_HURT_LEVELS + self.incidents[:, AHL]
        size = self.scenario.n_areas * N_HURT_LEVELS
        return np.bincount(cells, minlength=size).reshape(-1, N_HURT_LEVELS)


class Replications:
    """R replications of one (scenario, policy), stepped through the days together.

    The per-run arrays of Trajectory are held here for every replication at
    once, one row per day, so that a day's writes are contiguous rows.
    Column r * areas + a is area a of replication r, and columns[r] slices
    replication r's columns: theta is shaped (days, R * areas), counts (the
    int32 n_e, n_neg and n_pos) (days, 3, R * areas), obs_pos, obs_neg and
    proportions (days, obs_types, R * areas), expected_loss and tail_prob
    (days, R). xi is not held (see Trajectory). runs[r] is replication r's
    Trajectory, whose arrays and history are views of columns[r], and
    streams[r] its random streams. events holds the environment draws of
    the days ahead, and k_decay each column's decay factor. Every size
    check of a run is made here, before its first day: see HorizonError.
    """

    def __init__(self, scenario: Scenario, policy_name: str, seeds: Sequence[int], horizon: int):
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        n_areas = scenario.n_areas
        too_big = f"replications x {horizon} days x {n_areas} areas is too large to preallocate"
        try:
            n_reps = len(seeds)
        except OverflowError:  # a range of seeds longer than an index can count
            raise HorizonError(f"more than {np.iinfo(np.intp).max} {too_big}") from None
        if n_reps < 1:
            raise ValueError(f"n_reps must be >= 1, got {n_reps} seeds")
        too_long = f"horizon of {horizon} days is too long to preallocate"
        if horizon > MAX_HORIZON:
            raise HorizonError(f"{too_long}: days are int32, at most {MAX_HORIZON}")
        shape = (horizon, n_reps * n_areas)
        try:
            self.theta = np.zeros(shape)
            self.counts = np.zeros((horizon, 3, shape[1]), dtype=np.int32)
            by_type = (horizon, len(scenario.obs_types), shape[1])
            self.obs_pos = np.zeros(by_type, dtype=np.int32)
            self.obs_neg = np.zeros(by_type, dtype=np.int32)
            self.proportions = np.full(by_type, np.nan)
            self.expected_loss = np.zeros((horizon, n_reps))
            self.tail_prob = np.zeros((horizon, n_reps))
        except (MemoryError, ValueError, OverflowError) as exc:  # ValueError: "array is too big"
            raise HorizonError(f"{n_reps} {too_big}: {exc}") from None
        self.scenario = scenario
        self.streams = tuple(Streams.from_seed(seed) for seed in seeds)
        self.columns = tuple(slice(r * n_areas, (r + 1) * n_areas) for r in range(n_reps))
        per_column = ("theta", "obs_pos", "obs_neg", "proportions")
        self.runs = tuple(
            Trajectory(
                scenario,
                policy_name,
                seed,
                ObservableHistory(scenario.obs_type_ids, self.obs_pos[..., cols], self.obs_neg[..., cols]),
                expected_loss=self.expected_loss[:, r],
                tail_prob=self.tail_prob[:, r],
                **dict(zip(("n_e", "n_neg", "n_pos"), self.counts[..., cols].swapaxes(0, 1))),
                **{k: getattr(self, k)[..., cols] for k in per_column},
            )
            for r, (seed, cols) in enumerate(zip(seeds, self.columns))
        )
        self.events = EventBlocks(scenario, [s.environment for s in self.streams])
        self.k_decay = [area.k_decay for area in scenario.areas] * n_reps


def step_day(reps: Replications, d: int, theta: np.ndarray, policy: Policy) -> np.ndarray:
    """Simulate day d + 1 of every replication into row d; returns the next day's theta.

    theta is the start-of-day state per column; replication r reads and
    writes reps.columns[r] (see Replications). Order of operations: classify
    the day's tasks at theta into reps.counts[d], ask the policy (which sees
    history through yesterday only), run the observation process, close the
    day in the history, and update theta. Each replication draws from its
    own streams in the order of a run stepped alone; what is deterministic
    runs once over all columns. The metrics are not evaluated here: they
    depend on xi alone, and run_replications computes them from the stored
    theta after the last day.
    """
    scenario = reps.scenario
    events = step_events(reps.events, d, theta, reps.counts[d])
    reps.theta[d] = theta
    n_neg, n_pos = reps.counts[d, 1:].tolist()

    for run, streams, columns, rows in zip(reps.runs, reps.streams, reps.columns, events.rows):
        decision = policy.decide(run.history, streams.policy)
        if decision is not None:
            step_observations(
                decision, streams.observer, scenario, n_pos[columns], n_neg[columns],
                run.proportions[d], run.obs_pos[d], run.obs_neg[d],
            )
        run.history._append_day(rows)

    # A replication without observers keeps its zero observed counts. Their
    # terms add up to 0.0, and 0.0 + x is x, so its drive has the bits of
    # the incident term alone, the drive of a day without observers.
    drive = feedback_drive(reps.obs_neg[d], reps.counts[d, 0], scenario)
    columns = zip(theta.tolist(), drive.tolist(), reps.k_decay)
    return np.array([step_theta(t, dr, k) for t, dr, k in columns])


def run_replications(
    scenario: Scenario, policy: Policy, seeds: Sequence[int], horizon: int | None = None
) -> list[Trajectory]:
    """Run one seeded replication per seed over the given horizon (days), in lockstep.

    Returns one trajectory per seed, in the order of seeds. Each is
    byte-identical to the run of its seed alone: the replications share one
    day loop, not a random draw. Replications refuses a run of the wrong
    size before its first day; this only reads the batch it built.
    """
    horizon = scenario.horizon_days if horizon is None else horizon
    reps = Replications(scenario, policy.name, seeds, horizon)
    theta = np.array([area.theta0 for area in scenario.areas] * len(reps.runs), dtype=float)
    for d in range(horizon):
        theta = step_day(reps, d, theta, policy)
    # One replication and METRICS_BLOCK days at a time: the metrics'
    # temporaries then scale with a block of one run's days, not with the run.
    arrays = scenario.arrays
    for run in reps.runs:
        for start in range(0, horizon, METRICS_BLOCK):
            days = slice(start, start + METRICS_BLOCK)
            xi = xi_of_theta(run.theta[days], arrays.xi_base)
            run.expected_loss[days], run.tail_prob[days] = compute_day_metrics(arrays, xi)
    return list(reps.runs)


def run_simulation(
    scenario: Scenario, policy: Policy, seed: int, horizon: int | None = None
) -> Trajectory:
    """Run one seeded replication over the given horizon (days)."""
    return run_replications(scenario, policy, [seed], horizon)[0]


def nearest_rank(sorted_values: np.ndarray, percentile: float):
    """Nearest-rank percentile of a sample sorted ascending along its first axis."""
    rank = max(1, math.ceil(percentile / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True, eq=False)
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


def spread(values: np.ndarray) -> np.ndarray:
    """Standard deviation across replications (axis 0), exactly 0 where they all agree.

    np.std subtracts the mean, and the mean of identical values can round
    away from them, so identical replications would get a band of a few ulps.
    """
    std = values.std(axis=0)
    std[(values == values[0]).all(axis=0)] = 0.0
    return std


def summarize_trajectories(trajectories: list[Trajectory], base_seed: int) -> EnsembleSummary:
    """Aggregate replications of one policy, scenario and horizon, in seed order, into a summary."""
    if not trajectories:
        raise ValueError("at least one trajectory is required")
    for field in ("policy_name", "scenario", "horizon"):
        if any(getattr(t, field) != getattr(trajectories[0], field) for t in trajectories):
            raise ValueError(f"trajectories of one ensemble must share their {field}")
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
        std_expected_loss=spread(loss),
        mean_tail_prob=tail.mean(axis=0),
        std_tail_prob=spread(tail),
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
    seeds = range(base_seed, base_seed + n_reps)
    return summarize_trajectories(run_replications(scenario, policy, seeds, horizon), base_seed)
