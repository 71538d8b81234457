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
streams, in the order above, and has its own history, policy instance and
policy decision, so its trajectory is byte-identical to the run of its
seed alone. What draws nothing (the day's classification of tasks,
storage and the feedback drive) runs once a day over the areas of every
replication. run_simulation is the case of one replication, and
run_ensemble steps the same loop over a batch that keeps only what its
policy and its summary read: how many days of each record a batch holds
is data (see Replications), not a second loop.
"""

from __future__ import annotations

import copy
import math
import random
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .events import EventBlocks, step_events, xi_of_theta
from .intervention import feedback_drive, step_theta
from .metrics import compute_day_metrics
from .observation import step_observations
from .policies import DecisionError, ObservableHistory, Policy, check_lookback
from .scenario import Scenario


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
# rows (replication-days) per compute_day_metrics call, and the theta an ensemble holds
METRICS_BLOCK = 1 << 9


class HorizonError(ValueError):
    """The run is too large to preallocate: too many days, or replications x days x areas."""


@dataclass(frozen=True, eq=False)
class Trajectory:
    """One replication as per-run arrays; row d of each array is day d + 1.

    run_ensemble's batch holds fewer rows of theta, n_e, n_neg, n_pos,
    obs_pos, obs_neg and proportions, and fewer incident rows (see
    Replications), and its trajectories never leave run_ensemble.

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
        return len(self.expected_loss)

    @property
    def xi(self) -> np.ndarray:
        """The unsafe fraction per day and area: the metrics' operation on theta, same bits."""
        return xi_of_theta(self.theta, self.scenario.arrays.xi_base)

    @property
    def incidents(self) -> np.ndarray:
        """Day-sorted int32 incident log; columns DAY, AREA, AHL, PHL (see events)."""
        return self.history._held_rows()

    def incident_totals(self) -> np.ndarray:
        """Total incident counts over the run, indexed [area, ahl]."""
        return self.history._incident_totals()


class Replications:
    """R replications of one (scenario, policy), stepped through the days together.

    The per-run arrays of Trajectory are held here for every replication at
    once, one row per day, so that a day's writes are contiguous rows.
    Column r * areas + a is area a of replication r, and columns[r] slices
    replication r's columns: theta is shaped (theta_depth, R * areas),
    counts (the int32 n_e, n_neg and n_pos) (depth, 3, R * areas), obs_pos
    and obs_neg (observed depth, obs_types, R * areas), proportions (depth,
    obs_types, R * areas), expected_loss and tail_prob (days, R). Each
    record holds day d + 1 in row d % its depth, and every depth is the
    horizon unless given, so a run's record holds every day:
    - depth, of counts and proportions: run_ensemble, whose summary reads
      neither, takes 1;
    - theta_depth, at least 1 and at most the horizon: the run fills the
      metrics from theta each time theta_depth days have closed;
      run_ensemble holds one METRICS_BLOCK of rows;
    - history_days, the days of incident rows each history holds (see
      ObservableHistory): None holds every day. An integer, the lookback of
      run_ensemble's policy, also makes the observed counts one day deep,
      as a policy with a finite lookback reads none of them.
    xi is not held (see Trajectory). runs[r] is replication r's Trajectory,
    whose arrays and history are views of columns[r], streams[r] its random
    streams, and policies[r], set by step_day on day 1, its policy
    instance. events holds the environment draws of the days ahead, and
    k_decay each column's decay factor. Every size check of a run is made
    here, before its first day: see HorizonError. horizon None is the
    scenario's.
    """

    def __init__(
        self, scenario: Scenario, policy_name: str, seeds: Sequence[int], horizon: int | None,
        depth: int | None = None, theta_depth: int | None = None, history_days: int | None = None,
    ):
        horizon = scenario.horizon_days if horizon is None else horizon
        if horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {horizon}")
        depth = horizon if depth is None else depth
        if not 1 <= depth <= horizon:
            raise ValueError(f"depth must be in [1, {horizon}], got {depth}")
        theta_depth = horizon if theta_depth is None else min(max(theta_depth, 1), horizon)
        observed_depth = horizon if history_days is None else 1
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
            self.theta = np.zeros((theta_depth, shape[1]))
            self.counts = np.zeros((depth, 3, shape[1]), dtype=np.int32)
            by_type = (observed_depth, len(scenario.obs_types), shape[1])
            self.obs_pos = np.zeros(by_type, dtype=np.int32)
            self.obs_neg = np.zeros(by_type, dtype=np.int32)
            self.proportions = np.full((depth, *by_type[1:]), np.nan)
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
                ObservableHistory(
                    scenario.obs_type_ids, self.obs_pos[..., cols], self.obs_neg[..., cols], history_days
                ),
                expected_loss=self.expected_loss[:, r],
                tail_prob=self.tail_prob[:, r],
                **dict(zip(("n_e", "n_neg", "n_pos"), self.counts[..., cols].swapaxes(0, 1))),
                **{k: getattr(self, k)[..., cols] for k in per_column},
            )
            for r, (seed, cols) in enumerate(zip(seeds, self.columns))
        )
        self.events = EventBlocks(scenario, [s.environment for s in self.streams])
        self.k_decay = [area.k_decay for area in scenario.areas] * n_reps


def _global_generators() -> tuple:
    """The states of numpy's and Python's global generators, comparable with ==."""
    _, key, pos, has_gauss, gauss = np.random.get_state()
    return key.tobytes(), pos, has_gauss, gauss, random.getstate()


def step_day(reps: Replications, d: int, theta: np.ndarray, policy: Policy) -> np.ndarray:
    """Simulate day d + 1 of every replication; returns the next day's theta.

    theta is the start-of-day state per column; replication r reads and
    writes reps.columns[r], in row d % the record's depth (see
    Replications). Order of operations: classify the day's tasks at theta
    into counts, ask the policy (which sees history through yesterday
    only), run the observation process, close the day in the history, and
    update theta. Each replication draws from its own streams in the order
    of a run stepped alone; what is deterministic runs once over all
    columns. The metrics are not evaluated here: they depend on xi alone,
    and the run computes them from the stored theta. policy is read on day
    1 (d = 0) only. Its lookback_days is checked (check_lookback) and bound
    to every history before the day starts; the first replication keeps
    policy, and every other decides with its own copy.deepcopy of it from
    then on. If day 1's decisions move numpy's or Python's global generator,
    the run is refused with DecisionError.
    """
    scenario = reps.scenario
    if d == 0:
        lookback = check_lookback(policy)
        for run in reps.runs:
            run.history._bind(policy.name, lookback)
        reps.policies = [policy] + [copy.deepcopy(policy) for _ in reps.runs[1:]]
        global_generators = _global_generators()
    row, observed = d % len(reps.counts), d % len(reps.obs_pos)
    events = step_events(reps.events, d, theta, reps.counts[row])
    reps.theta[d % len(reps.theta)] = theta
    reps.proportions[row] = np.nan  # NaN unless observers are fielded today, at any depth
    reps.obs_pos[observed] = reps.obs_neg[observed] = 0  # 0 unless observers record today
    n_neg, n_pos = reps.counts[row, 1:].tolist()

    batch = zip(reps.runs, reps.policies, reps.streams, reps.columns, events.rows)
    for run, own_policy, streams, columns, rows in batch:
        decision = own_policy.decide(run.history, streams.policy)
        if decision is not None:
            step_observations(
                decision, streams.observer, scenario, n_pos[columns], n_neg[columns],
                run.proportions[row], run.obs_pos[observed], run.obs_neg[observed],
            )
        run.history._append_day(rows)
    if d == 0 and _global_generators() != global_generators:
        raise DecisionError(
            f"policy {policy.name!r} drew from numpy's or Python's global random generator on day 1; "
            "a policy draws only from the rng that decide is handed"
        )

    # A replication without observers keeps its zero observed counts. Their
    # terms add up to 0.0, and 0.0 + x is x, so its drive has the bits of
    # the incident term alone, the drive of a day without observers.
    drive = feedback_drive(reps.obs_neg[observed], reps.counts[row, 0], scenario)
    columns = zip(theta.tolist(), drive.tolist(), reps.k_decay)
    return np.array([step_theta(t, dr, k) for t, dr, k in columns])


def _run(reps: Replications, policy: Policy) -> list[Trajectory]:
    """Step reps through every day, filling the metrics as theta's held rows fill; returns reps.runs.

    The histories are bound to the policy's lookback_days from day 1 (step_day) to the end.
    """
    scenario, arrays = reps.scenario, reps.scenario.arrays
    theta = np.array([area.theta0 for area in scenario.areas] * len(reps.runs), dtype=float)
    horizon, held = len(reps.expected_loss), len(reps.theta)
    for d in range(horizon):
        theta = step_day(reps, d, theta, policy)
        if (d + 1) % held == 0 or d + 1 == horizon:
            # Row b * R + r of the held theta is day first + b + 1 of replication r, as
            # the metrics' rows are; METRICS_BLOCK rows per call bound the temporaries.
            first = d // held * held
            rows = reps.theta[: d + 1 - first].reshape(-1, scenario.n_areas)
            loss, tail = (m[first : d + 1].reshape(-1) for m in (reps.expected_loss, reps.tail_prob))
            for start in range(0, len(rows), METRICS_BLOCK):
                block = slice(start, start + METRICS_BLOCK)
                xi = xi_of_theta(rows[block], arrays.xi_base)
                loss[block], tail[block] = compute_day_metrics(arrays, xi)
    for run in reps.runs:
        run.history._unbind()
    return list(reps.runs)


def run_replications(
    scenario: Scenario, policy: Policy, seeds: Sequence[int], horizon: int | None = None
) -> list[Trajectory]:
    """Run one seeded replication per seed over the given horizon (days), in lockstep.

    Returns one trajectory per seed, in the order of seeds, with every day
    of every array. Each is byte-identical to the run of its seed alone: the
    replications share one day loop, not a random draw, and each has its own
    policy instance (see step_day). Replications refuses a run of the wrong
    size before its first day; this only reads the batch it built. One pass
    over the batch's rows then fills the metrics from the stored theta.
    """
    return _run(Replications(scenario, policy.name, seeds, horizon), policy)


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
    seeded runs, not on the order they execute in. It is, bit for bit, the
    summary of run_replications at those seeds, from a batch that holds only
    what its policy and the summary read (see Replications): every day of
    the metrics (16 B per replication-day), one METRICS_BLOCK of theta rows,
    one day of the event counts and proportions, and, for a policy of finite
    lookback_days L, one day of the observed counts and L days of incident
    rows per replication, older incidents kept as totals.
    """
    seeds = range(base_seed, base_seed + n_reps)
    theta_depth = METRICS_BLOCK // max(n_reps, 1)  # Replications refuses n_reps < 1
    reps = Replications(
        scenario, policy.name, seeds, horizon, depth=1, theta_depth=theta_depth,
        history_days=check_lookback(policy),
    )
    return summarize_trajectories(_run(reps, policy), base_seed)
