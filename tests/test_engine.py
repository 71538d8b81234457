import random
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

import scalar_reference
from conftest import make_area, make_obs_type, make_scenario
from safesim.engine import (
    METRICS_BLOCK,
    EnsembleSummary,
    Replications,
    Streams,
    nearest_rank,
    run_ensemble,
    run_replications,
    run_simulation,
    spread,
    step_day,
    summarize_trajectories,
)
from safesim.events import HURT_CHUNK, EventBlocks, block_days
from safesim.metrics import SEVERE_AHL, baseline_asymptote, compute_day_metrics
from safesim.observation import ProportionError
from safesim.policies import (
    AHL, AREA, DAY, PHL, DecisionError, ObservableHistory, Policy, PolicyError, make_policy,
)
from safesim.scenario import MAX_LAMBDA_STAR, N_HURT_LEVELS
from scalar_reference import sample_event_counts

RUN_ARRAYS = (
    "theta", "xi", "n_e", "n_neg", "n_pos", "obs_pos", "obs_neg",
    "expected_loss", "tail_prob", "incidents",
)


def trajectories_equal(a, b) -> bool:
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in RUN_ARRAYS)


class TestStepDay:
    def test_baseline_day_decays_theta(self, case_study):
        reps = Replications(case_study, "none", seeds=[0], horizon=1)
        theta0 = np.array([a.theta0 for a in case_study.areas])
        new_theta = step_day(reps, 0, theta0, make_policy("none"))
        run = reps.runs[0]
        assert run.obs_pos.sum() + run.obs_neg.sum() == 0
        k = np.array([a.k_decay for a in case_study.areas])
        assert np.allclose(new_theta, run.theta[0] * k, rtol=1e-15)

    @pytest.mark.parametrize("depth", [1, 3])
    def test_shallow_record_holds_the_latest_days(self, case_study, depth):
        # day d + 1 goes into row d % depth of the event counts and proportions;
        # theta and the observed counts keep every day. Seed 4 fields observers
        # on day 9 and none on day 10, whose row must not keep day 9's proportions
        horizon = 10
        full = run_simulation(case_study, OddDaysOffPolicy(), seed=4, horizon=horizon)
        assert not np.isnan(full.proportions[-2]).any() and np.isnan(full.proportions[-1]).all()
        reps = Replications(case_study, "odd-days-off", seeds=[4], horizon=horizon, depth=depth)
        theta, policy = np.array([a.theta0 for a in case_study.areas]), OddDaysOffPolicy()
        for d in range(horizon):
            theta = step_day(reps, d, theta, policy)
        run = reps.runs[0]
        assert run.n_e.shape[0] == run.proportions.shape[0] == depth
        for d in range(horizon - depth, horizon):
            for name in ("n_e", "n_neg", "n_pos", "proportions"):
                assert np.array_equal(getattr(run, name)[d % depth], getattr(full, name)[d], equal_nan=True)
        for name in ("theta", "obs_pos", "obs_neg"):
            assert np.array_equal(getattr(run, name), getattr(full, name)), name

    @pytest.mark.parametrize("depth", [0, 11])
    def test_depth_outside_the_horizon_refused(self, case_study, depth):
        with pytest.raises(ValueError, match=f"depth must be in \\[1, 10\\], got {depth}"):
            Replications(case_study, "none", seeds=[1], horizon=10, depth=depth)

    def test_record_invariants(self, case_study):
        run = run_simulation(case_study, make_policy("uniform"), seed=3, horizon=60)
        assert np.all(run.incidents[:, PHL] >= run.incidents[:, AHL])
        assert np.all(run.obs_pos <= run.n_pos[:, None, :])
        assert np.all(run.obs_neg <= run.n_neg[:, None, :])
        assert np.all(np.abs(run.proportions.sum(axis=2) - 1.0) < 1e-9)
        assert np.all(run.theta >= 0.0) and np.all(run.theta <= 1.0)

    def test_day_indices_contiguous(self, case_study):
        trajectory = run_simulation(case_study, make_policy("none"), seed=0, horizon=10)
        assert trajectory.horizon == 10
        days = trajectory.incidents[:, DAY]
        assert np.all(np.diff(days) >= 0) and np.all((days >= 1) & (days <= 10))
        assert np.array_equal(np.bincount(days, minlength=11)[1:], trajectory.n_e.sum(axis=1))

    @pytest.mark.parametrize("policy", ["none", "uniform"])
    def test_log_counts_each_day_and_area(self, case_study, policy):
        # 70 days are three blocks of the case study's 32; the log's DAY and
        # AREA columns, counted together, give back each replication's n_e
        horizon, n_areas = 70, case_study.n_areas
        assert block_days(case_study) == 32
        for run in run_replications(case_study, make_policy(policy), [7, 8, 9], horizon):
            cells = (run.incidents[:, DAY] - 1) * n_areas + run.incidents[:, AREA]
            counts = np.bincount(cells, minlength=horizon * n_areas).reshape(horizon, n_areas)
            assert run.n_e.sum() > 0
            assert np.array_equal(counts, run.n_e)

    def test_memory_of_a_day_of_many_incidents(self):
        # one area at xi = alpha = 1, about 4.1 * HURT_CHUNK incidents. Beyond the
        # int32 log it keeps (16 B an incident), the day holds its block's draws
        # and Hurt levels, dropped after its only day, and the day's rows (16 B
        # an incident, which the log copies whole), not a list of the whole
        # day's incidents and then a slice of it per replication
        area = make_area(lambda_star=4.1 * HURT_CHUNK, xi_base=1.0, alpha=1.0, theta0=0.0)
        reps = Replications(make_scenario(areas=(area,)), "none", seeds=[1], horizon=1)
        tracemalloc.start()
        try:
            step_day(reps, 0, np.array([0.0]), make_policy("none"))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reps.counts[0, 0, 0] > 4 * HURT_CHUNK
        assert (peak - current) / reps.counts[0, 0, 0] < 56

    def test_scenario_without_observation_types(self, case_study):
        scenario = make_scenario(areas=case_study.areas, obs_types=())
        runs = run_replications(scenario, make_policy("uniform"), seeds=[1, 2], horizon=4)
        for run in runs:
            assert run.proportions.shape == run.obs_pos.shape == run.obs_neg.shape == (4, 0, 7)
            assert run.history.obs_neg.shape == (4, 0, 7)


COUNT_COLUMNS = ("n_e", "n_neg", "n_pos", "obs_pos", "obs_neg")

# What a Replications of the case study (7 areas, 3 observation types) holds per
# replication-day: theta at 8 B and the three event counts at 4 B per area,
# 7 * 20 = 140 B; observed counts at 4 + 4 B and proportions at 8 B per type and
# area, 21 * 16 = 336 B; the two metrics, 16 B. xi is not held: it is computed
# from theta.
CASE_STUDY_BYTES_PER_REP_DAY = 492

# What run_ensemble's batch holds per replication-day on the case study, for a
# policy of finite lookback_days: every day of the metrics (16 B). Beside them it
# holds one METRICS_BLOCK of theta rows (56 B a row, whatever R and the horizon),
# and one day of the event counts (84 B), the observed counts (168 B) and the
# proportions (168 B) per replication: the other 492 - 56 - 16 = 420 B of a day.
CASE_STUDY_ENSEMBLE_BYTES_PER_REP_DAY = 16


def record_replications(monkeypatch) -> list:
    """The Replications that the engine builds from now on, in the order built."""
    built = []

    class RecordedReplications(Replications):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr("safesim.engine.Replications", RecordedReplications)
    return built


def bytes_held(reps) -> int:
    """The bytes of a batch's arrays and of its histories' buffers."""
    arrays = sum(a.nbytes for a in vars(reps).values() if isinstance(a, np.ndarray))
    histories = [run.history for run in reps.runs]
    return arrays + sum(h._log.nbytes + h._day_end.nbytes + h._folded.nbytes for h in histories)


class TestInt32Record:
    """The run's integer record is int32; the load-time bounds keep every value in range."""

    def test_count_columns_and_incident_log_are_int32(self, case_study):
        reps = Replications(case_study, "uniform", seeds=[4, 5], horizon=200)
        theta = np.array([a.theta0 for a in case_study.areas] * 2)
        for d in range(200):
            theta = step_day(reps, d, theta, make_policy("uniform"))
        for name in ("counts", "obs_pos", "obs_neg"):
            assert getattr(reps, name).dtype == np.int32, name
        for name in COUNT_COLUMNS:
            assert all(getattr(run, name).dtype == np.int32 for run in reps.runs), name
        for run in reps.runs:
            assert len(run.incidents) > 64  # grown past its first allocation
            assert run.incidents.dtype == np.int32

    def test_bytes_held_per_replication_day(self, case_study):
        n_reps, horizon = 4, 365
        reps = Replications(case_study, "uniform", seeds=range(n_reps), horizon=horizon)
        held = sum(a.nbytes for a in vars(reps).values() if isinstance(a, np.ndarray))
        assert held / (n_reps * horizon) <= CASE_STUDY_BYTES_PER_REP_DAY

    def test_ensemble_bytes_held_per_replication_day(self, case_study, monkeypatch):
        built = record_replications(monkeypatch)
        n_reps, horizon = 4, 365
        run_ensemble(case_study, make_policy("uniform"), n_reps, base_seed=0, horizon=horizon)
        (reps,) = built
        held = sum(a.nbytes for a in vars(reps).values() if isinstance(a, np.ndarray))
        theta_rows = METRICS_BLOCK * case_study.n_areas * 8
        one_day_rows = n_reps * (CASE_STUDY_BYTES_PER_REP_DAY - 56 - CASE_STUDY_ENSEMBLE_BYTES_PER_REP_DAY)
        assert (held - theta_rows - one_day_rows) / (n_reps * horizon) <= CASE_STUDY_ENSEMBLE_BYTES_PER_REP_DAY

    def test_ensemble_grows_by_the_metrics_alone(self, case_study, monkeypatch):
        # a counts ensemble reads back 30 days: ten times the horizon adds only
        # the metrics' 16 B per replication-day, histories' buffers included
        built = record_replications(monkeypatch)
        n_reps, horizons = 2, (365, 3650)
        for horizon in horizons:
            run_ensemble(case_study, make_policy("counts"), n_reps, base_seed=0, horizon=horizon)
        short, long = map(bytes_held, built)
        assert long - short == CASE_STUDY_ENSEMBLE_BYTES_PER_REP_DAY * n_reps * (horizons[1] - horizons[0])

    def test_counts_at_the_rate_bound_match_the_scalar_sampler(self):
        # theta = 0.9, xi = 0.05: of about 50,000 potential incidents and 450,000
        # potential unsafe tasks a tenth are real; about 950,000 safe activities
        area = make_area(lambda_star=MAX_LAMBDA_STAR, theta0=0.9)
        scenario = make_scenario(areas=(area,))
        run = run_simulation(scenario, make_policy("uniform"), seed=13, horizon=1)
        rng = np.random.default_rng(13)  # the environment stream of seed 13
        env = scalar_reference.PerTaskEnvironment(rng, scenario, block_days(scenario))
        n_e, n_neg, n_pos, rows = env.day(run.theta[0].tolist())
        assert n_pos[0] > 900_000
        assert (run.n_e[0].tolist(), run.n_neg[0].tolist(), run.n_pos[0].tolist()) == (n_e, n_neg, n_pos)
        assert run.incidents[:, AREA:].tolist() == [list(row) for row in rows]
        totals = np.bincount([ahl for _, ahl, _ in rows], minlength=N_HURT_LEVELS)
        assert run.incident_totals().tolist() == [totals.tolist()]


class TestRunSimulation:
    def test_horizon_one(self, case_study):
        trajectory = run_simulation(case_study, make_policy("uniform"), seed=5, horizon=1)
        assert trajectory.horizon == 1

    def test_invalid_horizon(self, case_study):
        with pytest.raises(ValueError, match="horizon"):
            run_simulation(case_study, make_policy("none"), seed=5, horizon=0)

    def test_default_horizon_from_scenario(self, case_study):
        trajectory = run_simulation(case_study, make_policy("none"), seed=5)
        assert trajectory.horizon == case_study.horizon_days

    @pytest.mark.parametrize("policy_name", ["none", "uniform", "counts", "severity"])
    def test_same_seed_reproduces_trajectory(self, case_study, policy_name):
        runs = [
            run_simulation(case_study, make_policy(policy_name), seed=77, horizon=40)
            for _ in range(2)
        ]
        assert trajectories_equal(runs[0], runs[1])

    def test_baseline_matches_closed_form(self):
        # oracle: xi(t) = (1 - theta0 * k^t) * xi_base with the day-1 record at t=0
        area = make_area(xi_base=0.63, k_decay=0.95, theta0=0.55)
        scenario = make_scenario(areas=(area,), obs_types=(make_obs_type(),))
        trajectory = run_simulation(scenario, make_policy("none"), seed=9, horizon=120)
        xi = trajectory.xi[:, 0]
        t = np.arange(120)
        assert np.allclose(xi, (1 - 0.55 * 0.95**t) * 0.63, rtol=1e-12)

    def test_feedback_changes_theta_path(self, case_study):
        # with observers in the field theta cannot follow the pure-decay curve for long
        trajectory = run_simulation(case_study, make_policy("uniform"), seed=11, horizon=60)
        theta = trajectory.theta
        decay_only = np.stack(
            [
                [a.theta0 * a.k_decay ** t for a in case_study.areas]
                for t in range(60)
            ]
        )
        assert not np.allclose(theta, decay_only)
        assert np.all(theta >= decay_only - 1e-12)


class TestMetricsFill:
    """run_replications fills the metrics from theta, METRICS_BLOCK rows per call."""

    def test_blocked_fill_matches_one_pass(self, case_study, monkeypatch):
        # 30 days in blocks of 7: four whole blocks and a last one of 2 days
        monkeypatch.setattr("safesim.engine.METRICS_BLOCK", 7)
        runs = run_replications(case_study, make_policy("counts"), seeds=[3, 4], horizon=30)
        for run in runs:
            loss, tail = compute_day_metrics(case_study.arrays, run.xi)
            assert np.array_equal(run.expected_loss, loss)
            assert np.array_equal(run.tail_prob, tail)

    def test_one_pass_over_the_rows_of_all_replications(self, case_study, monkeypatch):
        # 10 replications of 365 days are 3,650 rows: 8 blocks of 512, not one call per run
        calls = []
        monkeypatch.setattr(
            "safesim.engine.compute_day_metrics", lambda *args: calls.append(1) or compute_day_metrics(*args)
        )
        run_replications(case_study, make_policy("none"), seeds=range(10), horizon=365)
        assert len(calls) == 8

    def test_no_whole_run_temporary(self, case_study):
        # what a run allocates beyond what it keeps stays below one (days, areas)
        # float64 array: neither xi nor the metrics' temporaries span the run
        horizon = 3650
        tracemalloc.start()
        try:
            runs = run_replications(case_study, make_policy("none"), seeds=[1], horizon=horizon)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert runs[0].horizon == horizon
        assert peak - current < horizon * case_study.n_areas * 8


class HistoryProbePolicy(Policy):
    """Records, at each decision, the closed days and the incident days visible."""

    name = "probe"

    def __init__(self):
        self.seen: list[tuple[int, int, np.ndarray]] = []

    def decide(self, history, rng):
        visible = history.window(history.current_day + 1)[:, DAY].copy()
        self.seen.append((history.current_day, len(history), visible))
        s = np.full(history.n_areas, 1.0 / history.n_areas)
        return dict.fromkeys(history.obs_type_ids, s)


class TestHistoryIsolation:
    def test_policy_sees_only_past_days(self, case_study):
        probe = HistoryProbePolicy()
        trajectory = run_simulation(case_study, probe, seed=13, horizon=25)
        assert len(probe.seen) == 25
        logged = trajectory.incidents[:, DAY]
        for day, (deciding_day, newest_visible, visible) in enumerate(probe.seen, start=1):
            assert deciding_day == day
            assert newest_visible == deciding_day - 1
            assert np.array_equal(visible, logged[logged < deciding_day])


class RotatingPolicy(Policy):
    """Sends every observer to one area, one area further each day; it counts its own days."""

    name = "rotating"

    def __init__(self):
        self.day = 0

    def decide(self, history, rng):
        s = np.zeros(history.n_areas)
        s[self.day % history.n_areas] = 1.0
        self.day += 1
        return dict.fromkeys(history.obs_type_ids, s)


class TestPolicyInstances:
    """Each replication decides with its own policy instance."""

    def test_stateful_policy_same_bytes_alone_and_at_each_position(self, case_study):
        seeds, horizon = [42, 43, 44], 60
        alone = {seed: run_simulation(case_study, RotatingPolicy(), seed, horizon) for seed in seeds}
        for shift in range(3):  # each seed at each position of a batch of three
            order = seeds[shift:] + seeds[:shift]
            caller = RotatingPolicy()
            batch = run_replications(case_study, caller, order, horizon)
            assert caller.day == horizon  # the caller's instance decided for the first replication only
            for seed, batched in zip(order, batch):
                assert trajectories_equal(batched, alone[seed]), (order, seed)
                assert np.array_equal(batched.proportions, alone[seed].proportions, equal_nan=True)


class DrawingCountsPolicy(Policy):
    """Decides as counts does, after 1,000 draws of its own a day."""

    name = "drawing-counts"

    def __init__(self):
        self.counts = make_policy("counts")

    def decide(self, history, rng):
        rng.random(1000)
        return self.counts.decide(history, rng)


class TestStreams:
    def test_policy_draws_shift_no_other_stream(self, case_study):
        counts = run_simulation(case_study, make_policy("counts"), seed=21, horizon=90)
        drawing = run_simulation(case_study, DrawingCountsPolicy(), seed=21, horizon=90)
        assert counts.obs_neg.sum() > 0
        assert trajectories_equal(counts, drawing)
        assert np.array_equal(counts.proportions, drawing.proportions)

    def test_environment_stream_is_default_rng_of_the_seed(self, case_study):
        streams = Streams.from_seed(7)
        assert np.array_equal(streams.environment.random(5), np.random.default_rng(7).random(5))
        assert streams.observer.random() != streams.policy.random()

    @pytest.mark.parametrize(
        "policy_name,days_observed",
        [("none", 0), ("uniform", 1), ("weighted:1,0,0,0,0,0,0", 1)],
    )
    def test_observer_draws_fixed_per_observed_day(self, case_study, policy_name, days_observed):
        # m + rho * m uniforms per type on a day with observers, whatever the
        # events and the allocation; none on a day without
        reps = Replications(case_study, policy_name, seeds=[3], horizon=1)
        theta = np.array([a.theta0 for a in case_study.areas])
        streams, reference = reps.streams[0], Streams.from_seed(3)
        step_day(reps, 0, theta, make_policy(policy_name))
        per_day = sum(t.m * (1 + t.rho) for t in case_study.obs_types)
        reference.observer.random(per_day * days_observed)
        assert streams.observer.bit_generator.state == reference.observer.bit_generator.state


BUILT_IN_POLICIES = ("none", "uniform", "counts", "severity", "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2")


def severe_totals(runs) -> np.ndarray:
    """Each run's incidents with AHL >= SEVERE_AHL over its horizon."""
    return np.array([np.count_nonzero(run.incidents[:, AHL] >= SEVERE_AHL) for run in runs])


class TestStreamContract:
    """The environment does not depend on theta: every policy sees one seed's tasks."""

    def test_every_policy_sees_the_same_tasks(self, case_study):
        runs = [run_simulation(case_study, make_policy(spec), seed=17, horizon=365) for spec in BUILT_IN_POLICIES]
        tasks = [run.n_e + run.n_neg + run.n_pos for run in runs]
        assert all(np.array_equal(tasks[0], other) for other in tasks[1:])
        # while the policies' theta, and so their events, differ
        assert len({run.theta.tobytes() for run in runs}) == len(runs)

    def test_paired_severe_incidents_vary_less_than_independent(self, case_study):
        # common random numbers: at one seed two policies differ only through
        # their decisions, so the paired difference varies far less than the
        # difference of independent runs, var(uniform) + var(counts)
        seeds = range(1000, 1060)
        uniform = severe_totals(run_replications(case_study, make_policy("uniform"), seeds))
        counts = severe_totals(run_replications(case_study, make_policy("counts"), seeds))
        paired = np.var(uniform - counts, ddof=1)
        independent = np.var(uniform, ddof=1) + np.var(counts, ddof=1)
        assert paired < independent / 4, (paired, independent)

    def test_shorter_run_is_a_prefix(self, case_study):
        short = run_simulation(case_study, make_policy("counts"), seed=5, horizon=200)
        full = run_simulation(case_study, make_policy("counts"), seed=5, horizon=365)
        for name in ("theta", "n_e", "n_neg", "n_pos", "obs_pos", "obs_neg"):
            assert np.array_equal(getattr(short, name), getattr(full, name)[:200]), name
        assert np.array_equal(short.incidents, full.incidents[full.incidents[:, DAY] <= 200])

    def test_at_theta_zero_day_one_is_the_potential_counts(self, case_study):
        # every potential task is real when its uniform is below 1 - 0
        areas = tuple(replace(area, theta0=0.0) for area in case_study.areas)
        scenario = replace(case_study, areas=areas)
        run = run_simulation(scenario, make_policy("none"), seed=23, horizon=1)
        arrays = scenario.arrays
        lambda_star = np.broadcast_to(arrays.lambda_star, (block_days(scenario), scenario.n_areas))
        rng = np.random.default_rng(23)
        potential = sample_event_counts(rng, lambda_star, arrays.xi_base, arrays.alpha)
        assert [run.n_e[0].tolist(), run.n_neg[0].tolist(), run.n_pos[0].tolist()] == [
            counts[0].tolist() for counts in potential
        ]

    @pytest.mark.parametrize("group_tasks", [1, 3_000, 1 << 20], ids=["one-per-group", "two-per-group", "one-group"])
    def test_batch_matches_the_per_task_reference(self, case_study, monkeypatch, group_tasks):
        # three blocks of 32 days, the replications drawn and classified in groups
        monkeypatch.setattr("safesim.events.GROUP_TASKS", group_tasks)
        seeds = [3, 4, 5]
        runs = run_replications(case_study, make_policy("counts"), seeds, horizon=70)
        for seed, run in zip(seeds, runs):
            reference = scalar_reference.PerTaskEnvironment(
                np.random.default_rng(seed), case_study, block_days(case_study)
            )
            rows = []
            for d in range(run.horizon):
                n_e, n_neg, n_pos, day_rows = reference.day(run.theta[d].tolist())
                assert [run.n_e[d].tolist(), run.n_neg[d].tolist(), run.n_pos[d].tolist()] == [n_e, n_neg, n_pos]
                rows += [[d + 1, *row] for row in day_rows]
            assert run.incidents.tolist() == rows
            assert trajectories_equal(run, run_simulation(case_study, make_policy("counts"), seed, 70))


class MissingTypePolicy(Policy):
    """Gives uniform proportions to every observation type but SAO."""

    name = "missing-type"

    def decide(self, history, rng):
        s = np.full(history.n_areas, 1.0 / history.n_areas)
        return {t: s for t in history.obs_type_ids if t != "SAO"}


class TestMissingType:
    def test_run_names_the_missing_type(self, case_study):
        with pytest.raises(ProportionError, match="observation type 'SAO'"):
            run_simulation(case_study, MissingTypePolicy(), seed=1, horizon=3)


class BareVectorPolicy(Policy):
    """Returns one proportion vector, not a mapping from type id to vector."""

    name = "bare-vector"

    def decide(self, history, rng):
        return np.full(history.n_areas, 1.0 / history.n_areas)


class TestBareVector:
    def test_run_says_what_a_decision_must_hold(self, case_study):
        with pytest.raises(ProportionError, match="map each observation type id.*got ndarray"):
            run_simulation(case_study, BareVectorPolicy(), seed=1, horizon=3)


class BadLastVectorPolicy(Policy):
    """Uniform proportions for every observation type but the last, whose sum to 1.4
    (on seven areas)."""

    name = "bad-last-vector"

    def decide(self, history, rng):
        *first, last = history.obs_type_ids
        s = np.full(history.n_areas, 1.0 / history.n_areas)
        return {**dict.fromkeys(first, s), last: np.full(history.n_areas, 0.2)}


class WrappedDecision:
    """An object that holds a decision's mapping in an attribute but is not a mapping."""

    def __init__(self, proportions):
        self.proportions = proportions


class WrappedDecisionPolicy(Policy):
    """Returns its uniform proportions wrapped in an object, not as the mapping itself."""

    name = "wrapped-decision"

    def decide(self, history, rng):
        s = np.full(history.n_areas, 1.0 / history.n_areas)
        return WrappedDecision(dict.fromkeys(history.obs_type_ids, s))


class TestRefusedDecision:
    @pytest.mark.parametrize(
        "policy,match",
        [
            pytest.param(BareVectorPolicy(), "got ndarray", id="bare-vector"),
            pytest.param(MissingTypePolicy(), "SAO", id="missing-type"),
            pytest.param(BadLastVectorPolicy(), "sum to 1, got 1.4", id="bad-last-vector"),
            pytest.param(WrappedDecisionPolicy(), "got WrappedDecision", id="wrapped-decision"),
        ],
    )
    def test_day_left_untouched(self, case_study, policy, match):
        # refused before the observer stream draws or the day's observations are written
        reps = Replications(case_study, policy.name, seeds=[3], horizon=1)
        theta = np.array([a.theta0 for a in case_study.areas])
        with pytest.raises(ProportionError, match=match):
            step_day(reps, 0, theta, policy)
        reference = Streams.from_seed(3).observer
        assert reps.streams[0].observer.bit_generator.state == reference.bit_generator.state
        assert not reps.obs_pos[0].any() and not reps.obs_neg[0].any()
        assert np.isnan(reps.proportions[0]).all()


class DirichletPolicy(Policy):
    """Proportions drawn from the policy stream: a flat Dirichlet each day."""

    name = "dirichlet"

    def decide(self, history, rng):
        s = rng.dirichlet(np.ones(history.n_areas))
        return dict.fromkeys(history.obs_type_ids, s)


class OddDaysOffPolicy(Policy):
    """Fields no observers while a replication's incident count so far is odd.

    The count differs between replications, so on one day some replications
    observe and others do not.
    """

    name = "odd-days-off"

    def __init__(self):
        self.counts = make_policy("counts")

    def decide(self, history, rng):
        if len(history.incidents) % 2:
            return None
        return self.counts.decide(history, rng)


class PerTypePolicy(Policy):
    """Gives type j the counts policy's vector rolled by j areas: a vector per type."""

    name = "per-type"

    def __init__(self):
        self.counts = make_policy("counts")

    def decide(self, history, rng):
        s = self.counts.decide(history, rng)[history.obs_type_ids[0]]
        return {t: np.roll(s, j) for j, t in enumerate(history.obs_type_ids)}


class AlternateDaysPolicy(Policy):
    """Uniform observers on odd days and none on even days; it reads no history."""

    name = "alternate-days"
    lookback_days = 0

    def decide(self, history, rng):
        if history.current_day % 2 == 0:
            return None
        return dict.fromkeys(history.obs_type_ids, np.full(history.n_areas, 1.0 / history.n_areas))


class PeekingPolicy(Policy):
    """Declares a 5-day lookback; each day it reads the history by read, then fields no observers."""

    name = "peeking"
    lookback_days = 5

    def read(self, history):
        return history.window(5)

    def decide(self, history, rng):
        self.read(history)
        return None


PAST_THE_LOOKBACK = {
    "window": ("a window of 6 days", lambda history: history.window(6)),
    "incidents": ("the whole incident log", lambda history: history.incidents),
    "obs_pos": ("obs_pos", lambda history: history.obs_pos),
    "obs_neg": ("obs_neg", lambda history: history.obs_neg),
}


def peeking(read) -> type:
    """A PeekingPolicy class whose decisions make the read PAST_THE_LOOKBACK names."""
    return type("PeekingPast", (PeekingPolicy,), {"read": lambda self, history: PAST_THE_LOOKBACK[read][1](history)})


class NumpyGlobalPolicy(Policy):
    """Uniform observers, after one draw from numpy's global generator."""

    name = "numpy-global"

    def decide(self, history, rng):
        np.random.random()
        return dict.fromkeys(history.obs_type_ids, np.full(history.n_areas, 1.0 / history.n_areas))


class PythonGlobalPolicy(NumpyGlobalPolicy):
    """Uniform observers, after one draw from Python's global generator."""

    name = "python-global"

    def decide(self, history, rng):
        random.random()
        return dict.fromkeys(history.obs_type_ids, np.full(history.n_areas, 1.0 / history.n_areas))


def dense_scenario(n_areas=24, seed=5):
    """A generated scenario like the dense-long benchmark's: many areas, large pools."""
    rng = np.random.default_rng(seed)
    areas = [
        make_area(
            f"Z{i:02d}",
            lambda_star=float(rng.uniform(100, 300)),
            xi_base=float(rng.uniform(0.05, 0.6)),
            alpha=float(rng.uniform(0.005, 0.05)),
            k_decay=0.98,
            theta0=0.1,
            hl_probs=rng.dirichlet(np.ones(N_HURT_LEVELS)),
        )
        for i in range(n_areas)
    ]
    obs_types = [
        make_obs_type(f"T{j}", m=20, rho=4, delta_neg=0.005, eta_pos=eta_pos, eta_neg=100.0)
        for j, eta_pos in enumerate((100.0, 150.0, 200.0))
    ]
    return make_scenario(areas=areas, obs_types=obs_types, delta_e=0.002)


LOCKSTEP_POLICIES = (
    "none", "uniform", "counts", "severity", "weighted", "dirichlet", "odd", "per-type",
)


def lockstep_policy(name, scenario):
    if name == "weighted":
        return make_policy("weighted:" + ",".join(["1"] + ["0"] * (scenario.n_areas - 1)))
    custom = {"dirichlet": DirichletPolicy, "odd": OddDaysOffPolicy, "per-type": PerTypePolicy}
    return custom.get(name, lambda: make_policy(name))()


class TestLockstep:
    """run_replications equals seed-by-seed run_simulation, array for array."""

    @pytest.mark.parametrize("policy_name", LOCKSTEP_POLICIES)
    @pytest.mark.parametrize("scenario_name,horizon", [("case_study", 120), ("dense", 40)])
    def test_same_arrays_as_single_runs(self, case_study, scenario_name, horizon, policy_name):
        scenario = case_study if scenario_name == "case_study" else dense_scenario()
        policy = lockstep_policy(policy_name, scenario)
        seeds = [8, 3, 21, 5]
        lockstep = run_replications(scenario, policy, seeds, horizon)
        assert [t.seed for t in lockstep] == seeds
        for seed, batched in zip(seeds, lockstep):
            alone = run_simulation(scenario, policy, seed, horizon)
            assert trajectories_equal(batched, alone)
            assert np.array_equal(batched.proportions, alone.proportions, equal_nan=True)
        if policy_name == "per-type":
            proportions = np.stack([t.proportions for t in lockstep])
            assert not np.array_equal(proportions[:, :, 0], proportions[:, :, 1])
        if policy_name == "odd":
            observing = ~np.isnan(np.stack([t.proportions[:, 0, 0] for t in lockstep]))
            assert np.any(observing.any(axis=0) & ~observing.all(axis=0))

    def test_empty_seeds_rejected(self, case_study):
        with pytest.raises(ValueError, match="seed"):
            run_replications(case_study, make_policy("none"), [], 5)


def assert_summaries_equal(got, expected, label):
    """Every EnsembleSummary field equal, arrays bit for bit (dtype, shape and bytes)."""
    for field in fields(EnsembleSummary):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), (label, field.name)
        else:
            assert a == b, (label, field.name)


class TestRunEnsemble:
    def test_single_rep_has_zero_std(self, case_study):
        summary = run_ensemble(case_study, make_policy("uniform"), 1, base_seed=3, horizon=15)
        assert np.all(summary.std_expected_loss == 0.0)
        assert np.all(summary.std_tail_prob == 0.0)
        assert np.array_equal(summary.incident_p05, summary.incident_p95)

    def test_baseline_reps_identical(self, case_study):
        summary = run_ensemble(case_study, make_policy("none"), 5, base_seed=3, horizon=30)
        assert np.all(summary.std_expected_loss == 0.0)
        assert np.all(summary.std_tail_prob == 0.0)

    def test_hundred_identical_reps_have_zero_band(self, case_study):
        # np.std of 100 identical values is a few ulps on most days
        summary = run_ensemble(case_study, make_policy("none"), 100, base_seed=1, horizon=60)
        assert np.all(summary.std_expected_loss == 0.0)
        assert np.all(summary.std_tail_prob == 0.0)

    def test_band_of_differing_reps_is_np_std(self):
        rng = np.random.default_rng(2)
        values = rng.random((9, 50))
        values[:, ::3] = rng.random(17)  # identical on every third day
        band = spread(values)
        same = np.zeros(50, dtype=bool)
        same[::3] = True
        assert np.all(band[same] == 0.0)
        assert np.array_equal(band[~same], values.std(axis=0)[~same])

    def test_seeds_derived_from_base(self, case_study):
        # run_ensemble keeps the event counts and proportions one day deep, yet
        # for every built-in policy its summary is, bit for bit, that of the
        # full records of seeds base_seed, base_seed + 1, ...; with area A at
        # lambda* = 70,000 a block is one day and a group one replication
        areas = (replace(case_study.areas[0], lambda_star=70_000.0), *case_study.areas[1:])
        one_day_blocks = replace(case_study, areas=areas)
        assert block_days(one_day_blocks) == 1
        assert len(EventBlocks(one_day_blocks, [np.random.default_rng(0)] * 3).groups) == 3
        for scenario, horizon in ((case_study, 40), (one_day_blocks, 5)):
            for spec in BUILT_IN_POLICIES:
                summary = run_ensemble(scenario, make_policy(spec), 3, base_seed=100, horizon=horizon)
                runs = run_replications(scenario, make_policy(spec), [100, 101, 102], horizon)
                assert_summaries_equal(summary, summarize_trajectories(runs, base_seed=100), (spec, horizon))

    def test_shallow_batch_gives_the_summary_of_the_full_records(self, case_study, monkeypatch):
        # 1,100 days at R = 3: theta is held 170 days deep, so the metrics are
        # filled in seven blocks, and every built-in's incident log is compacted
        # several times. A custom policy of lookback_days None keeps every day;
        # one of lookback 0 that skips even days has a one-day-deep observed
        # record whose zeroed row its drive reads on the days without observers
        seeds, horizon = [100, 101, 102], 1_100
        custom = {"odd-days-off": OddDaysOffPolicy, "alternate-days": AlternateDaysPolicy}
        for spec in (*BUILT_IN_POLICIES, *custom):
            def policy():
                return custom[spec]() if spec in custom else make_policy(spec)

            with monkeypatch.context() as patch:
                rows, folds = [], []
                metrics, fold = compute_day_metrics, ObservableHistory._fold_unread_days
                patch.setattr("safesim.engine.compute_day_metrics", lambda p, xi: rows.append(len(xi)) or metrics(p, xi))
                patch.setattr(ObservableHistory, "_fold_unread_days", lambda h: folds.append(h._held) or fold(h))
                summary = run_ensemble(case_study, policy(), len(seeds), base_seed=100, horizon=horizon)
            assert len(rows) == 7 and max(rows) <= METRICS_BLOCK and sum(rows) == len(seeds) * horizon, spec
            if policy().lookback_days is not None:
                assert len(folds) >= 3 * len(seeds), (spec, folds)
            runs = run_replications(case_study, policy(), seeds, horizon)
            assert_summaries_equal(summary, summarize_trajectories(runs, base_seed=100), spec)

    def test_metrics_blocks_of_one_day_split_into_calls(self, case_study, monkeypatch):
        # with METRICS_BLOCK 2 and R = 3, theta is held one day deep, and each
        # day's three rows take two compute_day_metrics calls
        monkeypatch.setattr("safesim.engine.METRICS_BLOCK", 2)
        rows = []
        monkeypatch.setattr(
            "safesim.engine.compute_day_metrics", lambda p, xi: rows.append(len(xi)) or compute_day_metrics(p, xi)
        )
        summary = run_ensemble(case_study, make_policy("counts"), 3, base_seed=7, horizon=10)
        assert rows == [2, 1] * 10
        runs = run_replications(case_study, make_policy("counts"), [7, 8, 9], 10)
        assert_summaries_equal(summary, summarize_trajectories(runs, base_seed=7), "counts")

    def test_order_independent_aggregation(self, case_study):
        policy = make_policy("uniform")
        trajectories = [
            run_simulation(case_study, policy, seed=40 + i, horizon=20) for i in range(6)
        ]
        forward = summarize_trajectories(list(trajectories), base_seed=40)
        backward = summarize_trajectories(list(reversed(trajectories)), base_seed=40)
        assert np.array_equal(forward.incident_totals, backward.incident_totals)
        assert np.array_equal(forward.mean_expected_loss, backward.mean_expected_loss)
        assert np.array_equal(forward.std_tail_prob, backward.std_tail_prob)

    def test_percentiles_ordered(self, case_study):
        summary = run_ensemble(case_study, make_policy("uniform"), 12, base_seed=7, horizon=40)
        assert np.all(summary.incident_p05 <= summary.incident_p50)
        assert np.all(summary.incident_p50 <= summary.incident_p95)

    def test_invalid_reps(self, case_study):
        with pytest.raises(ValueError, match="n_reps"):
            run_ensemble(case_study, make_policy("none"), 0, base_seed=1)

    @pytest.mark.parametrize("n_reps", [0, -3])
    def test_replications_refuse_an_empty_seed_range(self, case_study, n_reps):
        # run_ensemble passes range(base_seed, base_seed + n_reps) on, and
        # Replications, the one refusal point, names the count of seeds it got
        with pytest.raises(ValueError, match="n_reps must be >= 1, got 0 seeds"):
            run_ensemble(case_study, make_policy("none"), n_reps, base_seed=1, horizon=5)

    def test_summary_of_no_trajectories_refused(self):
        with pytest.raises(ValueError, match="at least one trajectory"):
            summarize_trajectories([], base_seed=1)

    @pytest.mark.parametrize("field, second", [
        ("policy_name", {"policy": "counts"}),
        ("scenario", {"delta_e": 0.5}),
        ("horizon", {"horizon": 6}),
    ])
    def test_summary_of_a_mix_refused(self, case_study, field, second):
        # each run builds its own scenario, so runs of equal scenarios mix
        def run(seed, policy="uniform", delta_e=case_study.delta_e, horizon=5):
            return run_simulation(replace(case_study, delta_e=delta_e), make_policy(policy), seed, horizon)

        summarize_trajectories([run(0), run(1)], base_seed=0)
        with pytest.raises(ValueError, match=f"share their {field}"):
            summarize_trajectories([run(0), run(1, **second)], base_seed=0)

    def test_results_compare_and_hash_by_identity(self, case_study):
        # their fields are arrays, whose == is elementwise and has no truth value
        summaries = [run_ensemble(case_study, make_policy("none"), 2, base_seed=1, horizon=3)
                     for _ in range(2)]
        runs = run_replications(case_study, make_policy("none"), [1, 1], 3)
        for a, b in (summaries, runs, (case_study.arrays, case_study.arrays.of(case_study))):
            assert a == a and a != b
            assert len({a, b, a}) == 2


class TestLookback:
    """A policy's lookback_days: checked before day 1, enforced on its reads, and what an ensemble holds."""

    @pytest.mark.parametrize("read", PAST_THE_LOOKBACK)
    @pytest.mark.parametrize("entry", ["run_simulation", "run_ensemble"])
    def test_read_past_the_lookback_refused(self, case_study, read, entry):
        what, _ = PAST_THE_LOOKBACK[read]
        message = f"policy 'peeking' declares lookback_days = 5, so it cannot read {what}"
        with pytest.raises(DecisionError, match=message):
            if entry == "run_simulation":
                run_simulation(case_study, peeking(read)(), seed=1, horizon=3)
            else:
                run_ensemble(case_study, peeking(read)(), 2, base_seed=1, horizon=3)

    def test_reads_within_the_lookback_run(self, case_study):
        run = run_simulation(case_study, PeekingPolicy(), seed=1, horizon=20)
        assert len(run.history) == 20
        # the run has ended: its record is the caller's to read
        assert np.array_equal(run.history.incidents, run.incidents)
        assert run.history.obs_pos.shape == (20, 3, 7)

    @pytest.mark.parametrize("lookback", [-1, True, 2.5, "3", np.float64(3.0)], ids=repr)
    def test_invalid_lookback_refused_before_day_1(self, case_study, lookback):
        policy = type("BadLookback", (PeekingPolicy,), {"lookback_days": lookback})()
        message = "policy 'peeking': lookback_days, if not None, must be an integer >= 0, got "
        with pytest.raises(PolicyError, match=message):
            run_ensemble(case_study, policy, 2, base_seed=1, horizon=3)
        reps = Replications(case_study, policy.name, seeds=[3], horizon=1)
        with pytest.raises(PolicyError, match=message):
            step_day(reps, 0, np.array([a.theta0 for a in case_study.areas]), policy)
        fresh = Streams.from_seed(3).environment
        assert reps.streams[0].environment.bit_generator.state == fresh.bit_generator.state
        assert not reps.counts.any()

    def test_history_shallower_than_the_lookback_refused(self, case_study):
        reps = Replications(case_study, "counts", seeds=[3], horizon=40, history_days=5)
        with pytest.raises(ValueError, match="policy 'counts' reads back 30 days; the history holds 5"):
            step_day(reps, 0, np.array([a.theta0 for a in case_study.areas]), make_policy("counts"))

    @pytest.mark.parametrize("spec", BUILT_IN_POLICIES)
    def test_built_ins_declare_what_they_read(self, spec):
        # counts and severity their window, the others nothing
        policy = make_policy(spec)
        assert policy.lookback_days == getattr(policy, "window_days", 0)
        if spec in ("counts", "severity"):
            assert type(policy)(window_days=7).lookback_days == 7


class TestGlobalGenerators:
    """A policy whose day-1 decisions draw from numpy's or Python's global generator is refused."""

    @pytest.mark.parametrize("policy", [NumpyGlobalPolicy, PythonGlobalPolicy])
    def test_global_draw_refused(self, case_study, policy):
        message = f"policy '{policy.name}' drew from numpy's or Python's global random generator on day 1"
        with pytest.raises(DecisionError, match=message):
            run_simulation(case_study, policy(), seed=1, horizon=3)
        with pytest.raises(DecisionError, match=message):
            run_ensemble(case_study, policy(), 3, base_seed=1, horizon=3)

    @pytest.mark.parametrize(
        "policy",
        [
            *(lambda spec=spec: make_policy(spec) for spec in BUILT_IN_POLICIES),
            HistoryProbePolicy, RotatingPolicy, DrawingCountsPolicy, DirichletPolicy, OddDaysOffPolicy,
            PerTypePolicy, AlternateDaysPolicy, PeekingPolicy,
        ],
    )
    def test_built_in_and_test_policies_accepted(self, case_study, policy):
        numpy_state, python_state = np.random.get_state(), random.getstate()
        runs = run_replications(case_study, policy(), [1, 2], 3)
        assert [run.horizon for run in runs] == [3, 3]
        assert random.getstate() == python_state
        assert all(np.array_equal(a, b) for a, b in zip(np.random.get_state(), numpy_state))


class TestNearestRank:
    def test_convention_on_hundred_values(self):
        values = np.arange(1, 101)
        assert nearest_rank(values, 5) == 5
        assert nearest_rank(values, 50) == 50
        assert nearest_rank(values, 95) == 95
        assert nearest_rank(values, 100) == 100

    def test_small_samples(self):
        assert nearest_rank(np.array([10]), 5) == 10
        assert nearest_rank(np.array([10, 20]), 50) == 10
        assert nearest_rank(np.array([10, 20]), 95) == 20


class TestBaselineDeterminism:
    def test_metric_trajectories_independent_of_seed(self, case_study):
        a = run_simulation(case_study, make_policy("none"), seed=1, horizon=80)
        b = run_simulation(case_study, make_policy("none"), seed=999, horizon=80)
        assert np.array_equal(a.expected_loss, b.expected_loss)
        assert np.array_equal(a.tail_prob, b.tail_prob)

    def test_baseline_approaches_asymptote_from_below(self, case_study):
        loss_limit, tail_limit = baseline_asymptote(case_study)
        trajectory = run_simulation(case_study, make_policy("none"), seed=1, horizon=365)
        losses = trajectory.expected_loss
        tails = trajectory.tail_prob
        assert np.all(np.diff(losses) > 0)
        assert losses[-1] < loss_limit
        assert tails[-1] < tail_limit
