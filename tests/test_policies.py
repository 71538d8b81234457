import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import EDGE_WEIGHTS
from safesim.observation import ProportionError, check_proportions
from safesim.policies import (
    AHL,
    AREA,
    DAY,
    DecisionError,
    FixedWeightsPolicy,
    IncidentCountPolicy,
    IncidentSeverityPolicy,
    NoObservationPolicy,
    ObservableHistory,
    Policy,
    PolicyError,
    UniformRandomPolicy,
    make_policy,
    policy_names,
    register_policy,
)

TYPE_IDS = ("WSO", "SAO", "BPO")
PRIOR_WEIGHTS = [0.12, 0.12, 0.12, 0.08, 0.08, 0.28, 0.2]


def append_incidents(history, incidents):
    """Close a day whose incidents are (area, ahl) pairs, in log order by area; PHL = AHL."""
    by_area = sorted(incidents, key=lambda incident: incident[0])
    rows = [(history.current_day, a, ahl, ahl) for a, ahl in by_area]
    history._append_day(np.array(rows, dtype=np.int32).reshape(-1, 4))


def history_with_incidents(n_areas, incident_days, current_day=None):
    """incident_days: {day: [(area, ahl), ...]}; fills the remaining days empty."""
    last = current_day - 1 if current_day else max(incident_days, default=0)
    shape = (last, len(TYPE_IDS), n_areas)
    history = ObservableHistory(TYPE_IDS, np.zeros(shape, dtype=int), np.zeros(shape, dtype=int))
    for day in range(1, last + 1):
        append_incidents(history, incident_days.get(day, []))
    return history


def rng():
    return np.random.default_rng(0)


def assert_decision_sums_to_one(decision):
    assert type(decision) is dict and set(decision) == set(TYPE_IDS)
    for type_id in TYPE_IDS:
        assert abs(decision[type_id].sum() - 1.0) < 1e-9


class TestUniformRandomPolicy:
    def test_seven_areas(self):
        decision = UniformRandomPolicy().decide(history_with_incidents(7, {}), rng())
        for type_id in TYPE_IDS:
            assert np.allclose(decision[type_id], 1 / 7)

    def test_single_area(self):
        decision = UniformRandomPolicy().decide(history_with_incidents(1, {}), rng())
        assert decision["WSO"].tolist() == [1.0]

    def test_ignores_history(self):
        empty = history_with_incidents(4, {})
        busy = history_with_incidents(4, {1: [(2, 5), (2, 5), (0, 1)]})
        policy = UniformRandomPolicy()
        a = policy.decide(empty, rng())
        b = policy.decide(busy, rng())
        for type_id in TYPE_IDS:
            assert np.array_equal(a[type_id], b[type_id])


class TestIncidentCountPolicy:
    def test_proportional_to_counts(self):
        history = history_with_incidents(
            7, {3: [(0, 0), (0, 1), (1, 2)], 5: [(0, 3)]}, current_day=6
        )
        decision = IncidentCountPolicy().decide(history, rng())
        expected = [0.75, 0.25, 0, 0, 0, 0, 0]
        assert np.allclose(decision["WSO"], expected)

    def test_no_incidents_falls_back_to_uniform(self):
        decision = IncidentCountPolicy().decide(history_with_incidents(5, {}), rng())
        assert np.allclose(decision["SAO"], 0.2)

    def test_all_incidents_in_one_area(self):
        history = history_with_incidents(3, {1: [(2, 0)], 2: [(2, 4)]}, current_day=4)
        decision = IncidentCountPolicy().decide(history, rng())
        assert np.allclose(decision["BPO"], [0, 0, 1.0])

    def test_near_misses_count(self):
        history = history_with_incidents(2, {1: [(0, 0)]}, current_day=2)
        decision = IncidentCountPolicy().decide(history, rng())
        assert np.allclose(decision["WSO"], [1.0, 0.0])

    def test_window_excludes_old_incidents(self):
        # incident on day 1 has left the 30-day window by day 32
        history = history_with_incidents(2, {1: [(0, 2)]}, current_day=32)
        decision = IncidentCountPolicy(window_days=30).decide(history, rng())
        assert np.allclose(decision["WSO"], 0.5)
        still_in = history_with_incidents(2, {2: [(0, 2)]}, current_day=32)
        decision = IncidentCountPolicy(window_days=30).decide(still_in, rng())
        assert np.allclose(decision["WSO"], [1.0, 0.0])


class TestIncidentSeverityPolicy:
    def test_exponential_weighting(self):
        history = history_with_incidents(7, {2: [(0, 3)]}, current_day=5)
        decision = IncidentSeverityPolicy().decide(history, rng())
        expected = np.array([8.0, 1, 1, 1, 1, 1, 1]) / 14.0
        assert np.allclose(decision["WSO"], expected)

    def test_equal_severities_give_uniform(self):
        history = history_with_incidents(
            4, {1: [(0, 2), (1, 2), (2, 2), (3, 2)]}, current_day=3
        )
        decision = IncidentSeverityPolicy().decide(history, rng())
        assert np.allclose(decision["SAO"], 0.25)

    def test_top_severity_weight(self):
        history = history_with_incidents(7, {4: [(0, 5)]}, current_day=6)
        decision = IncidentSeverityPolicy().decide(history, rng())
        assert decision["WSO"][0] == pytest.approx(32 / 38)

    def test_max_not_sum_of_severities(self):
        # two level-2 incidents weigh the same as one level-2 incident
        one = history_with_incidents(2, {1: [(0, 2)]}, current_day=3)
        two = history_with_incidents(2, {1: [(0, 2)], 2: [(0, 2)]}, current_day=3)
        policy = IncidentSeverityPolicy()
        assert np.allclose(
            policy.decide(one, rng())["WSO"],
            policy.decide(two, rng())["WSO"],
        )


@pytest.mark.parametrize("cls", [IncidentCountPolicy, IncidentSeverityPolicy])
class TestWindowDays:
    @pytest.mark.parametrize("window_days", [0, -1, -30])
    def test_window_below_one_rejected(self, cls, window_days):
        with pytest.raises(PolicyError, match=">= 1"):
            cls(window_days=window_days)

    @pytest.mark.parametrize("window_days", [2.5, 30.0, "30", True, False, None])
    def test_window_not_an_integer_rejected(self, cls, window_days):
        with pytest.raises(PolicyError, match="integer"):
            cls(window_days=window_days)

    @pytest.mark.parametrize("window_days", [1, 30, np.int64(7)])
    def test_integer_window_accepted(self, cls, window_days):
        policy = cls(window_days=window_days)
        assert policy.window_days == window_days and type(policy.window_days) is int
        history = history_with_incidents(3, {1: [(2, 4)]}, current_day=3)
        assert_decision_sums_to_one(policy.decide(history, rng()))


class TestFixedWeightsPolicy:
    def test_reference_weights(self):
        decision = FixedWeightsPolicy(PRIOR_WEIGHTS).decide(
            history_with_incidents(7, {}), rng()
        )
        assert decision["WSO"][5] == pytest.approx(0.28)
        assert_decision_sums_to_one(decision)

    def test_uniform_weights_match_uniform_policy(self):
        history = history_with_incidents(4, {})
        fixed = FixedWeightsPolicy([0.25] * 4).decide(history, rng())
        uniform = UniformRandomPolicy().decide(history, rng())
        for type_id in TYPE_IDS:
            assert np.allclose(fixed[type_id], uniform[type_id])

    def test_invalid_sum_rejected(self):
        with pytest.raises(PolicyError, match="sum to 1"):
            FixedWeightsPolicy([0.5, 0.4])

    def test_sum_checked_as_the_observation_step_checks_it(self):
        # a vector the policy accepted used to fail check_proportions on day 1
        with pytest.raises(ProportionError, match="sum to 1, got 1.000000001"):
            check_proportions(EDGE_WEIGHTS, len(EDGE_WEIGHTS))
        with pytest.raises(PolicyError, match="sum to 1, got 1.000000001"):
            FixedWeightsPolicy(EDGE_WEIGHTS)

    def test_negative_weight_rejected(self):
        with pytest.raises(PolicyError, match="nonnegative"):
            FixedWeightsPolicy([1.5, -0.5])

    def test_policy_owns_its_weights(self):
        # the vector checked when the policy was built is the one it allocates by
        weights = np.array([0.5, 0.5])
        policy = FixedWeightsPolicy(weights)
        weights[:] = [0.9, 0.1]
        assert policy.weights.tolist() == [0.5, 0.5]

    def test_non_finite_weight_rejected(self):
        for bad in ("nan", "inf", "-inf"):
            with pytest.raises(PolicyError, match="finite"):
                make_policy(f"weighted:{bad},0.12,0.12,0.08,0.08,0.28,0.2")


class TestNoObservationPolicy:
    def test_returns_none_marker(self):
        decision = NoObservationPolicy().decide(history_with_incidents(7, {}), rng())
        assert decision is None

    def test_marker_regardless_of_history(self):
        history = history_with_incidents(7, {1: [(0, 5), (1, 4)]}, current_day=10)
        assert NoObservationPolicy().decide(history, rng()) is None


class TestPolicyContracts:
    @pytest.mark.parametrize(
        "policy",
        [
            UniformRandomPolicy(),
            IncidentCountPolicy(),
            IncidentSeverityPolicy(),
            FixedWeightsPolicy(PRIOR_WEIGHTS),
        ],
    )
    def test_proportions_sum_to_one(self, policy):
        history = history_with_incidents(7, {2: [(1, 3), (4, 0)]}, current_day=8)
        assert_decision_sums_to_one(policy.decide(history, rng()))

    @pytest.mark.parametrize(
        "policy",
        [
            UniformRandomPolicy(),
            IncidentCountPolicy(),
            IncidentSeverityPolicy(),
            FixedWeightsPolicy(PRIOR_WEIGHTS),
            NoObservationPolicy(),
        ],
    )
    def test_identical_histories_give_identical_decisions(self, policy):
        def build():
            return history_with_incidents(7, {2: [(1, 3)], 9: [(6, 2)]}, current_day=12)

        a = policy.decide(build(), np.random.default_rng(1))
        b = policy.decide(build(), np.random.default_rng(2))
        if a is None:
            assert b is None
        else:
            for type_id in TYPE_IDS:
                assert np.array_equal(a[type_id], b[type_id])

    def test_history_carries_no_latent_state(self):
        history = history_with_incidents(3, {1: [(0, 1)]})
        assert not hasattr(history, "theta")
        assert not hasattr(history, "xi")


class TestMakePolicy:
    def test_known_names(self):
        assert set(policy_names()) == {"uniform", "counts", "severity", "weighted", "none"}
        for name in ("uniform", "counts", "severity", "none"):
            assert isinstance(make_policy(name), Policy)

    def test_weighted_spec_parsing(self):
        policy = make_policy("weighted:" + ",".join(str(w) for w in PRIOR_WEIGHTS))
        assert isinstance(policy, FixedWeightsPolicy)
        assert policy.weights[5] == pytest.approx(0.28)

    def test_unknown_name_lists_valid_ones(self):
        with pytest.raises(PolicyError, match="uniform"):
            make_policy("bogus")

    def test_weighted_requires_weights(self):
        with pytest.raises(PolicyError, match="needs weights"):
            make_policy("weighted")

    def test_unparseable_weights(self):
        with pytest.raises(PolicyError, match="could not parse"):
            make_policy("weighted:a,b")

    def test_plain_policy_rejects_arguments(self):
        for spec in ("uniform:3", "uniform:", "none:", "counts:"):  # an empty argument too
            with pytest.raises(PolicyError, match="takes no arguments"):
                make_policy(spec)

    def test_custom_policy_registration(self):
        class FirstAreaPolicy(Policy):
            name = "first-area"

            def decide(self, history, rng):
                s = np.zeros(history.n_areas)
                s[0] = 1.0
                return dict.fromkeys(history.obs_type_ids, s)

        register_policy("first-area", FirstAreaPolicy)
        try:
            policy = make_policy("first-area")
            decision = policy.decide(history_with_incidents(3, {}), rng())
            assert decision["WSO"].tolist() == [1.0, 0.0, 0.0]
        finally:
            from safesim.policies import _REGISTRY

            _REGISTRY.pop("first-area")


class TestObservableHistory:
    def test_append_only_growth(self):
        shape = (1, len(TYPE_IDS), 2)
        history = ObservableHistory(TYPE_IDS, np.zeros(shape, dtype=int), np.zeros(shape, dtype=int))
        assert history.current_day == 1
        history._append_day(np.empty((0, 4), dtype=np.int32))
        assert len(history) == 1
        assert history.current_day == 2

    def test_rows_logged_in_order_under_the_day(self):
        shape = (1, len(TYPE_IDS), 3)
        history = ObservableHistory(TYPE_IDS, np.zeros(shape, dtype=int), np.zeros(shape, dtype=int))
        history._append_day(np.array([(1, 0, 3, 4), (1, 0, 1, 2), (1, 2, 5, 5)], dtype=np.int32))
        assert history.incidents.tolist() == [[1, 0, 3, 4], [1, 0, 1, 2], [1, 2, 5, 5]]

    def test_window_selection(self):
        history = history_with_incidents(2, {1: [(0, 1)], 5: [(1, 2)]}, current_day=6)
        # days 3..5 are in the window; only day 5 logged an incident
        assert history.window(3)[:, DAY].tolist() == [5]
        assert history.window(5)[:, DAY].tolist() == [1, 5]

    def test_policy_cannot_alter_the_record(self):
        history = history_with_incidents(2, {1: [(0, 1)]}, current_day=2)
        for rows in (history.window(5), history.incidents, history.obs_pos, history.obs_neg):
            with pytest.raises(ValueError, match="read-only"):
                rows[..., 0] += 1
        assert history.incidents.tolist() == [[1, 0, 1, 1]]
        assert history.obs_pos.sum() == history.obs_neg.sum() == 0

    def test_public_members_only_read(self):
        # the day's writer is the engine's alone: a policy that closed a day
        # itself would log its own rows and shift every later day by one
        history = history_with_incidents(2, {1: [(0, 1)]}, current_day=2)
        readers = {
            "window", "incident_counts", "max_ahl", "incidents", "current_day",
            "obs_pos", "obs_neg", "obs_type_ids", "n_areas",
        }
        assert {name for name in dir(history) if not name.startswith("_")} == readers
        assert len(history) == 1


class TestHeldDays:
    """A history of held_days K keeps the rows a window of K days reads, and totals the rest."""

    @pytest.mark.parametrize("held_days", [0, 1, 3, 30])
    def test_windows_and_totals_match_a_full_history(self, held_days):
        rng = np.random.default_rng(held_days)
        n_areas, n_days, most = 3, 300, 12
        shape = (n_days, len(TYPE_IDS), n_areas)
        full = ObservableHistory(TYPE_IDS, np.zeros(shape, dtype=int), np.zeros(shape, dtype=int))
        one_day = (1, *shape[1:])
        held = ObservableHistory(
            TYPE_IDS, np.zeros(one_day, dtype=int), np.zeros(one_day, dtype=int), held_days=held_days
        )
        for day in range(1, n_days + 1):
            for window_days in range(held_days + 1):
                assert held.window(window_days).tolist() == full.window(window_days).tolist()
            n = rng.integers(0, most + 1)
            incidents = list(zip(rng.integers(0, n_areas, n).tolist(), rng.integers(0, 6, n).tolist()))
            append_incidents(full, incidents)
            append_incidents(held, incidents)
            assert len(held) == len(full) == day
        cells = full.incidents[:, AREA] * 6 + full.incidents[:, AHL]
        totals = np.bincount(cells, minlength=n_areas * 6).reshape(n_areas, 6)
        assert np.array_equal(full._incident_totals(), totals)
        assert np.array_equal(held._incident_totals(), totals)
        assert held._folded.sum() > 0 and full._folded.sum() == 0
        # the buffer doubles only while the held days fill more than half of it
        assert len(held._log) <= max(64, 4 * (held_days + 1) * most) < len(full._log)

    @pytest.mark.parametrize("read", ["window", "incidents", "obs_pos", "obs_neg"])
    def test_reads_past_the_held_days_refused(self, read):
        shape = (1, len(TYPE_IDS), 2)
        history = ObservableHistory(TYPE_IDS, np.zeros(shape, dtype=int), np.zeros(shape, dtype=int), held_days=3)
        for _ in range(5):
            append_incidents(history, [(0, 1)])
        assert history.window(3)[:, DAY].tolist() == [3, 4, 5]
        with pytest.raises(DecisionError, match="lookback_days = 3, so it cannot read"):
            history.window(4) if read == "window" else getattr(history, read)


@st.composite
def incident_days(draw):
    """A number of areas and, per day, that day's incidents as (area, AHL) pairs."""
    n_areas = draw(st.integers(1, 6))
    incident = st.tuples(st.integers(0, n_areas - 1), st.integers(0, 5))
    return n_areas, draw(st.lists(st.lists(incident, max_size=8), max_size=12))


class TestWindowQueriesMatchPerAreaOracle:
    """incident_counts and max_ahl over the int32 log equal a per-area scan of the days."""

    @settings(deadline=None, max_examples=200)
    @given(incident_days(), st.integers(1, 20))
    @example((1, []), 1)
    @example((3, [[(0, 2)], [], [(2, 5), (0, 1)], []]), 30)
    # 72 rows, past the log's initial 64, so every run of the test grows it
    @example((2, [[(day % 2, day % 6)] * 8 for day in range(9)]), 4)
    def test_every_day_of_the_run(self, log, window_days):
        n_areas, days = log
        shape = (len(days), len(TYPE_IDS), n_areas)
        history = ObservableHistory(
            TYPE_IDS, np.zeros(shape, dtype=np.int32), np.zeros(shape, dtype=np.int32)
        )
        for closed in range(len(days) + 1):  # decide day closed + 1, then close it
            first = closed + 1 - window_days
            seen = [i for day, rows in enumerate(days[:closed], 1) if day >= first for i in rows]
            by_area = [[ahl for a, ahl in seen if a == area] for area in range(n_areas)]
            assert history.incident_counts(window_days).tolist() == [len(h) for h in by_area]
            assert history.max_ahl(window_days).tolist() == [max(h, default=0) for h in by_area]
            if closed < len(days):
                append_incidents(history, days[closed])
        assert history.incidents.dtype == np.int32
        assert len(history.incidents) == sum(map(len, days))
