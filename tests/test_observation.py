import numpy as np
import pytest

from conftest import make_area, make_obs_type, make_scenario
from safesim.observation import (
    DayObservations,
    ProportionError,
    allocate_observers,
    check_proportions,
    select_observed,
    step_observations,
)


def observe(rng, scenario, activity, decision):
    """step_observations on one (n_pos, n_neg) activity pair per area."""
    n_pos, n_neg = (list(counts) for counts in zip(*activity))
    return step_observations(rng, scenario, n_pos, n_neg, decision)


class TestAllocateObservers:
    def test_degenerate_proportions(self):
        rng = np.random.default_rng(0)
        s = np.array([1.0, 0.0, 0.0, 0.0])
        for m in (1, 3, 10):
            assert allocate_observers(rng, m, s).tolist() == [m, 0, 0, 0]

    def test_zero_observers(self):
        rng = np.random.default_rng(0)
        assert allocate_observers(rng, 0, np.full(7, 1 / 7)).tolist() == [0] * 7

    def test_total_preserved(self):
        rng = np.random.default_rng(1)
        s = np.array([0.2, 0.5, 0.3])
        for _ in range(200):
            assert allocate_observers(rng, 5, s).sum() == 5

    def test_uniform_mean_allocation(self):
        # oracle: multinomial mean m * s_i = 2/7 per area
        rng = np.random.default_rng(11)
        s = np.full(7, 1 / 7)
        total = np.zeros(7)
        n = 100_000
        for _ in range(n):
            total += allocate_observers(rng, 2, s)
        assert np.max(np.abs(total / n - 2 / 7)) < 0.01


def brute_force_select(rng, n_pos, n_neg, capacity, eta_pos, eta_neg):
    """Independent oracle: explicit Dirichlet weights, then iterative
    renormalized picks without replacement."""
    total = n_pos + n_neg
    n_obs = min(capacity, total)
    if n_obs <= 0:
        return 0, 0
    gammas = np.concatenate(
        [rng.gamma(eta_pos, 1.0, size=n_pos), rng.gamma(eta_neg, 1.0, size=n_neg)]
    )
    weights = gammas / gammas.sum()
    remaining = list(range(total))
    picked_neg = 0
    for _ in range(n_obs):
        w = np.array([weights[i] for i in remaining])
        idx = rng.choice(len(remaining), p=w / w.sum())
        if remaining.pop(idx) >= n_pos:
            picked_neg += 1
    return n_obs - picked_neg, picked_neg


class TestSelectObserved:
    def test_no_scarcity_records_everything(self):
        rng = np.random.default_rng(0)
        assert select_observed(rng, 3, 4, 7, 100.0, 100.0) == (3, 4)
        assert select_observed(rng, 3, 4, 50, 100.0, 1.0) == (3, 4)

    def test_empty_classes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert select_observed(rng, 0, 10, 4, 100.0, 100.0)[0] == 0
            assert select_observed(rng, 10, 0, 4, 100.0, 100.0)[1] == 0

    def test_no_events_or_no_capacity(self):
        rng = np.random.default_rng(0)
        assert select_observed(rng, 0, 0, 5, 1.0, 1.0) == (0, 0)
        assert select_observed(rng, 5, 5, 0, 1.0, 1.0) == (0, 0)

    def test_count_equals_capacity_under_scarcity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pos, neg = select_observed(rng, 12, 9, 10, 50.0, 150.0)
            assert pos + neg == 10
            assert pos <= 12 and neg <= 9

    def test_bias_ratio_matches_brute_force_oracle(self):
        # eta_neg = 3 * eta_pos should record about 3x as many unsafe events
        rng = np.random.default_rng(20)
        pos = neg = 0
        for _ in range(10_000):
            p, n = select_observed(rng, 50, 50, 10, 100.0, 300.0)
            pos += p
            neg += n
        ratio = neg / pos
        assert ratio == pytest.approx(3.0, rel=0.10)

        oracle_rng = np.random.default_rng(21)
        o_pos = o_neg = 0
        for _ in range(2_000):
            p, n = brute_force_select(oracle_rng, 50, 50, 10, 100.0, 300.0)
            o_pos += p
            o_neg += n
        assert ratio == pytest.approx(o_neg / o_pos, rel=0.10)

    def test_unbiased_selection_fraction(self):
        # equal concentrations: observed unsafe fraction = n_neg / (n_pos + n_neg)
        rng = np.random.default_rng(30)
        pos = neg = 0
        for _ in range(100_000):
            p, n = select_observed(rng, 30, 10, 8, 120.0, 120.0)
            pos += p
            neg += n
        assert neg / (pos + neg) == pytest.approx(0.25, rel=0.02)


class TestStepObservations:
    @staticmethod
    def scenario_3x2():
        areas = (make_area("A1"), make_area("A2"))
        types = (
            make_obs_type("WSO", m=2, eta_pos=150, eta_neg=100),
            make_obs_type("SAO", m=2),
            make_obs_type("BPO", m=1, eta_pos=100, eta_neg=120),
        )
        return make_scenario(areas=areas, obs_types=types)

    @staticmethod
    def uniform_decision(scenario):
        n = scenario.n_areas
        return {t.id: np.full(n, 1.0 / n) for t in scenario.obs_types}

    def test_no_observers_records_nothing(self):
        scenario = make_scenario(obs_types=(make_obs_type(m=0),))
        rng = np.random.default_rng(0)
        out = observe(
            rng, scenario, [(10, 10)], {"OBS": np.array([1.0])}
        )
        assert out.obs_pos.sum() + out.obs_neg.sum() == 0

    def test_daily_budget_respected(self, case_study):
        rng = np.random.default_rng(5)
        budget = sum(t.m * t.rho for t in case_study.obs_types)
        assert budget == 5
        evs = [(8, 6) for _ in case_study.areas]
        decision = {t.id: np.full(7, 1 / 7) for t in case_study.obs_types}
        for _ in range(300):
            out = observe(rng, case_study, evs, decision)
            assert out.obs_pos.sum() + out.obs_neg.sum() <= budget

    def test_area_without_events_records_zero(self):
        scenario = self.scenario_3x2()
        rng = np.random.default_rng(6)
        evs = [(0, 0), (10, 10)]
        decision = {t.id: np.array([1.0, 0.0]) for t in scenario.obs_types}
        out = observe(rng, scenario, evs, decision)
        assert out.obs_pos.sum() + out.obs_neg.sum() == 0

    def test_per_cell_counts_bounded_by_events(self):
        scenario = self.scenario_3x2()
        rng = np.random.default_rng(7)
        evs = [(2, 1), (0, 3)]
        decision = self.uniform_decision(scenario)
        for _ in range(300):
            out = observe(rng, scenario, evs, decision)
            for t_idx in range(3):
                for a_idx, (n_pos, n_neg) in enumerate(evs):
                    assert out.obs_pos[t_idx, a_idx] <= n_pos
                    assert out.obs_neg[t_idx, a_idx] <= n_neg

    def test_bit_reproducible(self):
        scenario = self.scenario_3x2()
        evs = [(9, 4), (5, 5)]
        decision = self.uniform_decision(scenario)
        outs = []
        for _ in range(2):
            rng = np.random.default_rng(88)
            outs.append(
                [observe(rng, scenario, evs, decision) for _ in range(30)]
            )
        for a, b in zip(outs[0], outs[1]):
            assert np.array_equal(a.obs_pos, b.obs_pos)
            assert np.array_equal(a.obs_neg, b.obs_neg)

    def test_invalid_proportions_rejected(self):
        scenario = self.scenario_3x2()
        rng = np.random.default_rng(0)
        bad = {t.id: np.array([0.7, 0.7]) for t in scenario.obs_types}
        with pytest.raises(ProportionError, match="sum to 1"):
            observe(rng, scenario, [(1, 1), (1, 1)], bad)

    def test_each_distinct_vector_checked(self):
        # one valid vector shared by two types, a bad one for the third
        scenario = self.scenario_3x2()
        rng = np.random.default_rng(0)
        good = np.array([0.5, 0.5])
        decision = {"WSO": good, "SAO": good, "BPO": np.array([0.7, 0.7])}
        with pytest.raises(ProportionError, match="sum to 1"):
            observe(rng, scenario, [(1, 1), (1, 1)], decision)


class TestCheckProportions:
    def test_valid_vector_passes(self):
        s = check_proportions([0.25, 0.75], 2)
        assert s.dtype == float

    def test_negative_rejected(self):
        with pytest.raises(ProportionError, match="nonnegative"):
            check_proportions([-0.25, 1.25], 2)

    def test_non_finite_rejected(self):
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ProportionError, match="finite"):
                check_proportions([bad, 0.5, 0.5], 3)

    def test_wrong_length_rejected(self):
        with pytest.raises(ProportionError, match="expected 3"):
            check_proportions([0.5, 0.5], 3)


def test_day_observations_empty_shape():
    obs = DayObservations.empty(3, 7)
    assert obs.obs_pos.shape == (3, 7)
    assert obs.obs_pos.sum() + obs.obs_neg.sum() == 0
    assert obs.obs_neg[:, 2].tolist() == [0, 0, 0]
