import dataclasses
import math

import numpy as np
import pytest

import scalar_reference
from conftest import make_area, make_obs_type, make_scenario
from safesim.events import xi_of_theta
from safesim.metrics import baseline_asymptote, compute_day_metrics
from safesim.scenario import DEFAULT_LOSS_VECTOR, N_HURT_LEVELS, Scenario, ScenarioArrays


def area_state(area, theta):
    return xi_of_theta(theta, area.xi_base)


def one_area_metrics(area, xi, loss_vector=DEFAULT_LOSS_VECTOR):
    """(expected loss, tail probability) of a one-area scenario at a scalar xi.

    Any loss vector is put straight into the scenario's arrays, so that a
    one-hot vector, which no valid scenario holds, reads one level's count.
    """
    arrays = ScenarioArrays.of(Scenario(areas=(area,), obs_types=()))
    arrays = dataclasses.replace(arrays, loss_vector=np.array(loss_vector, dtype=float))
    loss, tail = compute_day_metrics(arrays, np.array([xi]))
    return float(loss), float(tail)


def level_count(area, xi, level):
    """Expected daily incidents at one Hurt level: the loss under the one-hot
    loss vector e_level."""
    return one_area_metrics(area, xi, np.eye(N_HURT_LEVELS)[level])[0]


AREA_A_HL = (0.50, 0.35, 0.13, 0.02, 0.0, 0.0)


class TestExpectedHlCount:
    def test_reference_value(self):
        # 0.04 * 0.55 * 17 * 0.50 = 0.187
        area = make_area(lambda_star=17.0, alpha=0.04, hl_probs=AREA_A_HL)
        assert level_count(area, 0.55, 0) == pytest.approx(0.187, abs=1e-15)

    def test_zero_probability_level(self):
        area = make_area(lambda_star=17.0, alpha=0.04, hl_probs=AREA_A_HL)
        assert level_count(area, 0.55, 4) == 0.0

    def test_matches_monte_carlo_mean(self):
        # oracle: Poisson incident counts thinned by the severity distribution
        lambda_star, xi, alpha = 22.0, 0.4, 0.01
        hl_probs = (0.30, 0.06, 0.35, 0.28, 0.01, 0.0)
        area = make_area(lambda_star=lambda_star, alpha=alpha, hl_probs=hl_probs)
        rng = np.random.default_rng(1234)
        n_days = 1_000_000
        n_e = rng.poisson(alpha * xi * lambda_star, size=n_days)
        level_totals = rng.multinomial(int(n_e.sum()), hl_probs)
        for j, total in enumerate(level_totals):
            analytic = level_count(area, xi, j)
            mc = total / n_days
            if analytic >= 1e-2:
                assert mc == pytest.approx(analytic, rel=0.01)
            else:
                assert mc == pytest.approx(analytic, abs=1e-4)


class TestExpectedDailyLoss:
    def test_zero_loss_vector(self):
        area = make_area()
        loss, _ = one_area_metrics(area, area_state(area, 0.3), (0,) * 6)
        assert loss == 0.0

    def test_reference_value_area_f(self):
        # 0.02 * 0.45 * 5 * (0.06 + 0.8 + 18 + 80 + 200) = 13.4487
        area = make_area(
            lambda_star=5.0, xi_base=0.45, alpha=0.02,
            hl_probs=(0.58, 0.06, 0.08, 0.18, 0.08, 0.02),
        )
        loss, _ = one_area_metrics(area, area_state(area, 0.0))
        assert loss == pytest.approx(13.4487, rel=1e-12)

    def test_safest_state_has_zero_loss(self):
        area = make_area()
        assert one_area_metrics(area, area_state(area, 1.0))[0] == 0.0

    def test_linear_in_xi(self):
        area = make_area()
        low, _ = one_area_metrics(area, 0.2)
        high, _ = one_area_metrics(area, 0.4)
        assert high == 2.0 * low  # doubling xi doubles the metric exactly


class TestTailProbability:
    def test_area_without_severe_levels(self):
        area = make_area(lambda_star=17.0, xi_base=0.55, alpha=0.04, hl_probs=AREA_A_HL)
        for theta in (0.0, 0.5, 1.0):
            assert one_area_metrics(area, area_state(area, theta))[1] == 0.0

    def test_zero_xi(self):
        area = make_area()
        assert one_area_metrics(area, area_state(area, 1.0))[1] == 0.0

    def test_reference_value_area_f(self):
        # severe incidents are Poisson with mean 5 * 0.02 * 0.45 * (0.08 + 0.02)
        area = make_area(
            lambda_star=5.0, xi_base=0.45, alpha=0.02,
            hl_probs=(0.58, 0.06, 0.08, 0.18, 0.08, 0.02),
        )
        _, tail = one_area_metrics(area, area_state(area, 0.0))
        assert tail == pytest.approx(1 - math.exp(-0.0045), rel=1e-12)
        assert tail == pytest.approx(0.0044898878, rel=1e-6)

    def test_reference_value_area_e(self):
        # severe incidents are Poisson with mean 15 * 0.01 * 0.05 * (0.03 + 0.01)
        area = make_area(
            lambda_star=15.0, xi_base=0.05, alpha=0.01,
            hl_probs=(0.38, 0.26, 0.16, 0.16, 0.03, 0.01),
        )
        _, tail = one_area_metrics(area, area_state(area, 0.0))
        assert tail == pytest.approx(2.99955e-04, rel=1e-5)
        assert tail == pytest.approx(-math.expm1(-0.0003), rel=1e-12)


def two_area_params():
    areas = (
        make_area("P", lambda_star=40.0, alpha=0.2, hl_probs=(0.3, 0.2, 0.1, 0.1, 0.2, 0.1)),
        make_area("Q", lambda_star=25.0, alpha=0.1, hl_probs=(0.4, 0.1, 0.1, 0.1, 0.1, 0.2)),
    )
    return areas, ScenarioArrays.of(make_scenario(areas=areas)), np.array([0.3, 0.2])


class TestAggregateMetrics:
    """compute_day_metrics combines the areas: losses add, tails as independent events."""

    def test_single_area_passthrough(self):
        area = make_area(lambda_star=30.0, alpha=0.3)
        params = ScenarioArrays.of(make_scenario(areas=(area,)))
        loss, tail = compute_day_metrics(params, np.array([0.4]))
        assert loss == scalar_reference.expected_daily_loss(area, 0.4, DEFAULT_LOSS_VECTOR)
        assert tail == -np.expm1(-scalar_reference.severe_count(area, 0.4))

    def test_complement_product(self):
        areas, params, xi = two_area_params()
        _, tail = compute_day_metrics(params, xi)
        per_area = [one_area_metrics(a, x)[1] for a, x in zip(areas, xi)]
        assert tail == pytest.approx(1 - (1 - per_area[0]) * (1 - per_area[1]), rel=1e-14)
        assert tail > max(per_area)

    def test_all_safe(self):
        _, params, _ = two_area_params()
        loss, tail = compute_day_metrics(params, np.zeros((3, 2)))
        assert np.array_equal(loss, np.zeros(3)) and np.array_equal(tail, np.zeros(3))
        assert not np.signbit(loss).any() and not np.signbit(tail).any()

    def test_loss_adds_across_areas(self, case_study):
        states = np.array([xi_of_theta(0.0, a.xi_base) for a in case_study.areas])
        loss, tail = compute_day_metrics(ScenarioArrays.of(case_study), states)
        by_area = [
            one_area_metrics(a, x, case_study.loss_vector)[0]
            for a, x in zip(case_study.areas, states)
        ]
        assert loss == pytest.approx(sum(by_area))
        assert 0.0 < tail <= 1.0


class TestBaselineConvergence:
    def test_asymptote_reference_value(self, case_study):
        loss_limit, tail_limit = baseline_asymptote(case_study)
        # hand-computed sum over Table-style parameters
        assert loss_limit == pytest.approx(21.126145, rel=1e-9)
        assert 0.0 < tail_limit < 1.0

    def test_deterministic_decay_converges_monotonically(self, case_study):
        loss_limit, _ = baseline_asymptote(case_study)
        theta0 = np.array([a.theta0 for a in case_study.areas])
        k = np.array([a.k_decay for a in case_study.areas])
        xi_base = np.array([a.xi_base for a in case_study.areas])
        theta = theta0 * k ** np.arange(365)[:, None]
        losses, _ = compute_day_metrics(ScenarioArrays.of(case_study), xi_of_theta(theta, xi_base))
        assert np.all(np.diff(losses) > 0)
        assert np.all(losses < loss_limit)
        # closed form: loss(t) = limit * (1 - theta0 * k^t), shared theta0/k here
        expected = loss_limit * (1 - 0.1 * np.power(0.98, np.arange(365)))
        assert np.allclose(losses, expected, rtol=1e-12)


def random_scenario(rng, n_areas: int):
    """Areas with parameters spread over their ranges; some severity levels empty."""
    areas = []
    for i in range(n_areas):
        hl = rng.dirichlet(np.ones(6)) * (rng.random(6) > 0.3)
        hl = hl / hl.sum() if hl.sum() > 0 else np.eye(6)[i % 6]
        areas.append(
            make_area(
                f"Z{i}",
                lambda_star=float(rng.uniform(0.5, 300.0)),
                xi_base=float(rng.uniform(0.0, 1.0)),
                alpha=float(rng.uniform(0.0, 0.2)),
                hl_probs=tuple(hl.tolist()),
            )
        )
    return make_scenario(areas=areas, obs_types=(make_obs_type(),))


class TestArrayMetricsBitwise:
    """compute_day_metrics over a run's (days, areas) xi equals the per-day
    scalar formulas: the expected loss bit for bit, the tail to rounding.

    From 8 areas on numpy adds pairwise, and a sum along a non-contiguous
    axis differs in the last bits; the goldens have 7 areas, so this is the
    only gate for wide scenarios.
    """

    @staticmethod
    def assert_matches_per_day(scenario, xi):
        loss, tail = compute_day_metrics(ScenarioArrays.of(scenario), xi)
        ref = np.array([scalar_reference.compute_day_metrics(scenario, row) for row in xi])
        assert np.array_equal(loss, ref[:, 0])
        # expm1 implementations may differ in the last place
        assert np.allclose(tail, ref[:, 1], rtol=1e-14, atol=0.0)

    @staticmethod
    def assert_asymptote_matches(scenario):
        loss, tail = baseline_asymptote(scenario)
        ref_loss, ref_tail = scalar_reference.compute_day_metrics(
            scenario, [a.xi_base for a in scenario.areas]
        )
        assert loss == ref_loss
        assert tail == pytest.approx(ref_tail, rel=1e-14)

    def test_case_study(self, case_study):
        rng = np.random.default_rng(2)
        xi_base = np.array([a.xi_base for a in case_study.areas])
        theta = np.vstack([np.zeros(7), np.ones(7), rng.random((500, 7))])
        self.assert_matches_per_day(case_study, xi_of_theta(theta, xi_base))
        self.assert_asymptote_matches(case_study)

    def test_random_24_area_scenario(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scenario = random_scenario(rng, 24)
            xi_base = np.array([a.xi_base for a in scenario.areas])
            self.assert_matches_per_day(scenario, xi_of_theta(rng.random((100, 24)), xi_base))
            self.assert_asymptote_matches(scenario)
