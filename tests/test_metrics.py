import math

import numpy as np
import pytest

import scalar_reference
from conftest import make_area, make_obs_type, make_scenario
from safesim.events import xi_of_theta
from safesim.metrics import (
    aggregate_metrics,
    ahl_marginal,
    baseline_asymptote,
    compute_day_metrics,
    expected_daily_loss,
    expected_hl_count,
    tail_probability,
)
from safesim.scenario import DEFAULT_LOSS_VECTOR, ScenarioArrays


def area_state(area, theta):
    return xi_of_theta(theta, area.xi_base)


class TestExpectedHlCount:
    def test_reference_value(self):
        # 0.04 * 0.55 * 17 * 0.50 = 0.187
        assert expected_hl_count(17.0, 0.55, 0.04, 0.50) == pytest.approx(0.187, abs=1e-15)

    def test_zero_probability_level(self):
        assert expected_hl_count(17.0, 0.55, 0.04, 0.0) == 0.0

    def test_matches_monte_carlo_mean(self):
        # oracle: Poisson incident counts thinned by the severity distribution
        lambda_star, xi, alpha = 22.0, 0.4, 0.01
        hl_probs = (0.30, 0.06, 0.35, 0.28, 0.01, 0.0)
        rng = np.random.default_rng(1234)
        n_days = 1_000_000
        n_e = rng.poisson(alpha * xi * lambda_star, size=n_days)
        level_totals = rng.multinomial(int(n_e.sum()), hl_probs)
        for j, total in enumerate(level_totals):
            analytic = expected_hl_count(lambda_star, xi, alpha, hl_probs[j])
            mc = total / n_days
            if analytic >= 1e-2:
                assert mc == pytest.approx(analytic, rel=0.01)
            else:
                assert mc == pytest.approx(analytic, abs=1e-4)


class TestExpectedDailyLoss:
    def test_zero_loss_vector(self):
        area = make_area()
        assert expected_daily_loss(area, area_state(area, 0.3), (0,) * 6) == 0.0

    def test_reference_value_area_f(self):
        # 0.02 * 0.45 * 5 * (0.06 + 0.8 + 18 + 80 + 200) = 13.4487
        area = make_area(
            lambda_star=5.0, xi_base=0.45, alpha=0.02,
            hl_probs=(0.58, 0.06, 0.08, 0.18, 0.08, 0.02),
        )
        loss = expected_daily_loss(area, area_state(area, 0.0), DEFAULT_LOSS_VECTOR)
        assert loss == pytest.approx(13.4487, rel=1e-12)

    def test_safest_state_has_zero_loss(self):
        area = make_area()
        assert expected_daily_loss(area, area_state(area, 1.0), DEFAULT_LOSS_VECTOR) == 0.0

    def test_linear_in_xi(self):
        area = make_area()
        low = expected_daily_loss(area, 0.2, DEFAULT_LOSS_VECTOR)
        high = expected_daily_loss(area, 0.4, DEFAULT_LOSS_VECTOR)
        assert high == 2.0 * low  # doubling xi doubles the metric exactly


class TestAhlMarginal:
    def test_zero_xi_gives_zeros(self):
        marginal = ahl_marginal(15.0, 0.0, 0.01, (0.38, 0.26, 0.16, 0.16, 0.03, 0.01))
        assert np.all(marginal == 0.0)

    def test_reference_value_area_e(self):
        # factor 1 - exp(-15 * 0.01 * 0.05), level-5 probability 0.01
        marginal = ahl_marginal(15.0, 0.05, 0.01, (0.38, 0.26, 0.16, 0.16, 0.03, 0.01))
        assert marginal[5] == pytest.approx(7.471945180861583e-05, rel=1e-12)

    def test_sums_like_factor(self):
        hl = (0.5, 0.2, 0.15, 0.1, 0.04, 0.01)
        marginal = ahl_marginal(10.0, 0.3, 0.1, hl)
        assert marginal.sum() == pytest.approx(1 - math.exp(-10 * 0.3 * 0.1))


class TestTailProbability:
    def test_area_without_severe_levels(self):
        area = make_area(
            lambda_star=17.0, xi_base=0.55, alpha=0.04,
            hl_probs=(0.50, 0.35, 0.13, 0.02, 0.0, 0.0),
        )
        for theta in (0.0, 0.5, 1.0):
            assert tail_probability(area, area_state(area, theta)) == 0.0

    def test_zero_xi(self):
        area = make_area()
        assert tail_probability(area, area_state(area, 1.0)) == 0.0

    def test_reference_value_area_f(self):
        area = make_area(
            lambda_star=5.0, xi_base=0.45, alpha=0.02,
            hl_probs=(0.58, 0.06, 0.08, 0.18, 0.08, 0.02),
        )
        tail = tail_probability(area, area_state(area, 0.0))
        assert tail == pytest.approx((1 - math.exp(-0.045)) * 0.10, rel=1e-12)
        assert tail == pytest.approx(0.0044002518, rel=1e-6)


class TestAggregateMetrics:
    def test_single_area_passthrough(self):
        metrics = aggregate_metrics([3.5], [0.07])
        assert metrics.expected_loss == 3.5
        assert metrics.tail_prob == pytest.approx(0.07)

    def test_complement_product(self):
        metrics = aggregate_metrics([1.0, 2.0], [0.1, 0.2])
        assert metrics.expected_loss == 3.0
        assert metrics.tail_prob == pytest.approx(0.28)

    def test_all_safe(self):
        metrics = aggregate_metrics([0.0, 0.0], [0.0, 0.0])
        assert metrics.expected_loss == 0.0
        assert metrics.tail_prob == 0.0

    def test_loss_adds_across_areas(self, case_study):
        states = [xi_of_theta(0.0, a.xi_base) for a in case_study.areas]
        metrics = compute_day_metrics(ScenarioArrays.of(case_study), states)
        assert metrics.expected_loss == pytest.approx(metrics.expected_loss_by_area.sum())
        assert metrics.tail_prob <= 1.0


class TestBaselineConvergence:
    def test_asymptote_reference_value(self, case_study):
        loss_limit, tail_limit = baseline_asymptote(case_study)
        # hand-computed sum over Table-style parameters
        assert loss_limit == pytest.approx(21.126145, rel=1e-9)
        assert 0.0 < tail_limit < 1.0

    def test_deterministic_decay_converges_monotonically(self, case_study):
        loss_limit, _ = baseline_asymptote(case_study)
        theta = np.array([a.theta0 for a in case_study.areas])
        k = np.array([a.k_decay for a in case_study.areas])
        params = ScenarioArrays.of(case_study)
        losses = []
        for _ in range(365):
            states = [
                xi_of_theta(float(theta[i]), a.xi_base)
                for i, a in enumerate(case_study.areas)
            ]
            losses.append(compute_day_metrics(params, states).expected_loss)
            theta = k * theta
        assert all(b > a for a, b in zip(losses, losses[1:]))
        assert all(loss < loss_limit for loss in losses)
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
    """compute_day_metrics over areas equals the per-area formulas bit for bit."""

    @staticmethod
    def assert_bitwise(scenario, xi):
        ours = compute_day_metrics(ScenarioArrays.of(scenario), np.asarray(xi))
        ref = scalar_reference.compute_day_metrics(scenario, list(xi))
        assert np.array_equal(ours.expected_loss_by_area, ref.expected_loss_by_area)
        assert np.array_equal(ours.tail_prob_by_area, ref.tail_prob_by_area)
        assert ours.expected_loss == ref.expected_loss
        assert ours.tail_prob == ref.tail_prob

    def test_case_study(self, case_study):
        rng = np.random.default_rng(2)
        xi_base = np.array([a.xi_base for a in case_study.areas])
        for theta in (np.zeros(7), np.ones(7), *rng.random((500, 7))):
            self.assert_bitwise(case_study, xi_of_theta(theta, xi_base))

    def test_random_24_area_scenario(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            scenario = random_scenario(rng, 24)
            xi_base = np.array([a.xi_base for a in scenario.areas])
            for theta in rng.random((50, 24)):
                self.assert_bitwise(scenario, xi_of_theta(theta, xi_base))
