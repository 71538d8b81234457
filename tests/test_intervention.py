import numpy as np
import pytest

from conftest import make_area, make_obs_type, make_scenario
from safesim.events import xi_of_theta
from safesim.intervention import apply_feedback, feedback_drive, step_theta


def theta_step(theta, area, n_neg_obs_by_type, n_e, scenario):
    """One area's step_theta, fed by the drive of its counts."""
    return step_theta(theta, feedback_drive(n_neg_obs_by_type, n_e, scenario), area.k_decay)


class TestApplyFeedback:
    def test_single_observation(self):
        # 0.5 + (1 - 0.5) * 0.03 = 0.515
        assert apply_feedback(0.5, 1 * 0.03) == pytest.approx(0.515, abs=1e-15)

    def test_zero_counts_leave_theta_unchanged(self):
        assert apply_feedback(0.42, 0 * 0.03 + 0 * 0.05 + 0 * 0.1) == 0.42

    def test_saturation_clamped_to_one(self):
        assert apply_feedback(0.9, 10 * 0.03 + 30 * 0.05) == 1.0

    def test_multiple_types_sum(self):
        # drive = 2*0.03 + 1*0.02 = 0.08; 0.5 + 0.5*0.08 = 0.54
        assert apply_feedback(0.5, 2 * 0.03 + 1 * 0.02) == pytest.approx(0.54)

    def test_incident_feedback_contributes(self):
        # drive = 3*0.05; 0.2 + 0.8*0.15 = 0.32
        assert apply_feedback(0.2, 0 * 0.03 + 3 * 0.05) == pytest.approx(0.32)

    def test_monotone_in_counts_and_theta_headroom(self):
        base = apply_feedback(0.5, 1 * 0.03)
        assert apply_feedback(0.5, 2 * 0.03) > base
        assert apply_feedback(0.5, 1 * 0.03 + 1 * 0.01) > base
        # lower theta has more headroom, so the same drive moves it further
        assert apply_feedback(0.2, 1 * 0.03) - 0.2 > base - 0.5


class TestStepTheta:
    def setup_method(self):
        self.area = make_area(k_decay=0.95)
        self.scenario = make_scenario(
            areas=(self.area,), obs_types=(make_obs_type(delta_neg=0.03),), delta_e=0.0
        )

    def test_decay_when_nothing_observed(self):
        # delta_e = 0: even many incidents leave the decay path in force
        for n_e in (0, 3, 50):
            assert theta_step(0.55, self.area, [0], n_e, self.scenario) == pytest.approx(
                0.5225, abs=1e-15
            )

    def test_feedback_path_when_unsafe_event_observed(self):
        result = theta_step(0.55, self.area, [1], 0, self.scenario)
        assert result == pytest.approx(0.55 + 0.45 * 0.03)
        assert result >= 0.55

    def test_incident_feedback_when_delta_e_positive(self):
        scenario = make_scenario(
            areas=(self.area,), obs_types=(make_obs_type(delta_neg=0.03),), delta_e=0.1
        )
        assert theta_step(0.5, self.area, [0], 2, scenario) == pytest.approx(0.5 + 0.5 * 0.2)

    def test_paths_are_mutually_exclusive(self):
        # zero drive decays, positive drive improves; no mixed outcome
        decayed = theta_step(0.6, self.area, [0], 0, self.scenario)
        fed = theta_step(0.6, self.area, [1], 0, self.scenario)
        assert decayed < 0.6 < fed

    def scenario_with(self, deltas_neg, delta_e):
        types = tuple(make_obs_type(f"T{i}", delta_neg=d) for i, d in enumerate(deltas_neg))
        return make_scenario(areas=(self.area,), obs_types=types, delta_e=delta_e)

    def test_drive_sums_over_types(self):
        # drive = 2*0.03 + 1*0.02 = 0.08; 0.5 + 0.5*0.08 = 0.54
        scenario = self.scenario_with([0.03, 0.02], 0.0)
        assert theta_step(0.5, self.area, [2, 1], 0, scenario) == pytest.approx(0.54)
        # each count pairs with its own type's delta
        assert theta_step(0.5, self.area, [1, 2], 0, scenario) == pytest.approx(0.535)

    def test_drive_adds_incident_term(self):
        # drive = 3*0.05; 0.2 + 0.8*0.15 = 0.32
        scenario = self.scenario_with([0.03], 0.05)
        assert theta_step(0.2, self.area, [0], 3, scenario) == pytest.approx(0.32)

    def test_large_drive_clamped_to_one(self):
        scenario = self.scenario_with([0.03], 0.05)
        assert theta_step(0.9, self.area, [10], 30, scenario) == 1.0

    def test_monotone_in_counts_and_incidents(self):
        base = theta_step(0.5, self.area, [1], 0, self.scenario)
        assert theta_step(0.5, self.area, [2], 0, self.scenario) > base
        with_incidents = self.scenario_with([0.03], 0.01)
        assert theta_step(0.5, self.area, [1], 1, with_incidents) > base

    def test_drive_over_areas_matches_per_area_sum(self):
        # oracle: the per-area Python sum over types, then the incident term
        scenario = self.scenario_with([0.03, 0.017, 0.1], 0.013)
        rng = np.random.default_rng(8)
        n_obs, n_e = rng.integers(0, 30, size=(3, 24)), rng.integers(0, 5, size=24)
        expected = [
            sum(n * t.delta_neg for n, t in zip(n_obs[:, a], scenario.obs_types))
            + int(n_e[a]) * scenario.delta_e
            for a in range(24)
        ]
        assert np.array_equal(feedback_drive(n_obs, n_e, scenario), expected)

    def test_theta_stays_in_unit_interval(self):
        rng = np.random.default_rng(5)
        theta = 0.5
        for _ in range(2_000):
            n_obs = int(rng.integers(0, 40))
            n_e = int(rng.integers(0, 10))
            theta = theta_step(theta, self.area, [n_obs], n_e, self.scenario)
            assert 0.0 <= theta <= 1.0


class TestDynamicsShape:
    def test_pure_decay_trajectory_is_geometric(self):
        # with all deltas 0, theta(t) = theta0 * k^t and xi rises toward xi_base
        area = make_area(xi_base=0.63, k_decay=0.95, theta0=0.55)
        scenario = make_scenario(areas=(area,), obs_types=(make_obs_type(delta_neg=0.0),))
        theta, thetas = 0.55, []
        for _ in range(200):
            theta = theta_step(theta, area, [5], 2, scenario)  # deltas are all zero
            thetas.append(theta)
        expected = 0.55 * np.power(0.95, np.arange(1, 201))
        assert np.allclose(thetas, expected, rtol=1e-12)

        xis = [xi_of_theta(t, area.xi_base) for t in [0.55] + thetas]
        assert all(b > a for a, b in zip(xis, xis[1:]))
        assert xis[-1] < area.xi_base
        assert area.xi_base - xis[-1] < 1e-4

    def test_feedback_drop_then_relaxation(self):
        # an observed unsafe event drops xi at once; quiet days drift it back up
        area = make_area(xi_base=0.5, k_decay=0.9, theta0=0.4)
        scenario = make_scenario(areas=(area,), obs_types=(make_obs_type(delta_neg=0.1),))
        theta = 0.4
        xi_before = xi_of_theta(theta, area.xi_base)
        theta = theta_step(theta, area, [1], 0, scenario)
        xi_after_feedback = xi_of_theta(theta, area.xi_base)
        assert xi_after_feedback < xi_before

        xis = [xi_after_feedback]
        for _ in range(30):
            theta = theta_step(theta, area, [0], 0, scenario)
            xis.append(xi_of_theta(theta, area.xi_base))
        assert all(b > a for a, b in zip(xis, xis[1:]))
        assert xis[-1] < area.xi_base
