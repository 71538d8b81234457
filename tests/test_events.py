import numpy as np
import pytest

from conftest import make_area
from safesim.events import (
    DegenerateHurtDistribution,
    sample_ahl,
    sample_event_counts,
    sample_phl,
    step_events,
    xi_of_theta,
)
from safesim.intervention import decay_theta
from stat_utils import two_sample_chisquare

AREA_A_HL = (0.50, 0.35, 0.13, 0.02, 0.0, 0.0)
AREA_C_HL = (0.30, 0.06, 0.35, 0.28, 0.01, 0.0)


class TestXiOfTheta:
    def test_reference_value(self):
        assert xi_of_theta(0.55, 0.63) == pytest.approx(0.2835, abs=1e-15)

    def test_safest_state_gives_zero(self):
        for xi_base in (0.0, 0.3, 1.0):
            assert xi_of_theta(1.0, xi_base) == 0.0

    def test_worst_state_equals_base(self):
        assert xi_of_theta(0.0, 0.45) == 0.45

    def test_affine_decreasing_in_theta(self):
        xi_base = 0.7
        thetas = np.linspace(0.0, 1.0, 11)
        values = [xi_of_theta(t, xi_base) for t in thetas]
        assert all(a > b for a, b in zip(values, values[1:]))
        # affine: equal steps in theta give equal steps in xi
        diffs = np.diff(values)
        assert np.allclose(diffs, diffs[0], atol=1e-12)


class TestDecayTheta:
    def test_reference_value(self):
        assert decay_theta(0.55, 0.95) == pytest.approx(0.5225, abs=1e-15)

    def test_no_forgetting(self):
        assert decay_theta(0.73, 1.0) == 0.73

    def test_instant_complacency(self):
        assert decay_theta(0.73, 0.0) == 0.0

    def test_iterated_decay_is_geometric(self):
        theta, k = 0.8, 0.93
        value = theta
        for n in range(1, 50):
            value = decay_theta(value, k)
            assert value == pytest.approx(theta * k**n, rel=1e-12)


class TestSampleEventCounts:
    def test_zero_xi_gives_no_unsafe_events(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_e, n_neg, n_pos = sample_event_counts(rng, 17.0, 0.0, 0.04)
            assert n_e == 0
            assert n_neg == 0

    def test_mean_incident_count_matches_analytic(self):
        # oracle: analytic Poisson mean alpha * xi * lambda = 0.04 * 0.55 * 17 = 0.374
        rng = np.random.default_rng(12345)
        total = 0
        for _ in range(1_000_000):
            n_e, _, _ = sample_event_counts(rng, 17.0, 0.55, 0.04)
            total += n_e
        assert total / 1_000_000 == pytest.approx(0.374, abs=0.002)

    def test_all_tasks_are_incidents_when_alpha_and_xi_are_one(self):
        rng = np.random.default_rng(1)
        lam = 6.0
        n_es = []
        for _ in range(20_000):
            n_e, n_neg, n_pos = sample_event_counts(rng, lam, 1.0, 1.0)
            assert n_neg == 0
            assert n_pos == 0
            n_es.append(n_e)
        assert np.mean(n_es) == pytest.approx(lam, rel=0.02)


class TestSampleAhl:
    def test_degenerate_low(self):
        rng = np.random.default_rng(0)
        assert all(sample_ahl(rng, (1, 0, 0, 0, 0, 0)) == 0 for _ in range(100))

    def test_degenerate_high(self):
        rng = np.random.default_rng(0)
        assert all(sample_ahl(rng, (0, 0, 0, 0, 0, 1)) == 5 for _ in range(100))

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(42)
        counts = np.zeros(6, dtype=int)
        n = 1_000_000
        for _ in range(n):
            counts[sample_ahl(rng, AREA_A_HL)] += 1
        assert np.max(np.abs(counts / n - np.array(AREA_A_HL))) < 0.002


class TestSamplePhl:
    def test_top_level_forced(self):
        rng = np.random.default_rng(0)
        area_f_hl = (0.58, 0.06, 0.08, 0.18, 0.08, 0.02)
        assert all(sample_phl(rng, area_f_hl, 5) == 5 for _ in range(20))
        assert all(sample_phl(rng, (0.5, 0.5, 0, 0, 0, 0), 1) == 1 for _ in range(20))

    def test_untouched_prefix_renormalization(self):
        rng = np.random.default_rng(3)
        draws = [sample_phl(rng, (0.5, 0.5, 0, 0, 0, 0), 0) for _ in range(50_000)]
        freq = np.bincount(draws, minlength=6) / len(draws)
        assert freq[0] == pytest.approx(0.5, abs=0.01)
        assert freq[1] == pytest.approx(0.5, abs=0.01)

    def test_truncated_tail_renormalization(self):
        # oracle: hand renormalization of (0.35, 0.28, 0.01) by 0.64
        rng = np.random.default_rng(4)
        draws = [sample_phl(rng, AREA_C_HL, 2) for _ in range(200_000)]
        freq = np.bincount(draws, minlength=6) / len(draws)
        assert freq[2] == pytest.approx(0.546875, abs=0.005)
        assert freq[3] == pytest.approx(0.4375, abs=0.005)
        assert freq[4] == pytest.approx(0.015625, abs=0.002)
        assert freq[0] == freq[1] == freq[5] == 0.0

    def test_no_mass_above_ahl_raises(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DegenerateHurtDistribution):
            sample_phl(rng, (0.5, 0.5, 0, 0, 0, 0), 2)


class TestStepEvents:
    def test_safest_state_yields_no_unsafe_activity(self):
        rng = np.random.default_rng(0)
        area = make_area()
        xi = xi_of_theta(1.0, area.xi_base)
        for _ in range(200):
            events = step_events(rng, area, xi)
            assert events.n_e == 0
            assert events.n_neg == 0

    def test_phl_never_below_ahl(self):
        rng = np.random.default_rng(7)
        area = make_area(lambda_star=20.0, xi_base=0.9, alpha=0.5)
        xi = xi_of_theta(0.0, area.xi_base)
        for _ in range(2_000):
            for ahl, phl in step_events(rng, area, xi).incidents:
                assert phl >= ahl

    def test_incident_count_matches_length(self):
        rng = np.random.default_rng(8)
        area = make_area(lambda_star=20.0, xi_base=0.9, alpha=0.5)
        xi = xi_of_theta(0.2, area.xi_base)
        for _ in range(200):
            events = step_events(rng, area, xi)
            assert len(events.incidents) == events.n_e

    def test_mean_incidents_match_analytic_at_fixed_theta(self):
        # oracle: analytic mean alpha * xi * lambda at theta = 0.3
        rng = np.random.default_rng(99)
        area = make_area(lambda_star=17.0, xi_base=0.55, alpha=0.04, theta0=0.3)
        xi = xi_of_theta(0.3, area.xi_base)
        mean_analytic = area.alpha * xi * area.lambda_star
        total = sum(step_events(rng, area, xi).n_e for _ in range(100_000))
        assert total / 100_000 == pytest.approx(mean_analytic, rel=0.01)

    def test_bit_reproducible_under_fixed_seed(self):
        area = make_area()
        xi = xi_of_theta(0.4, area.xi_base)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([step_events(rng, area, xi) for _ in range(50)])
        assert runs[0] == runs[1]


class TestSamplerEquivalence:
    """The two-stage multinomial split and the three-Poisson form agree."""

    @staticmethod
    def multinomial_split(rng, lambda_star, xi, alpha):
        # oracle: single task-count Poisson thinned by a 3-way multinomial
        n_task = rng.poisson(lambda_star)
        n_e, n_neg, n_pos = rng.multinomial(
            n_task, (alpha * xi, (1.0 - alpha) * xi, 1.0 - xi)
        )
        return int(n_e), int(n_neg), int(n_pos)

    def test_joint_distributions_indistinguishable(self):
        lambda_star, xi, alpha = 17.0, 0.55, 0.04
        n = 100_000
        rng = np.random.default_rng(2024)
        direct = [sample_event_counts(rng, lambda_star, xi, alpha) for _ in range(n)]
        split = [self.multinomial_split(rng, lambda_star, xi, alpha) for _ in range(n)]
        _, p_value, n_cells = two_sample_chisquare(direct, split)
        assert n_cells > 20
        assert p_value >= 0.001
