import numpy as np
import pytest

import scalar_reference
from conftest import make_area, make_scenario
from safesim.events import (
    DegenerateHurtDistribution,
    hurt_level,
    hurt_levels,
    sample_event_counts,
    step_events,
    xi_of_theta,
)
from safesim.intervention import step_theta
from safesim.scenario import ScenarioArrays
from stat_utils import two_sample_chisquare

AREA_A_HL = (0.50, 0.35, 0.13, 0.02, 0.0, 0.0)
AREA_C_HL = (0.30, 0.06, 0.35, 0.28, 0.01, 0.0)


def hl_sums(hl_probs) -> np.ndarray:
    """One area's ScenarioArrays.hl_sums."""
    scenario = make_scenario(areas=(make_area(hl_probs=hl_probs),))
    return ScenarioArrays.of(scenario).hl_sums[0]


def levels(hl_probs, uniforms) -> tuple[np.ndarray, np.ndarray]:
    """hurt_levels for incidents of one area with the given severity uniforms."""
    uniforms = np.asarray(uniforms, dtype=float)
    return hurt_levels(hl_sums(hl_probs)[None], np.zeros(uniforms.shape[1], dtype=int), uniforms)


def draw_ahl(rng, hl_probs, n: int) -> np.ndarray:
    """n AHLs through the sampler's lookup, from the same uniforms as n scalar draws."""
    return hurt_level(rng.random(n), hl_sums(hl_probs)[0])


def draw_phl(rng, hl_probs, ahl: int, n: int) -> np.ndarray:
    """n PHLs above a fixed AHL, as hurt_levels maps PHL uniforms."""
    rows = hl_sums(hl_probs)[np.full(n, ahl)]
    return hurt_level(rng.random(n) * rows[:, -1], rows)


class Uniforms:
    """A stand-in generator whose random() hands out given uniforms in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


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
        assert step_theta(0.55, 0.0, 0.95) == pytest.approx(0.5225, abs=1e-15)

    def test_no_forgetting(self):
        assert step_theta(0.73, 0.0, 1.0) == 0.73

    def test_instant_complacency(self):
        assert step_theta(0.73, 0.0, 0.0) == 0.0

    def test_iterated_decay_is_geometric(self):
        theta, k = 0.8, 0.93
        value = theta
        for n in range(1, 50):
            value = step_theta(value, 0.0, k)
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

    @pytest.mark.parametrize("xi", [0.0, 0.55, 1.0])
    def test_counts_are_python_ints(self, xi):
        # the engine tests and sums them in Python, the benchmark's tracer too
        rng = np.random.default_rng(3)
        for _ in range(50):
            assert [type(n) for n in sample_event_counts(rng, 17.0, xi, 0.3)] == [int] * 3


class TestSampleAhl:
    def test_degenerate_low(self):
        rng = np.random.default_rng(0)
        assert np.all(draw_ahl(rng, (1, 0, 0, 0, 0, 0), 100) == 0)

    def test_degenerate_high(self):
        rng = np.random.default_rng(0)
        assert np.all(draw_ahl(rng, (0, 0, 0, 0, 0, 1), 100) == 5)

    def test_frequencies_match_probabilities(self):
        rng = np.random.default_rng(42)
        n = 1_000_000
        counts = np.bincount(draw_ahl(rng, AREA_A_HL, n), minlength=6)
        assert np.max(np.abs(counts / n - np.array(AREA_A_HL))) < 0.002


class TestSamplePhl:
    def test_top_level_forced(self):
        rng = np.random.default_rng(0)
        area_f_hl = (0.58, 0.06, 0.08, 0.18, 0.08, 0.02)
        assert np.all(draw_phl(rng, area_f_hl, 5, 20) == 5)
        assert np.all(draw_phl(rng, (0.5, 0.5, 0, 0, 0, 0), 1, 20) == 1)

    def test_untouched_prefix_renormalization(self):
        rng = np.random.default_rng(3)
        draws = draw_phl(rng, (0.5, 0.5, 0, 0, 0, 0), 0, 50_000)
        freq = np.bincount(draws, minlength=6) / len(draws)
        assert freq[0] == pytest.approx(0.5, abs=0.01)
        assert freq[1] == pytest.approx(0.5, abs=0.01)

    def test_truncated_tail_renormalization(self):
        # oracle: hand renormalization of (0.35, 0.28, 0.01) by 0.64
        rng = np.random.default_rng(4)
        draws = draw_phl(rng, AREA_C_HL, 2, 200_000)
        freq = np.bincount(draws, minlength=6) / len(draws)
        assert freq[2] == pytest.approx(0.546875, abs=0.005)
        assert freq[3] == pytest.approx(0.4375, abs=0.005)
        assert freq[4] == pytest.approx(0.015625, abs=0.002)
        assert freq[0] == freq[1] == freq[5] == 0.0

    def test_missing_mass_goes_to_no_level(self):
        # The probabilities sum to 1 - 1e-10. Uniforms above that total, up
        # to the largest one below 1, are mapped onto it: no level 5, which
        # has no mass, and no raise.
        probs = (0.5, 0.5 - 1e-10, 0, 0, 0, 0)
        top = np.nextafter(1.0, 0.0)
        ahl, phl = levels(probs, [[0.2, 1 - 1e-10, 1 - 5e-11, top], [0.5, 0.5, top, top]])
        assert ahl.tolist() == [0, 1, 1, 1]
        assert phl.tolist() == [0, 1, 1, 1]


class TestTableSamplerEquivalence:
    """step_events then hurt_levels match counts, then n scalar AHL draws, then
    n scalar PHL draws, per area: same numbers, same generator state."""

    DISTRIBUTIONS = (
        AREA_A_HL,  # no mass at levels 4 and 5
        AREA_C_HL,
        (0.3, 0.0, 0.4, 0.0, 0.3, 0.0),  # zero mass between levels with mass
        (1, 0, 0, 0, 0, 0),
        (0, 0, 0, 0, 0, 1),
        (0.2, 0.3, 0.1, 0.1, 0.1, 0.2 - 1e-10),  # sums to 1 - 1e-10
        tuple(np.random.default_rng(0).dirichlet(np.ones(6))),
    )

    @staticmethod
    def scalar(rng, probs, n):
        ahl = [scalar_reference.sample_ahl(rng, probs) for _ in range(n)]
        return ahl, [scalar_reference.sample_phl(rng, probs, a) for a in ahl]

    @pytest.mark.parametrize("probs", DISTRIBUTIONS)
    def test_same_events_and_generator_state(self, probs):
        # a mean of 0.9 incidents a day gives days with 0, 1 and several
        area = make_area(lambda_star=10.0, xi_base=0.9, alpha=0.1, hl_probs=probs)
        sums = hl_sums(probs)[None]
        for seed in (1, 2, 3):
            scalar_rng, table_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(300):
                n_e, n_neg, n_pos, ahl, phl = scalar_reference.step_events(scalar_rng, area, 0.9)
                events = step_events(table_rng, area, 0.9)
                assert events[:3] == (n_e, n_neg, n_pos)
                got = hurt_levels(sums, np.zeros(n_e, dtype=int), events.uniforms)
                assert (got[0].tolist(), got[1].tolist()) == (ahl, phl)
            assert table_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_one_mapping_for_all_areas_of_a_day(self):
        # as the engine does: every area draws in turn, then one lookup
        areas = [
            make_area(f"A{i}", lambda_star=10.0, xi_base=0.9, alpha=0.1, hl_probs=probs)
            for i, probs in enumerate(self.DISTRIBUTIONS)
        ]
        sums = ScenarioArrays.of(make_scenario(areas=areas)).hl_sums
        scalar_rng, table_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(200):
            expected = [
                (i, a, p)
                for i, area in enumerate(areas)
                for a, p in zip(*scalar_reference.step_events(scalar_rng, area, 0.9)[3:])
            ]
            events = [step_events(table_rng, area, 0.9) for area in areas]
            index = np.repeat(np.arange(len(areas)), [e.n_e for e in events])
            uniforms = np.concatenate([e.uniforms for e in events], axis=1)
            ahl, phl = hurt_levels(sums, index, uniforms)
            assert list(zip(index.tolist(), ahl.tolist(), phl.tolist())) == expected
        assert table_rng.bit_generator.state == scalar_rng.bit_generator.state

    @pytest.mark.parametrize("probs", DISTRIBUTIONS)
    def test_same_levels_on_boundaries(self, probs):
        # uniforms exactly on each running sum, next to it, and at the ends
        cum = np.cumsum(probs)
        edges = np.concatenate([cum, np.nextafter(cum, 0), np.nextafter(cum, 1), [0.0, 1 - 5e-11]])
        u = np.clip(edges, 0.0, np.nextafter(1.0, 0)).tolist()
        for phl_u in (0.0, 0.5, np.nextafter(1.0, 0)):
            uniforms = [u, [phl_u] * len(u)]
            try:
                expected = self.scalar(Uniforms(u + uniforms[1]), probs, len(u))
            except DegenerateHurtDistribution:
                with pytest.raises(DegenerateHurtDistribution):
                    levels(probs, uniforms)
                continue
            ahl, phl = levels(probs, uniforms)
            assert (ahl.tolist(), phl.tolist()) == expected

    def test_chunked_mapping_matches_one_pass(self, monkeypatch):
        # a day longer than HURT_CHUNK is mapped in pieces, to the same levels
        areas = [make_area(f"A{i}", hl_probs=p) for i, p in enumerate(self.DISTRIBUTIONS)]
        sums = ScenarioArrays.of(make_scenario(areas=areas)).hl_sums
        rng = np.random.default_rng(4)
        index = rng.integers(len(self.DISTRIBUTIONS), size=1000)
        uniforms = rng.random((2, 1000))
        one_pass = hurt_levels(sums, index, uniforms)
        monkeypatch.setattr("safesim.events.HURT_CHUNK", 7)
        chunked = hurt_levels(sums, index, uniforms)
        assert all(np.array_equal(a, b) for a, b in zip(one_pass, chunked))

    def test_degenerate_raise_matches(self):
        # A uniform of 1, outside the generator's [0, 1), is the only way left
        # to reach a level without mass.
        probs = (0.5, 0.5 - 1e-10, 0, 0, 0, 0)
        with pytest.raises(DegenerateHurtDistribution):
            self.scalar(Uniforms([0.3, 1.0, 0.1, 0.1]), probs, 2)
        with pytest.raises(DegenerateHurtDistribution, match=">= 5"):
            levels(probs, [[0.3, 1.0], [0.1, 0.1]])


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
            events = step_events(rng, area, xi)
            ahl, phl = levels(area.hl_probs, events.uniforms)
            assert np.all(phl >= ahl)

    def test_counts_are_python_ints(self):
        rng = np.random.default_rng(4)
        area = make_area(lambda_star=20.0, xi_base=0.9, alpha=0.1)
        days = [step_events(rng, area, 0.9) for _ in range(50)]
        assert {events.n_e > 0 for events in days} == {False, True}
        for events in days:
            assert [type(n) for n in events[:3]] == [int] * 3

    def test_incident_count_matches_length(self):
        rng = np.random.default_rng(8)
        area = make_area(lambda_star=20.0, xi_base=0.9, alpha=0.5)
        xi = xi_of_theta(0.2, area.xi_base)
        for _ in range(200):
            events = step_events(rng, area, xi)
            assert events.uniforms.shape == (2, events.n_e)

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
        for a, b in zip(*runs):
            assert a[:3] == b[:3]
            assert np.array_equal(a.uniforms, b.uniforms)


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
