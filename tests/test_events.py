import tracemalloc

import numpy as np
import pytest

import scalar_reference
from conftest import make_area, make_scenario
from safesim.events import (
    HURT_CHUNK,
    DegenerateHurtDistribution,
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


class Draws:
    """A stand-in generator for one area-day: poisson() hands out the counts
    (incidents, 0, 0) and random() the given (2, incidents) uniforms."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float).reshape(2, -1)
        self.counts = [self.uniforms.shape[1], 0, 0]

    def poisson(self, lam):
        return self.counts.pop(0)

    def random(self, shape):
        assert shape == self.uniforms.shape
        return self.uniforms


def as_lists(events) -> tuple:
    """DayEvents field by field, its levels as lists, as scalar_reference.step_events returns them."""
    return (*events[:3], list(events.ahl), list(events.phl))


def levels(hl_probs, uniforms) -> tuple[list[int], list[int]]:
    """step_events' (AHL, PHL) lists for incidents of one area with the given uniforms."""
    area = make_area(hl_probs=hl_probs)
    events = step_events(Draws(uniforms), area, 1.0, hl_sums(hl_probs).tolist())
    return list(events.ahl), list(events.phl)


def oracle_levels(hl_probs, uniforms) -> tuple[list[int], list[int]]:
    """The numpy table lookup's (AHL, PHL) for the same incidents."""
    uniforms = np.asarray(uniforms, dtype=float).reshape(2, -1)
    index = np.zeros(uniforms.shape[1], dtype=int)
    ahl, phl = scalar_reference.hurt_levels(hl_sums(hl_probs)[None], index, uniforms)
    return ahl.tolist(), phl.tolist()


def draw_ahl(rng, hl_probs, n: int) -> np.ndarray:
    """n AHLs through step_events, from the same uniforms as n scalar draws."""
    ahl, _ = levels(hl_probs, [rng.random(n), np.zeros(n)])
    return np.array(ahl)


def draw_phl(rng, hl_probs, ahl: int, n: int) -> np.ndarray:
    """n PHLs through step_events, each above an AHL fixed by a uniform inside its level."""
    u_ahl = (sum(hl_probs[:ahl]) + hl_probs[ahl] / 2) / sum(hl_probs)
    ahls, phls = levels(hl_probs, [np.full(n, u_ahl), rng.random(n)])
    assert set(ahls) == {ahl}
    return np.array(phls)


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
        assert ahl == [0, 1, 1, 1]
        assert phl == [0, 1, 1, 1]


class TestTableSamplerEquivalence:
    """step_events matches counts, then n scalar AHL draws, then n scalar PHL
    draws, per area: same numbers, same generator state. Its levels are the
    numpy table lookup's for the same uniforms."""

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
        sums = hl_sums(probs).tolist()
        for seed in (1, 2, 3):
            scalar_rng, table_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(300):
                expected = scalar_reference.step_events(scalar_rng, area, 0.9)
                assert as_lists(step_events(table_rng, area, 0.9, sums)) == expected
            assert table_rng.bit_generator.state == scalar_rng.bit_generator.state

    def test_each_area_maps_with_its_own_rows(self):
        # as the engine does: every area draws in turn, with its rows of
        # ScenarioArrays.hl_sums as lists
        areas = [
            make_area(f"A{i}", lambda_star=10.0, xi_base=0.9, alpha=0.1, hl_probs=probs)
            for i, probs in enumerate(self.DISTRIBUTIONS)
        ]
        sums = ScenarioArrays.of(make_scenario(areas=areas)).hl_sums.tolist()
        scalar_rng, table_rng = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(200):
            for area, rows in zip(areas, sums):
                expected = scalar_reference.step_events(scalar_rng, area, 0.9)
                assert as_lists(step_events(table_rng, area, 0.9, rows)) == expected
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
                    oracle_levels(probs, uniforms)
                with pytest.raises(DegenerateHurtDistribution):
                    levels(probs, uniforms)
                continue
            assert oracle_levels(probs, uniforms) == expected
            assert levels(probs, uniforms) == expected

    def test_chunked_mapping_matches_one_pass(self, monkeypatch):
        # a day longer than HURT_CHUNK is mapped in pieces, to the same levels
        uniforms = np.random.default_rng(4).random((2, 1000))
        one_pass = [levels(probs, uniforms) for probs in self.DISTRIBUTIONS]
        assert one_pass == [oracle_levels(probs, uniforms) for probs in self.DISTRIBUTIONS]
        monkeypatch.setattr("safesim.events.HURT_CHUNK", 7)
        assert [levels(probs, uniforms) for probs in self.DISTRIBUTIONS] == one_pass

    def test_degenerate_raise_matches(self):
        # A uniform of 1, outside the generator's [0, 1), is the only way left
        # to reach a level without mass.
        probs = (0.5, 0.5 - 1e-10, 0, 0, 0, 0)
        with pytest.raises(DegenerateHurtDistribution):
            self.scalar(Uniforms([0.3, 1.0, 0.1, 0.1]), probs, 2)
        with pytest.raises(DegenerateHurtDistribution, match=">= 5"):
            oracle_levels(probs, [[0.3, 1.0], [0.1, 0.1]])
        with pytest.raises(DegenerateHurtDistribution, match=">= 5"):
            levels(probs, [[0.3, 1.0], [0.1, 0.1]])


def day(rng, area, xi):
    """step_events for one area-day, with the area's running sums as lists."""
    return step_events(rng, area, xi, hl_sums(area.hl_probs).tolist())


class TestStepEvents:
    def test_safest_state_yields_no_unsafe_activity(self):
        rng = np.random.default_rng(0)
        area = make_area()
        xi = xi_of_theta(1.0, area.xi_base)
        for _ in range(200):
            events = day(rng, area, xi)
            assert events.n_e == 0
            assert events.n_neg == 0

    def test_phl_never_below_ahl(self):
        rng = np.random.default_rng(7)
        area = make_area(lambda_star=20.0, xi_base=0.9, alpha=0.5)
        xi = xi_of_theta(0.0, area.xi_base)
        for _ in range(2_000):
            events = day(rng, area, xi)
            assert all(p >= a for a, p in zip(events.ahl, events.phl))

    def test_counts_are_python_ints(self):
        rng = np.random.default_rng(4)
        area = make_area(lambda_star=20.0, xi_base=0.9, alpha=0.1)
        days = [day(rng, area, 0.9) for _ in range(50)]
        assert {events.n_e > 0 for events in days} == {False, True}
        for events in days:
            assert [type(n) for n in events[:3]] == [int] * 3

    def test_incident_count_matches_length(self):
        rng = np.random.default_rng(8)
        area = make_area(lambda_star=20.0, xi_base=0.9, alpha=0.5)
        xi = xi_of_theta(0.2, area.xi_base)
        for _ in range(200):
            events = day(rng, area, xi)
            assert len(events.ahl) == len(events.phl) == events.n_e

    def test_mean_incidents_match_analytic_at_fixed_theta(self):
        # oracle: analytic mean alpha * xi * lambda at theta = 0.3
        rng = np.random.default_rng(99)
        area = make_area(lambda_star=17.0, xi_base=0.55, alpha=0.04, theta0=0.3)
        xi = xi_of_theta(0.3, area.xi_base)
        mean_analytic = area.alpha * xi * area.lambda_star
        total = sum(day(rng, area, xi).n_e for _ in range(100_000))
        assert total / 100_000 == pytest.approx(mean_analytic, rel=0.01)

    def test_bit_reproducible_under_fixed_seed(self):
        area = make_area()
        xi = xi_of_theta(0.4, area.xi_base)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([day(rng, area, xi) for _ in range(50)])
        assert runs[0] == runs[1]

    def test_many_incidents_are_mapped_a_chunk_at_a_time(self):
        # alpha = xi = 1 makes every task an incident. Beyond the levels it
        # returns, the day holds its (2, n_e) uniforms (16 B an incident) and
        # one chunk of them as Python floats. Turning all of them into floats
        # at once would take 64 B an incident for the two lists alone.
        area = make_area(lambda_star=4.1 * HURT_CHUNK, xi_base=1.0, alpha=1.0, hl_probs=AREA_C_HL)
        rng = np.random.default_rng(5)
        sums = hl_sums(area.hl_probs).tolist()
        tracemalloc.start()
        try:
            events = step_events(rng, area, 1.0, sums)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert events.n_e >= 4 * HURT_CHUNK
        assert peak - kept < 64 * events.n_e


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
