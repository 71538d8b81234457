import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare, hypergeom, nchypergeom_wallenius

import scalar_reference
from conftest import make_area, make_obs_type, make_scenario
from stat_utils import two_sample_chisquare
from safesim.observation import (
    ProportionError,
    allocate_observers,
    check_proportions,
    observer_draws,
    proportions_by_type,
    select_observed,
    step_observations,
)
from safesim.scenario import PROB_TOL


def observe(rng, scenario, activity, decision):
    """step_observations on one (n_pos, n_neg) activity pair per area, into
    zero counts and a NaN proportions row shaped (types, areas)."""
    n_pos, n_neg = (list(counts) for counts in zip(*activity))
    shape = (len(scenario.obs_types), scenario.n_areas)
    out = SimpleNamespace(
        obs_pos=np.zeros(shape, dtype=int),
        obs_neg=np.zeros(shape, dtype=int),
        proportions=np.full(shape, np.nan),
    )
    step_observations(decision, rng, scenario, n_pos, n_neg, out.proportions, out.obs_pos, out.obs_neg)
    return out


class TestAllocateObservers:
    def test_degenerate_proportions(self):
        rng = np.random.default_rng(0)
        s = np.array([1.0, 0.0, 0.0, 0.0])
        for m in (1, 3, 10):
            assert np.asarray(allocate_observers(rng.random(m), s)).tolist() == [m, 0, 0, 0]

    def test_zero_observers(self):
        rng = np.random.default_rng(0)
        assert np.asarray(allocate_observers(rng.random(0), np.full(7, 1 / 7))).tolist() == [0] * 7

    def test_total_preserved(self):
        rng = np.random.default_rng(1)
        s = np.array([0.2, 0.5, 0.3])
        for _ in range(200):
            assert np.asarray(allocate_observers(rng.random(5), s)).sum() == 5

    def test_uniform_mean_allocation(self):
        # oracle: multinomial mean m * s_i = 2/7 per area
        rng = np.random.default_rng(11)
        s = np.full(7, 1 / 7)
        total = np.zeros(7)
        n = 100_000
        for _ in range(n):
            total += np.asarray(allocate_observers(rng.random(2), s))
        assert np.max(np.abs(total / n - 2 / 7)) < 0.01


    def test_top_uniform_never_lands_on_an_empty_area(self):
        # 1 - 2**-53 is the largest uniform below 1; the proportions sum to
        # slightly less than 1 and end with areas of proportion 0.
        u = np.array([1 - 2**-53, 0.0, 0.5, 0.25, 1 - 2**-53])
        for s in (
            np.array([0.0, 0.5, 0.0, 0.5 - 1e-10, 0.0, 0.0]),
            np.array([0.3, 0.0, 0.7 + 1e-10]),
            np.array([0.0, 0.0, 1.0]),
        ):
            q = np.asarray(allocate_observers(u, s))
            assert len(q) == len(s) and q.sum() == len(u)
            assert np.all(q[s == 0.0] == 0)

    def test_matches_multinomial_oracle(self):
        # two-sample test against the multinomial draw the simulator used before
        s = np.array([0.1, 0.0, 0.25, 0.4, 0.25])
        rng, oracle_rng = np.random.default_rng(12), np.random.default_rng(13)
        n = 20_000
        ours = [tuple(np.asarray(allocate_observers(rng.random(4), s))) for _ in range(n)]
        oracle = [tuple(scalar_reference.allocate_observers_multinomial(oracle_rng, 4, s)) for _ in range(n)]
        _, p_value, n_cells = two_sample_chisquare(ours, oracle)
        assert n_cells > 20
        assert p_value >= 0.001


@st.composite
def proportion_vectors(draw, n_areas=None, scales=(1.0, 1.0 - PROB_TOL, 1.0 + PROB_TOL)):
    """Proportions with zero entries, summing to 1 times one of scales (by
    default 1 or 1 -/+ PROB_TOL); 1 to 24 of them unless n_areas is given."""
    low, high = (1, 24) if n_areas is None else (n_areas, n_areas)
    weight = st.one_of(st.just(0.0), st.floats(1e-6, 1.0))
    weights = draw(st.lists(weight, min_size=low, max_size=high))
    if not any(weights):
        weights[draw(st.integers(0, len(weights) - 1))] = 1.0
    s = np.array(weights) / sum(weights)
    return s * draw(st.sampled_from(scales))


class TestAllocationMatchesNumpyOracle:
    @settings(deadline=None, max_examples=300)
    @given(
        proportion_vectors(),
        st.lists(
            st.one_of(st.sampled_from([0.0, 1 - 2**-53]), st.floats(0.0, 1.0, exclude_max=True)),
            max_size=50,
        ),
    )
    def test_count_for_count(self, s, uniforms):
        expected = scalar_reference.allocate_observers_numpy(np.array(uniforms), s).tolist()
        assert allocate_observers(np.array(uniforms), s) == expected
        assert allocate_observers(uniforms, s.tolist()) == expected


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
        assert select_observed(rng.random(7), 3, 4, 7, 100.0, 100.0) == (3, 4)
        assert select_observed(rng.random(50), 3, 4, 50, 100.0, 1.0) == (3, 4)

    def test_empty_classes(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            assert select_observed(rng.random(4), 0, 10, 4, 100.0, 100.0)[0] == 0
            assert select_observed(rng.random(4), 10, 0, 4, 100.0, 100.0)[1] == 0

    def test_no_events_or_no_capacity(self):
        rng = np.random.default_rng(0)
        assert select_observed(rng.random(5), 0, 0, 5, 1.0, 1.0) == (0, 0)
        assert select_observed(rng.random(0), 5, 5, 0, 1.0, 1.0) == (0, 0)

    def test_count_equals_capacity_under_scarcity(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            pos, neg = select_observed(rng.random(10), 12, 9, 10, 50.0, 150.0)
            assert pos + neg == 10
            assert pos <= 12 and neg <= 9

    def test_bias_ratio_matches_brute_force_oracle(self):
        # eta_neg = 3 * eta_pos should record about 3x as many unsafe events
        rng = np.random.default_rng(20)
        pos = neg = 0
        for _ in range(10_000):
            p, n = select_observed(rng.random(10), 50, 50, 10, 100.0, 300.0)
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
            p, n = select_observed(rng.random(8), 30, 10, 8, 120.0, 120.0)
            pos += p
            neg += n
        assert neg / (pos + neg) == pytest.approx(0.25, rel=0.02)


def urn_counts(seed, n, n_pos, n_neg, capacity, eta_pos, eta_neg) -> np.ndarray:
    """Unsafe counts recorded by n independent cells."""
    rng = np.random.default_rng(seed)
    u = rng.random((n, capacity)).tolist()
    return np.array([select_observed(row, n_pos, n_neg, capacity, eta_pos, eta_neg)[1] for row in u])


def pmf_chisquare_p(counts, pmf) -> float:
    """Goodness of fit of observed counts to an exact pmf over 0..len(pmf)-1;
    outcomes expected fewer than 5 times are pooled into one cell."""
    observed = np.bincount(counts, minlength=len(pmf))
    assert len(observed) == len(pmf)
    expected = pmf / pmf.sum() * len(counts)
    small = expected < 5
    obs = np.append(observed[~small], observed[small].sum())
    exp = np.append(expected[~small], expected[small].sum())
    if exp[-1] == 0:
        obs, exp = obs[:-1], exp[:-1]
    return float(chisquare(obs, exp).pvalue)


class TestUrnLaw:
    """The unsafe count of a cell is Wallenius' noncentral hypergeometric,
    and the central hypergeometric when eta_pos == eta_neg."""

    # (n_pos, n_neg, capacity, eta_pos, eta_neg)
    WALLENIUS_CELLS = [
        (20, 10, 5, 150.0, 100.0),
        (50, 50, 10, 100.0, 300.0),
        (12, 9, 10, 50.0, 150.0),
        (40, 8, 6, 1.0, 0.2),
        (25, 30, 12, 0.2, 3.0),
    ]
    EQUAL_CELLS = [
        (20, 10, 5, 1e-3, 1e-3),
        (30, 10, 8, 120.0, 120.0),
        (5, 40, 7, 1.0, 1.0),
    ]

    @pytest.mark.parametrize("seed,cell", list(enumerate(WALLENIUS_CELLS)))
    def test_wallenius_pmf(self, seed, cell):
        n_pos, n_neg, capacity, eta_pos, eta_neg = cell
        counts = urn_counts(100 + seed, 50_000, *cell)
        law = nchypergeom_wallenius(n_pos + n_neg, n_neg, capacity, eta_neg / eta_pos)
        assert pmf_chisquare_p(counts, law.pmf(np.arange(capacity + 1))) >= 0.001

    @pytest.mark.parametrize("seed,cell", list(enumerate(EQUAL_CELLS)))
    def test_equal_weights_hypergeometric_pmf(self, seed, cell):
        n_pos, n_neg, capacity, _, _ = cell
        counts = urn_counts(200 + seed, 50_000, *cell)
        law = hypergeom(n_pos + n_neg, n_neg, capacity)
        assert pmf_chisquare_p(counts, law.pmf(np.arange(capacity + 1))) >= 0.001

    def test_tiny_equal_weights_unbiased(self):
        # 20 safe, 10 unsafe, capacity 5: the hypergeometric mean is 5/3
        counts = urn_counts(300, 100_000, 20, 10, 5, 1e-3, 1e-3)
        assert abs(counts.mean() - 5 / 3) < 0.01

    @pytest.mark.parametrize("seed,cell", list(enumerate(WALLENIUS_CELLS[:3] + EQUAL_CELLS[1:])))
    def test_matches_dirichlet_race_oracle(self, seed, cell):
        # the sampler the simulator used before; it agrees wherever eta >= 0.2
        n = 20_000
        ours = urn_counts(400 + seed, n, *cell).tolist()
        oracle_rng = np.random.default_rng(500 + seed)
        oracle = [scalar_reference.select_observed_dirichlet(oracle_rng, *cell)[1] for _ in range(n)]
        _, p_value, _ = two_sample_chisquare(ours, oracle)
        assert p_value >= 0.001

    @settings(deadline=None)
    @given(
        st.integers(0, 60),
        st.integers(0, 60),
        st.integers(0, 80),
        st.floats(1e-3, 1e3),
        st.floats(1e-3, 1e3),
        st.randoms(use_true_random=False),
    )
    def test_counts_within_pools_and_capacity(self, n_pos, n_neg, capacity, eta_pos, eta_neg, random):
        # eta ratios from 1e-6 to 1e6
        u = [random.random() for _ in range(capacity)]
        pos, neg = select_observed(u, n_pos, n_neg, capacity, eta_pos, eta_neg)
        assert 0 <= pos <= n_pos and 0 <= neg <= n_neg
        assert pos + neg == min(capacity, n_pos + n_neg)
        cell = (n_pos, n_neg, capacity, eta_pos, eta_neg)
        assert (pos, neg) == scalar_reference.select_observed_by_pick_index(u, *cell)

    def test_short_uniforms_rejected(self):
        with pytest.raises(ValueError, match="needs 5 uniforms"):
            select_observed([0.5] * 4, 10, 10, 5, 1.0, 1.0)


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

    def test_uniforms_laid_out_per_type_then_per_area(self):
        # per type: m allocation uniforms, then rho * m urn uniforms sliced
        # over areas in area order by rho * q
        areas = (make_area("A1"), make_area("A2"), make_area("A3"))
        types = (
            make_obs_type("T1", m=3, rho=2, eta_pos=1.0, eta_neg=5.0),
            make_obs_type("T2", m=4, rho=3, eta_pos=2.0, eta_neg=1.0),
        )
        scenario = make_scenario(areas=areas, obs_types=types)
        evs = [(9, 4), (0, 0), (12, 7)]
        decision = {"T1": np.array([0.5, 0.2, 0.3]), "T2": np.array([0.1, 0.4, 0.5])}
        rng, twin = np.random.default_rng(41), np.random.default_rng(41)
        for _ in range(50):
            out = observe(rng, scenario, evs, decision)
            obs_pos, obs_neg = out.obs_pos, out.obs_neg
            u = twin.random(observer_draws(scenario))
            start = 0
            for t_idx, obs in enumerate(types):
                q = np.asarray(allocate_observers(u[start : start + obs.m], decision[obs.id]))
                urn = u[start + obs.m : start + obs.m * (1 + obs.rho)]
                start += obs.m * (1 + obs.rho)
                edges = np.concatenate([[0], np.cumsum(obs.rho * q)])
                for a_idx, (n_pos, n_neg) in enumerate(evs):
                    cell = urn[edges[a_idx] : edges[a_idx + 1]]
                    expected = select_observed(cell, n_pos, n_neg, len(cell), obs.eta_pos, obs.eta_neg)
                    got = (obs_pos[t_idx, a_idx], obs_neg[t_idx, a_idx])
                    assert got == expected

    def test_invalid_proportions_rejected(self):
        scenario = self.scenario_3x2()
        rng = np.random.default_rng(0)
        bad = {t.id: np.array([0.7, 0.7]) for t in scenario.obs_types}
        with pytest.raises(ProportionError, match="sum to 1"):
            observe(rng, scenario, [(1, 1), (1, 1)], bad)

    def test_missing_type_rejected_by_name(self):
        scenario = self.scenario_3x2()
        decision = {"WSO": np.array([0.5, 0.5]), "BPO": np.array([0.5, 0.5])}
        with pytest.raises(ProportionError, match="observation type 'SAO'"):
            proportions_by_type(decision, scenario)

    def test_each_distinct_vector_checked(self):
        # one valid vector shared by two types, a bad one for the third
        scenario = self.scenario_3x2()
        rng = np.random.default_rng(0)
        good = np.array([0.5, 0.5])
        decision = {"WSO": good, "SAO": good, "BPO": np.array([0.7, 0.7])}
        with pytest.raises(ProportionError, match="sum to 1"):
            observe(rng, scenario, [(1, 1), (1, 1)], decision)

    @pytest.mark.parametrize(
        "decision,message",
        [
            ([0.5, 0.5], "got list"),
            ({"WSO": [0.5, 0.5], "BPO": [0.5, 0.5]}, "observation type 'SAO'"),
            ({"WSO": [0.5, 0.5], "SAO": [0.5, 0.5], "BPO": [0.7, 0.7]}, "sum to 1"),
            ({"WSO": [0.5, 0.5], "SAO": [0.5, 0.5], "BPO": [0.5, 0.5], "TYPO": [0.5, 0.5]}, "type 'TYPO'"),
        ],
        ids=["bare-vector", "missing-type", "bad-last-vector", "unknown-type"],
    )
    def test_refused_decision_draws_and_writes_nothing(self, decision, message):
        scenario = self.scenario_3x2()
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        obs_pos, obs_neg = np.zeros((2, 3, 2), dtype=int)
        proportions = np.full((3, 2), np.nan)
        with pytest.raises(ProportionError, match=message):
            step_observations(decision, rng, scenario, [4, 4], [4, 4], proportions, obs_pos, obs_neg)
        assert rng.bit_generator.state == state
        assert not obs_pos.any() and not obs_neg.any() and np.isnan(proportions).all()

    def test_checked_vectors_written_type_by_type(self):
        scenario = self.scenario_3x2()
        decision = {"WSO": [0.25, 0.75], "SAO": np.array([1.0, 0.0]), "BPO": (0.5, 0.5)}
        out = observe(np.random.default_rng(2), scenario, [(3, 1), (2, 2)], decision)
        assert out.proportions.tolist() == [[0.25, 0.75], [1.0, 0.0], [0.5, 0.5]]


@st.composite
def observation_days(draw):
    """(scenario, observer seed, n_pos, n_neg, decision): 1-24 areas, up to 3
    types (m = 0 included), some areas without activity, and each type's
    vector either shared with the types before it or its own."""
    n_areas = draw(st.integers(1, 24))
    obs_types = [
        make_obs_type(
            f"T{j}",
            m=draw(st.integers(0, 6)),
            rho=draw(st.integers(1, 4)),
            eta_pos=draw(st.floats(0.1, 300.0)),
            eta_neg=draw(st.floats(0.1, 300.0)),
        )
        for j in range(draw(st.integers(1, 3)))
    ]
    areas = [make_area(f"A{i}") for i in range(n_areas)]
    scenario = make_scenario(areas=areas, obs_types=obs_types)
    # scales well inside PROB_TOL: both checks accept every vector
    vectors = proportion_vectors(n_areas, scales=(1.0, 1.0 - PROB_TOL / 4, 1.0 + PROB_TOL / 4))
    shared = draw(vectors)
    decision = {t.id: shared if draw(st.booleans()) else draw(vectors) for t in obs_types}
    pools = st.one_of(st.just((0, 0)), st.tuples(st.integers(0, 30), st.integers(0, 30)))
    n_pos, n_neg = map(list, zip(*draw(st.lists(pools, min_size=n_areas, max_size=n_areas))))
    seed = draw(st.integers(0, 2**32 - 1))
    return scenario, seed, n_pos, n_neg, decision


class TestStepObservationsMatchesListOracle:
    @settings(deadline=None, max_examples=300)
    @given(observation_days())
    def test_same_counts_written_in_place(self, day):
        scenario, seed, n_pos, n_neg, decision = day
        u = np.random.default_rng(seed).random(observer_draws(scenario))
        expected_pos, expected_neg = scalar_reference.step_observations(
            u, scenario, n_pos, n_neg, decision
        )
        # the replication's columns of a batch row, as the engine passes them
        n_types, n_areas = expected_pos.shape
        batch_pos, batch_neg = np.zeros((2, n_types, 3 * n_areas), dtype=int)
        columns = slice(n_areas, 2 * n_areas)
        proportions = np.full((n_types, n_areas), np.nan)
        step_observations(
            decision, np.random.default_rng(seed), scenario, n_pos, n_neg, proportions,
            batch_pos[:, columns], batch_neg[:, columns],
        )
        assert np.array_equal(batch_pos[:, columns], expected_pos)
        assert np.array_equal(batch_neg[:, columns], expected_neg)
        assert proportions.tolist() == proportions_by_type(decision, scenario)
        batch_pos[:, columns] = batch_neg[:, columns] = 0
        assert not batch_pos.any() and not batch_neg.any()


class TestCheckProportions:
    def test_valid_vector_passes(self):
        for given in ([0.25, 0.75], np.array([0.25, 0.75])):
            s = check_proportions(given, 2)
            assert s == [0.25, 0.75] and all(type(x) is float for x in s)

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

    def test_overflowing_sum_rejected_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ProportionError, match="sum to 1, got inf"):
                check_proportions([1e308, 1e308], 2)



def _outcome(check, s, n_areas):
    """check's result as a list, or the message of the ProportionError it raised."""
    try:
        return np.asarray(check(s, n_areas)).tolist()
    except ProportionError as exc:
        return f"error: {exc}"


@pytest.mark.parametrize(
    "s,n_areas",
    [
        ([0.25, 0.75], 2),
        ([0.0, -0.0, 1.0], 3),
        ([np.nan, 0.5, 0.5], 3),
        ([np.inf, 0.5, 0.5], 3),
        ([-np.inf, 0.5, 0.5], 3),
        ([np.inf, -np.inf, 1.0], 3),
        ([np.nan, -0.5, 1.5], 3),
        ([-0.25, 1.25], 2),
        ([-1e-300, 1.0], 2),
        ([0.5, 0.5], 3),
        ([[0.5, 0.5]], 2),
        (0.5, 1),
        ([], 0),
        ([0.5, 0.5 + 2 * PROB_TOL], 2),
        ([0.5, 0.5 - 2 * PROB_TOL], 2),
        ([0.5, 0.5 + PROB_TOL / 2], 2),
        ([0.5, 0.5 - PROB_TOL / 2], 2),
        ([0.7, 0.7], 2),
        ([1e308, 1e308], 2),  # finite entries whose sum overflows
    ],
)
def test_check_proportions_matches_four_check_reference(s, n_areas):
    assert _outcome(check_proportions, s, n_areas) == _outcome(
        scalar_reference.check_proportions, s, n_areas
    )
