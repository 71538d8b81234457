import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import scalar_reference
from safesim import engine
from safesim.engine import run_simulation
from safesim.policies import make_policy
from safesim.reports import PALETTE, render_timeseries_svg, write_trajectory_csv


@st.composite
def plots(draw):
    """1-6 series of 1-400 days (the first the longest), values scaled by
    1e-9 to 1e6, each with a zero, a narrow or a wide band (the wide one
    clips at 0), and an asymptote anywhere from 0 to three times the top."""
    n_days = draw(st.integers(1, 400))
    scale = 10.0 ** draw(st.floats(-9.0, 6.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = []
    for i in range(draw(st.integers(1, 6))):
        length = n_days if i == 0 else draw(st.integers(1, n_days))
        mean = rng.random(length) * scale
        mean[rng.random(length) < 0.1] = 0.0
        std = rng.random(length) * draw(st.sampled_from([0.0, 0.1, 2.0])) * scale
        series.append((f"policy{i}", mean, std, PALETTE[i % len(PALETTE)]))
    top = max(float((mean + std).max()) for _, mean, std, _ in series)
    return series, top * draw(st.floats(0.0, 3.0))


SINGLE_DAY = ([("one", np.array([0.5]), np.array([0.75]), PALETTE[0])], 0.3)


class TestRenderMatchesPerPointOracle:
    @settings(deadline=None, max_examples=250)
    @given(plots())
    @example(SINGLE_DAY)
    def test_same_svg_text(self, plot):
        series, asymptote = plot
        expected = scalar_reference.render_timeseries_svg(series, asymptote, "title", "y")
        assert render_timeseries_svg(series, asymptote, "title", "y") == expected


class TestWriteTrajectoryCsv:
    def test_xi_computed_once(self, case_study, tmp_path, monkeypatch):
        # Trajectory.xi is computed from theta on each read; the writer reads it once
        trajectory = run_simulation(case_study, make_policy("counts"), seed=3, horizon=5)
        calls = []
        xi_of_theta = engine.xi_of_theta
        monkeypatch.setattr(engine, "xi_of_theta", lambda *args: calls.append(1) or xi_of_theta(*args))
        write_trajectory_csv(trajectory, tmp_path / "trajectory.csv")
        assert len(calls) == 1
