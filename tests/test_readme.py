"""The README's "Library use" example runs as written."""

import re
from pathlib import Path

import numpy as np

from safesim import policies, run_simulation
from safesim.policies import make_policy

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    section = README.read_text(encoding="utf-8").split("## Library use", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def test_library_use_runs_as_written(monkeypatch):
    # the block registers "hotspot"; the registry is restored after the test
    monkeypatch.setattr(policies, "_REGISTRY", dict(policies._REGISTRY))
    namespace = {}
    exec(compile(library_use_block(), str(README), "exec"), namespace)
    assert namespace["trajectory"].horizon == 365
    assert namespace["summary"].n_reps == 100
    assert [run.seed for run in namespace["runs"]] == [1, 2, 3]

    policy = make_policy("hotspot")
    assert isinstance(policy, namespace["HotspotPolicy"])
    run = run_simulation(namespace["scenario"], policy, seed=7, horizon=30)
    assert not np.isnan(run.proportions).any()  # observers fielded every day
    assert (run.proportions.max(axis=2) == 1.0).all()
    assert run.obs_pos.sum() + run.obs_neg.sum() > 0
