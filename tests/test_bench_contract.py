"""The benchmark's hold on the program: every function it wraps or marks exists.

bench/spans.py traces the functions named in its TARGETS, and bench/child.py
marks the end of set-up at the first call to run_simulation or run_ensemble.
A rename in safesim would otherwise surface only when the benchmark runs.
The benchmark's files are read and executed here, never written: no module
of bench/ is imported, so no bytecode cache is left there.
"""

import types
from pathlib import Path

import pytest

from safesim import cli, engine

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans() -> types.ModuleType:
    module = types.ModuleType("bench_spans")
    module.__file__ = str(SPANS_PATH)
    exec(compile(SPANS_PATH.read_text(encoding="utf-8"), str(SPANS_PATH), "exec"), module.__dict__)
    return module


SPANS = load_spans()


@pytest.mark.parametrize("target", [target for _, target in SPANS.TARGETS])
def test_traced_target_resolves(target):
    owner, attr = SPANS.resolve(target)
    assert callable(getattr(owner, attr))


def test_counters_hook_traced_targets():
    assert set(SPANS.COUNTERS) <= {target for _, target in SPANS.TARGETS}


@pytest.mark.parametrize("module", [cli, engine], ids=["cli", "engine"])
def test_set_up_markers_exist(module):
    for name in ("run_simulation", "run_ensemble"):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
