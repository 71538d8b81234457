"""Byte-for-byte regression test of the CLI's output files.

Every file under tests/golden/<case>/ was written by the CLI for the case's
arguments at seed 42. A change that keeps behaviour must reproduce each of
them exactly. A change that moves the random stream on purpose rewrites them
with ``PYTHONPATH=src python tests/test_golden.py`` and says so; the script
prints each file it rewrote as unchanged or changed: for a changed CSV the
columns whose cells changed, for a changed SVG the number of lines that
differ and the first of them.
"""

import csv
import io
import shutil
from contextlib import redirect_stdout
from itertools import zip_longest
from pathlib import Path

import pytest

from safesim.cli import main
from safesim.scenario import case_study_path

GOLDEN = Path(__file__).parent / "golden"
WEIGHTED = "weighted:0.12,0.12,0.12,0.08,0.08,0.28,0.2"
COMPARE_POLICIES = ("uniform", "counts", "severity", WEIGHTED)

CASES = {
    **{
        f"run_{spec.partition(':')[0]}": ["run", "--policy", spec, "--horizon", "30"]
        for spec in ("none", "uniform", "counts", "severity", WEIGHTED)
    },
    "table2": ["table2", "--reps", "5"],
    "compare": ["compare", "--reps", "5"] + [a for p in COMPARE_POLICIES for a in ("--policy", p)],
}


def write_case(case: str, out_dir: Path) -> None:
    args = CASES[case] + ["--scenario", str(case_study_path()), "--seed", "42"]
    assert main(args + ["--out-dir", str(out_dir)]) == 0


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_golden(case, tmp_path):
    write_case(case, tmp_path)
    expected = sorted(p.name for p in (GOLDEN / case).iterdir())
    assert sorted(p.name for p in tmp_path.iterdir()) == expected
    for name in expected:
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


def changed_columns(old: bytes, new: bytes) -> list[str]:
    """Header names of the CSV columns whose cells differ between two versions."""
    old_rows, new_rows = (list(csv.reader(io.StringIO(b.decode("utf-8")))) for b in (old, new))
    if old_rows[:1] != new_rows[:1] or len(old_rows) != len(new_rows):
        return ["(header or row count)"]
    return [
        name
        for i, name in enumerate(new_rows[0])
        if any(a[i] != b[i] for a, b in zip(old_rows[1:], new_rows[1:]))
    ]


def changed_lines(old: bytes, new: bytes) -> str:
    """How many lines differ between two versions of a text file, and the first
    of them in its new version (cut at 100 characters)."""
    pairs = zip_longest(old.decode("utf-8").splitlines(), new.decode("utf-8").splitlines())
    differing = [(i, b) for i, (a, b) in enumerate(pairs, start=1) if a != b]
    if not differing:
        return "only line endings differ"
    first, line = differing[0]
    return f"differing lines: {len(differing)}, the first is line {first}: {(line or '(none)')[:100]}"


def describe_rewrite(name: str, old: bytes | None, new: bytes) -> str:
    if old is None:
        return "new"
    if old == new:
        return "unchanged"
    if name.endswith(".csv"):
        return "changed: " + ", ".join(changed_columns(old, new))
    return "changed: " + changed_lines(old, new)


def test_rewrite_of_an_svg_names_its_first_changed_line():
    old = b"<svg>\n<line y1=\"1.00\"/>\n<line y1=\"2.00\"/>\n</svg>\n"
    new = b"<svg>\n<line y1=\"1.50\"/>\n<line y1=\"2.50\"/>\n</svg>\n"
    assert describe_rewrite("a.svg", old, new) == (
        'changed: differing lines: 2, the first is line 2: <line y1="1.50"/>'
    )
    assert describe_rewrite("a.svg", old, old + b"<extra/>\n") == (
        "changed: differing lines: 1, the first is line 5: <extra/>"
    )
    assert describe_rewrite("a.svg", old, old[:-7]) == (
        "changed: differing lines: 1, the first is line 4: (none)"
    )
    assert describe_rewrite("a.svg", old, old[:-1]) == "changed: only line endings differ"


if __name__ == "__main__":
    for case in sorted(CASES):
        before = {p.name: p.read_bytes() for p in (GOLDEN / case).glob("*")}
        shutil.rmtree(GOLDEN / case, ignore_errors=True)
        with redirect_stdout(io.StringIO()):  # the CLI's "wrote ..." lines
            write_case(case, GOLDEN / case)
        for path in sorted((GOLDEN / case).iterdir()):
            old = before.pop(path.name, None)
            print(f"{case}/{path.name}: {describe_rewrite(path.name, old, path.read_bytes())}")
        for name in sorted(before):
            print(f"{case}/{name}: removed")
