"""The fig1 and fig2 presets against CSVs recorded before sweeps were batched.

``tests/golden/`` holds the output of ``noonsteer sweep --preset fig1`` and
``--preset fig2`` from the one-call-per-point sweep. Every float must agree
to a relative 1e-10; row order, N, criterion, verdict and error column must
be identical.
"""

import csv
import math
from pathlib import Path

import pytest

from noonsteer.cli import SWEEP_COLUMNS, main

GOLDEN = Path(__file__).parent / "golden"
FLOAT_COLUMNS = ("phi", "eta_a", "eta_b", "var_number", "var_quadN", "commutator", "E")


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize("preset", ["fig1", "fig2"])
def test_preset_matches_golden(preset, tmp_path):
    out = tmp_path / f"{preset}.csv"
    assert main(["sweep", "--preset", preset, "-o", str(out)]) == 0
    header, *got = read_rows(out)
    golden_header, *want = read_rows(GOLDEN / f"{preset}.csv")
    assert tuple(header) == tuple(golden_header) == SWEEP_COLUMNS
    assert len(got) == len(want)
    for i, (got_row, want_row) in enumerate(zip(got, want)):
        for column, got_text, want_text in zip(header, got_row, want_row):
            if column in FLOAT_COLUMNS and want_text:
                assert got_text, (i, column)
                got_value, want_value = float(got_text), float(want_text)
                assert math.isclose(got_value, want_value, rel_tol=1e-10, abs_tol=0.0), (i, column)
            else:
                assert got_text == want_text, (i, column)
