import csv
import io
import json
import math
import os
import subprocess
import sys
import time

import pytest

import noonsteer
from noonsteer import cli, sampling
from noonsteer.cli import (
    SWEEP_COLUMNS,
    build_parser,
    main,
    parse_phase,
)
from noonsteer.steering import e1p_closed_form, steering_functional
from noonsteer.lossy import LossChannel


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestPhaseParsing:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("0", 0.0),
            ("pi", math.pi),
            ("pi/2", math.pi / 2),
            ("pi/4", math.pi / 4),
            ("3pi/4", 3 * math.pi / 4),
            ("-pi/2", -math.pi / 2),
            ("1.25", 1.25),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_phase(text) == pytest.approx(expected, abs=1e-15)

    def test_rejected(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "1", "--phi", "two-pi")
        assert code == 1
        assert "phase" in err


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--step", "0"], "grid step must be nonzero"),
            (["sample", "--shots", "0"], "shots >= 1"),
            (["eval", "--n", "0", "--phi", "pi/2"], "N=0"),
            (["eval", "--n", "0", "--phi", "0"], "N=0"),
            (["threshold", "--n", "0", "--phi", "pi/2"], "N=0"),
            (["sweep", "--n", "0", "--phi", "pi/2"], "N=0"),
            (["sample", "--n", "1", "--phi", "nan", "--shots", "10"], "phi=nan"),
            (["eval", "--phi", "nan"], "phi=nan"),
            (["threshold", "--n", "1", "--phi", "nan"], "phi=nan"),
            (["sweep", "--phi", "nan"], "phi=nan"),
            (["eval", "--phi", "inf"], "phi=inf"),
            (["eval", "--phi", "pi/0"], "'pi/0' divides by zero"),
            (["eval", "--n", "3", "--phi", "0", "--eta-a", "1e-160", "--eta-b", "1e-160"], "modulus underflows to 0"),
            (["eval", "--n", "200", "--phi", "pi/2"], "wavefunction order 200 exceeds supported maximum 16"),
        ],
        ids=[
            "sweep-step-0", "sample-shots-0", "eval-n-0", "eval-n-0-phi-0", "threshold-n-0", "sweep-n-0",
            "sample-phi-nan", "eval-phi-nan", "threshold-phi-nan", "sweep-phi-nan", "eval-phi-inf",
            "eval-phi-pi-over-0", "eval-damping-underflow", "eval-n-200",
        ],
    )
    def test_exit_one_with_one_line(self, capsys, argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["sweep", "--n", "1", "--start=-inf", "--stop", "1", "--step", "0.01"], "grid start must be finite"),
            (["sweep", "--stop=nan"], "grid stop must be finite"),
            (["sweep", "--start", "0.8", "--stop", "1", "--step", "1e-300"], "step=1e-300"),
            (["sweep", "--grid-2d", "--start", "0", "--stop", "1", "--step", "1e-3"], "over 1000000 rows"),
            (["sweep", "--start", "0.9", "--stop", "0.9"], "grid needs at least 2 points per axis"),
        ],
        ids=["sweep-start-inf", "sweep-stop-nan", "sweep-step-1e-300", "sweep-2d-over-cap", "sweep-one-point"],
    )
    def test_sweep_grid_refused_before_it_is_built(self, capsys, argv, message):
        started = time.perf_counter()
        self.test_exit_one_with_one_line(capsys, argv, message)
        assert time.perf_counter() - started < 1.0

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--n", "2", "--phi", "pi/2", "--eta-a", "0.9"],
            ["threshold", "--n", "2", "--phi", "pi/2", "--eta-b", "0.9"],
        ],
        ids=["sweep-eta-a", "threshold-eta-b"],
    )
    def test_channel_flags_are_refused_where_they_do_nothing(self, capsys, argv):
        # a sweep takes its channels from its grid, and a threshold solves for them
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert f"unrecognized arguments: {' '.join(argv[-2:])}" in err

    def test_output_path_is_a_directory(self, capsys, tmp_path):
        self.test_exit_one_with_one_line(
            capsys, ["eval", "--output", str(tmp_path)], f"Is a directory: {str(tmp_path)!r}"
        )

    def test_shot_log_in_missing_directory(self, capsys, tmp_path):
        log = tmp_path / "missing" / "shots.csv"
        self.test_exit_one_with_one_line(
            capsys, ["sample", "--shots", "100", "--seed", "1", "--shot-log", str(log)],
            f"No such file or directory: {str(log)!r}",
        )

    @pytest.mark.parametrize("where", ["missing/shots.csv", "."], ids=["missing-directory", "directory"])
    def test_shot_log_path_checked_before_sampling(self, capsys, tmp_path, monkeypatch, where):
        for name in ("sample_number_pair", "sample_quadrature_pair"):
            monkeypatch.setattr(sampling, name, lambda *args: pytest.fail("drew shots"))
        log = tmp_path / where
        reason = "No such file or directory" if where != "." else "Is a directory"
        self.test_exit_one_with_one_line(
            capsys, ["sample", "--shot-log", str(log)], f"{reason}: {str(log)!r}"
        )

    def test_bins_refused_before_sampling(self, capsys, monkeypatch):
        monkeypatch.setattr(sampling, "sample_quadrature_pair", lambda *args: pytest.fail("drew shots"))
        self.test_exit_one_with_one_line(
            capsys, ["sample", "--n", "1", "--shots", "1000", "--bins", "1000000000"],
            "bins <= 1000000 and bin_range[0] < bin_range[1], got bins=1000000000",
        )

    def test_memory_error_is_one_line(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise MemoryError("Unable to allocate 2.43 TiB for an array with shape (333333333334,)")

        monkeypatch.setattr(cli, "estimate_steering", exhausted)
        self.test_exit_one_with_one_line(
            capsys, ["sample", "--shots", "1000000000000"], "out of memory: Unable to allocate 2.43 TiB"
        )


class TestParserReuse:
    def test_one_tree_per_process(self):
        assert build_parser() is build_parser()

    def test_threshold_mode_does_not_leak(self, capsys):
        _, out, _ = run_cli(capsys, "threshold", "--n", "2", "--phi", "pi/2", "--fix-eta-a", "1.0")
        assert json.loads(out)[0]["mode"] == "fix_eta_a"
        _, out, _ = run_cli(capsys, "threshold", "--n", "2", "--phi", "pi/2")
        payload = json.loads(out)[0]
        assert (payload["mode"], payload["fixed"]) == ("symmetric", None)

    def test_sweep_format_default_does_not_leak(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--n", "1", "--phi", "0", "--start", "0.9", "--stop", "1", "--step", "0.05"
        )
        assert out.startswith(",".join(SWEEP_COLUMNS) + "\n")
        _, out, _ = run_cli(capsys, "eval", "--n", "1", "--phi", "0")
        assert json.loads(out)[0]["N"] == 1


class TestEval:
    def test_ideal_n1(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--n", "1", "--phi", "0",
            "--eta-a", "1", "--eta-b", "1", "--criterion", "p",
        )
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["E"] == 0.0
        assert payload["violated"] is True

    def test_nondiscriminating_phase_exit_two(self, capsys):
        code, _, err = run_cli(capsys, "eval", "--n", "2", "--phi", "0", "--criterion", "p")
        assert code == 2
        assert "phase" in err.lower()

    def test_usage_error_exit_one(self, capsys):
        code, _, _ = run_cli(capsys, "eval", "--n", "not-a-number")
        assert code == 1

    def test_e_reported_to_six_decimals(self, capsys):
        code, out, _ = run_cli(
            capsys, "eval", "--n", "2", "--phi", "pi/2",
            "--eta-a", "0.98", "--eta-b", "0.98", "--criterion", "p",
        )
        assert code == 0
        payload = json.loads(out)[0]
        expected = steering_functional(2, math.pi / 2, LossChannel(0.98, 0.98), "p").E
        assert round(payload["E"], 6) == round(expected, 6)

    def test_eval_includes_protocol_rhs(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--n", "1", "--phi", "0")
        payload = json.loads(out)[0]
        assert payload["protocol_rhs"] == pytest.approx(0.39894, abs=1e-5)

    def test_json_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "eval", "--n", "2", "--phi", "pi/2", "--eta-a", "0.9")
        assert list(json.loads(out)[0]) == [*SWEEP_COLUMNS[:-1], "protocol_rhs"]


class TestSweep:
    def test_header_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "1", "--phi", "0",
            "--start", "0.95", "--stop", "1.0", "--step", "0.05",
        )
        assert code == 0
        header = out.splitlines()[0]
        assert header == "N,phi,eta_a,eta_b,criterion,var_number,var_quadN,commutator,E,violated,error"
        assert header == ",".join(SWEEP_COLUMNS)

    def test_rows_parse_and_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys, "sweep", "--n", "1", "--phi", "0",
            "--start", "0.9", "--stop", "1.0", "--step", "0.05",
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        for row in rows:
            eta = float(row["eta_a"])
            expected = e1p_closed_form(LossChannel(eta, eta))
            assert float(row["E"]) == pytest.approx(expected, abs=1e-6)
            assert row["error"] == ""
        last = rows[-1]
        assert float(last["eta_a"]) == 1.0 and float(last["E"]) == 0.0
        assert last["violated"] == "true"

    def test_json_and_csv_carry_identical_values(self, capsys):
        args = ("sweep", "--n", "2", "--phi", "pi/2", "--start", "0.96", "--stop", "1.0", "--step", "0.02")
        _, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        _, out_json, _ = run_cli(capsys, *args, "--format", "json")
        csv_rows = list(csv.DictReader(io.StringIO(out_csv)))
        json_rows = json.loads(out_json)
        assert len(csv_rows) == len(json_rows)
        for c_row, j_row in zip(csv_rows, json_rows):
            for key in ("E", "var_number", "var_quadN", "commutator"):
                assert float(c_row[key]) == j_row[key]  # 17g survives the round trip

    def test_unsupported_order_rows_are_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "200", "--phi", "pi/2", "--start", "0.95", "--stop", "1.0", "--step", "0.05",
        )
        assert code == 0
        errors = [row["error"] for row in csv.DictReader(io.StringIO(out))]
        assert errors == ["OutOfSupportedOrder: wavefunction order 200 exceeds supported maximum 16"] * 2

    def test_fig1_preset(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig1")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 5 * 41
        orders = sorted({int(r["N"]) for r in rows})
        assert orders == [1, 2, 3, 4, 5]
        for row in rows:
            assert row["eta_a"] == row["eta_b"]
            phase = float(row["phi"])
            if int(row["N"]) % 2 == 1:
                assert phase == 0.0
            else:
                assert phase == pytest.approx(math.pi / 2)
        etas = sorted({float(r["eta_a"]) for r in rows})
        assert etas[0] == 0.80 and etas[-1] == 1.00 and len(etas) == 41

    def test_grid_2d_flag(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--n", "2", "--phi", "pi/2", "--grid-2d",
            "--start", "0.9", "--stop", "1.0", "--step", "0.05",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 9
        assert {(float(r["eta_a"]), float(r["eta_b"])) for r in rows} == {
            (a, b) for a in (0.9, 0.95, 1.0) for b in (0.9, 0.95, 1.0)
        }

    def test_fig2_preset(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--preset", "fig2")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 41 * 41
        assert {int(r["N"]) for r in rows} == {2}
        table = {(float(r["eta_a"]), float(r["eta_b"])): float(r["E"]) for r in rows}
        assert table[(0.90, 1.0)] < table[(1.0, 0.90)]


class TestThreshold:
    def test_symmetric_n1(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--n", "1", "--phi", "0", "--criterion", "p", "--symmetric")
        assert code == 0
        payload = json.loads(out)[0]
        assert payload["eta_star"] == pytest.approx(0.917, abs=0.005)

    @pytest.mark.parametrize("n_quanta", range(1, 17))
    def test_every_supported_order_solves_at_the_caption_phase(self, capsys, n_quanta):
        # N = 12 and 16 refine past what a batched scan may pass
        phi = "0" if n_quanta % 2 else "pi/2"
        code, out, err = run_cli(capsys, "threshold", "--n", str(n_quanta), "--phi", phi)
        assert (code, err) == (0, "")
        assert 0.9 < json.loads(out)[0]["eta_star"] <= 1.0

    def test_json_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "threshold", "--n", "1", "--phi", "0")
        assert list(json.loads(out)[0]) == ["N", "phi", "criterion", "mode", "fixed", "eta_star"]

    def test_fixed_mode_ordering(self, capsys):
        _, out_a, _ = run_cli(capsys, "threshold", "--n", "2", "--phi", "pi/2", "--fix-eta-a", "1.0")
        _, out_b, _ = run_cli(capsys, "threshold", "--n", "2", "--phi", "pi/2", "--fix-eta-b", "1.0")
        vary_b = json.loads(out_a)[0]["eta_star"]
        vary_a = json.loads(out_b)[0]["eta_star"]
        assert vary_b > vary_a  # mode-b loss is the harsher one


class TestSample:
    def test_reproducible(self, capsys):
        args = ("sample", "--n", "1", "--phi", "0", "--shots", "20000", "--seed", "7")
        code_a, out_a, _ = run_cli(capsys, *args)
        code_b, out_b, _ = run_cli(capsys, *args)
        assert code_a == code_b == 0
        assert out_a == out_b
        payload = json.loads(out_a)[0]
        assert abs(payload["E_hat"]) < 0.05
        assert payload["stderr"] > 0.0

    def test_json_key_order(self, capsys):
        _, out, _ = run_cli(capsys, "sample", "--n", "1", "--phi", "0", "--shots", "1000", "--seed", "1")
        assert list(json.loads(out)[0]) == [
            "N", "phi", "eta_a", "eta_b", "criterion", "shots", "seed", "bins", "E_hat", "stderr",
            "var_number", "var_number_stderr", "var_quadN", "var_quadN_stderr",
            "commutator", "commutator_stderr",
        ]

    def test_small_run_legal(self, capsys):
        code, out, _ = run_cli(capsys, "sample", "--n", "1", "--phi", "0", "--shots", "100", "--seed", "1")
        assert code == 0
        assert json.loads(out)[0]["stderr"] > 0.0

    def test_occupancy_failure_exit_three(self, capsys):
        code, _, err = run_cli(capsys, "sample", "--n", "1", "--phi", "0", "--shots", "30", "--seed", "1")
        assert code == 3
        assert "occupancy" in err.lower()

    def test_shot_log_written(self, capsys, tmp_path):
        log = tmp_path / "shots.csv"
        code, _, _ = run_cli(
            capsys, "sample", "--n", "1", "--phi", "0",
            "--shots", "1000", "--seed", "3", "--shot-log", str(log),
        )
        assert code == 0
        lines = log.read_text().splitlines()
        assert lines[0] == "setting,outcome_a,outcome_b"
        assert len(lines) == 1001


class TestOutputHandling:
    def test_output_file_and_env_dir(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("NOONSTEER_OUTPUT_DIR", str(tmp_path))
        code, out, _ = run_cli(
            capsys, "eval", "--n", "1", "--phi", "0", "--output", "report.json",
        )
        assert code == 0 and out == ""
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload[0]["E"] == 0.0


class TestEntryPoint:
    """``python -m noonsteer.cli`` runs the same ``sys.exit(main())`` as the
    ``noonsteer`` console script."""

    @staticmethod
    def run_module(tmp_path, *argv):
        src = os.path.dirname(os.path.dirname(noonsteer.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("NOONSTEER_OUTPUT_DIR", None)
        return subprocess.run(
            [sys.executable, "-m", "noonsteer.cli", *argv],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )

    def test_eval_prints_json(self, tmp_path):
        proc = self.run_module(tmp_path, "eval", "--n", "1", "--phi", "0")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)[0]["E"] == 0.0

    def test_unwritable_output_is_one_line(self, tmp_path):
        proc = self.run_module(tmp_path, "eval", "--output", str(tmp_path))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
