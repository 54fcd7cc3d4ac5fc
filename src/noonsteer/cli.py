"""Command-line front end: eval, sweep, threshold, sample.

Exit codes are a stable contract: 0 success (including physics
non-violation), 1 usage or parse errors, 2 a nondiscriminating phase,
3 sampling bin-occupancy failure. The physics verdict lives in the
``violated`` field of the output, never in the process status.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import sys
from functools import cache

from .errors import InsufficientBinOccupancy, NondiscriminatingPhase, NoonSteerError
from .fock import HOMODYNE_COMBINATIONS
from .lossy import LossChannel
from .sampling import estimate_steering
from .steering import (
    caption_phase,
    protocol_rhs,
    steering_functional,
    sweep,
    threshold_efficiency,
)

OUTPUT_DIR_ENV = "NOONSTEER_OUTPUT_DIR"

SWEEP_COLUMNS = (
    "N",
    "phi",
    "eta_a",
    "eta_b",
    "criterion",
    "var_number",
    "var_quadN",
    "commutator",
    "E",
    "violated",
    "error",
)

#: Most rows one sweep may have, checked before its grid is built (fig2 has 1681).
MAX_GRID_ROWS = 10**6

_PI_PATTERN = re.compile(r"^\s*(-?)(\d+(?:\.\d+)?)?\s*pi\s*(?:/\s*(\d+(?:\.\d+)?))?\s*$")


class UsageError(Exception):
    """Carries the exit code for operational CLI failures."""

    def __init__(self, code, message):
        super().__init__(message)
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; the contract says 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(1, f"{self.prog}: error: {message}")


def parse_phase(text: str) -> float:
    """Accept symbolic multiples of pi ('pi/2', '3pi/4', '-pi') or decimals."""
    match = _PI_PATTERN.match(text.lower())
    if match:
        sign = -1.0 if match.group(1) == "-" else 1.0
        coef = float(match.group(2)) if match.group(2) else 1.0
        den = float(match.group(3)) if match.group(3) else 1.0
        if den == 0.0:
            raise UsageError(1, f"error: phase {text!r} divides by zero")
        return sign * coef * math.pi / den
    try:
        return float(text)
    except ValueError as exc:
        raise UsageError(1, f"error: cannot parse phase {text!r}") from exc


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row(report, eta_a: float, eta_b: float, **extra) -> dict:
    """One output row from a SteeringReport or SweepRow: the SWEEP_COLUMNS
    before ``error``, then ``extra``."""
    return {
        "N": report.n_quanta,
        "phi": report.phi,
        "eta_a": eta_a,
        "eta_b": eta_b,
        "criterion": report.which,
        "var_number": report.var_number,
        "var_quadN": report.var_quadrature_n,
        "commutator": report.commutator_modulus,
        "E": report.E,
        "violated": report.violated,
        **extra,
    }


def render_rows(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keys = list(rows[0].keys()) if rows else list(SWEEP_COLUMNS)
    writer.writerow(keys)
    for row in rows:
        writer.writerow([_fmt_value(row[k]) for k in keys])
    return buf.getvalue()


def _emit(text: str, output: str | None):
    if output is None:
        sys.stdout.write(text)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    path = output if (os.path.isabs(output) or base is None) else os.path.join(base, output)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    with open(path, "w") as handle:
        handle.write(text)
    sys.stderr.write(f"wrote {path}\n")


def cmd_eval(args, phi: float) -> int:
    channel = LossChannel(args.eta_a, args.eta_b)
    report = steering_functional(args.n, phi, channel, args.criterion)
    supported = (args.n, args.criterion) in HOMODYNE_COMBINATIONS
    rhs = protocol_rhs(args.n, phi, channel, args.criterion) if supported else None
    _emit(render_rows([_row(report, channel.eta_a, channel.eta_b, protocol_rhs=rhs)], args.fmt), args.output)
    return 0


def _grid_values(start: float, stop: float, step: float, axes: int = 1) -> list[float]:
    """The axis start, start + step, ..., stop of a grid with ``axes`` such axes,
    checked against MAX_GRID_ROWS before it is built; at least 2 points."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"grid {name} must be finite, got {value}")
    if step == 0.0:
        raise ValueError("grid step must be nonzero")
    steps = (stop - start) / step
    if not (math.isfinite(steps) and max(round(steps) + 1, 0) ** axes <= MAX_GRID_ROWS):
        raise ValueError(f"grid step={step} from {start} to {stop} makes over {MAX_GRID_ROWS} rows")
    if round(steps) < 1:
        raise ValueError("grid needs at least 2 points per axis")
    return [round(start + i * step, 12) for i in range(round(steps) + 1)]


def _grid_channels(start: float, stop: float, step: float, grid_2d: bool) -> list[LossChannel]:
    """The channels of a symmetric axis (eta_a = eta_b), or of the product grid
    of that axis with itself."""
    axis = _grid_values(start, stop, step, axes=2 if grid_2d else 1)
    if grid_2d:
        return [LossChannel(eta_a, eta_b) for eta_a in axis for eta_b in axis]
    return [LossChannel(eta, eta) for eta in axis]


def cmd_sweep(args, phi: float) -> int:
    if args.preset == "fig1":
        rows = sweep(range(1, 6), caption_phase, _grid_channels(0.80, 1.00, 0.005, False), "p")
    elif args.preset == "fig2":
        rows = sweep([2], math.pi / 2.0, _grid_channels(0.80, 1.00, 0.005, True), "p")
    else:
        channels = _grid_channels(args.start, args.stop, args.step, args.grid_2d)
        rows = sweep([args.n], phi, channels, args.criterion)
    _emit(render_rows([_row(r, r.eta_a, r.eta_b, error=r.error) for r in rows], args.fmt), args.output)
    return 0


def cmd_threshold(args, phi: float) -> int:
    mode, fixed = "symmetric", None
    if args.fix_eta_a is not None:
        mode, fixed = "fix_eta_a", args.fix_eta_a
    elif args.fix_eta_b is not None:
        mode, fixed = "fix_eta_b", args.fix_eta_b
    eta_star = threshold_efficiency(
        args.n, phi, args.criterion, fix_eta_a=args.fix_eta_a, fix_eta_b=args.fix_eta_b
    )
    payload = {
        "N": args.n,
        "phi": phi,
        "criterion": args.criterion,
        "mode": mode,
        "fixed": fixed,
        "eta_star": float(f"{eta_star:.6f}"),
    }
    _emit(render_rows([payload], args.fmt), args.output)
    return 0


def cmd_sample(args, phi: float) -> int:
    estimate = estimate_steering(
        args.n,
        phi,
        LossChannel(args.eta_a, args.eta_b),
        args.criterion,
        shots=args.shots,
        bins=args.bins,
        seed=args.seed,
        shot_log=args.shot_log,
    )
    payload = {
        "N": estimate.n_quanta,
        "phi": estimate.phi,
        "eta_a": estimate.channel.eta_a,
        "eta_b": estimate.channel.eta_b,
        "criterion": estimate.which,
        "shots": estimate.shots,
        "seed": estimate.seed,
        "bins": estimate.bins,
        "E_hat": estimate.e_hat,
        "stderr": estimate.stderr,
        "var_number": estimate.var_number.value,
        "var_number_stderr": estimate.var_number.stderr,
        "var_quadN": estimate.var_quadrature_n.value,
        "var_quadN_stderr": estimate.var_quadrature_n.stderr,
        "commutator": estimate.commutator_modulus.value,
        "commutator_stderr": estimate.commutator_modulus.stderr,
        "acceptance": estimate.acceptance,
        "min_occupancy": estimate.min_occupancy,
    }
    _emit(render_rows([payload], args.fmt), args.output)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built on first use and shared by every later call:
    ``parse_args`` leaves it unchanged and returns a fresh namespace."""
    parser = _Parser(prog="noonsteer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, summary, channel=False):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(handler=handler)
        p.add_argument("--n", type=int, default=1, help="number of quanta N")
        p.add_argument("--phi", default="0", help="phase: decimal or e.g. pi/2")
        if channel:
            p.add_argument("--eta-a", type=float, default=1.0)
            p.add_argument("--eta-b", type=float, default=1.0)
        p.add_argument("--criterion", choices=["x", "p"], default="p")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="json")
        p.add_argument("--output", "-o", default=None, help="file instead of stdout")
        return p

    command("eval", cmd_eval, "one steering evaluation", channel=True)

    p_sweep = command("sweep", cmd_sweep, "efficiency-grid sweep")
    p_sweep.set_defaults(fmt="csv")
    p_sweep.add_argument("--preset", choices=["fig1", "fig2"], default=None)
    p_sweep.add_argument("--start", type=float, default=0.8)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--step", type=float, default=0.01)
    p_sweep.add_argument("--grid-2d", action="store_true", help="full (eta_a, eta_b) product grid")

    p_thr = command("threshold", cmd_threshold, "efficiency at which E crosses 1")
    group = p_thr.add_mutually_exclusive_group()
    group.add_argument("--symmetric", action="store_true", default=True)
    group.add_argument("--fix-eta-a", type=float, default=None)
    group.add_argument("--fix-eta-b", type=float, default=None)

    p_sample = command("sample", cmd_sample, "shot-level Monte Carlo estimate", channel=True)
    p_sample.add_argument("--shots", type=int, default=1_000_000)
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument(
        "--bins",
        type=int,
        default=40,
        help="x bins before merging (default 40). Coarse bins bias the commutator "
        "modulus low: at 40 bins and 10^6 shots the N=2 modulus sits 3-5.6 standard "
        "errors low; acceptance criterion 11 and the benchmark use 128",
    )
    p_sample.add_argument("--shot-log", default=None, help="write one record per shot")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.handler(args, parse_phase(args.phi))
    except UsageError as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code
    except NondiscriminatingPhase as exc:
        sys.stderr.write(f"nondiscriminating phase: {exc}\n")
        return 2
    except InsufficientBinOccupancy as exc:
        sys.stderr.write(f"insufficient bin occupancy: {exc}\n")
        return 3
    except (NoonSteerError, ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError as exc:
        sys.stderr.write(f"error: out of memory: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
