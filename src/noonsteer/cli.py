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
from dataclasses import asdict, dataclass

from .errors import InsufficientBinOccupancy, NondiscriminatingPhase, NoonSteerError
from .lossy import LossChannel
from .sampling import estimate_steering
from .steering import (
    SweepRow,
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


@dataclass(frozen=True)
class RunConfig:
    """Resolved invocation: every field round-trips through to_dict()."""

    command: str
    n_quanta: int = 1
    phi_text: str = "0"
    phi: float = 0.0
    eta_a: float = 1.0
    eta_b: float = 1.0
    criterion: str = "p"
    shots: int = 1_000_000
    seed: int = 0
    bins: int = 40
    fmt: str = "json"
    output: str | None = None
    preset: str | None = None
    grid_start: float = 0.8
    grid_stop: float = 1.0
    grid_step: float = 0.01
    grid_2d: bool = False
    threshold_mode: str = "symmetric"
    threshold_fixed: float | None = None
    shot_log: str | None = None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        return cls(**payload)


def _fmt_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def _row_payload(row: SweepRow) -> dict:
    return {
        "N": row.n_quanta,
        "phi": row.phi,
        "eta_a": row.eta_a,
        "eta_b": row.eta_b,
        "criterion": row.which,
        "var_number": row.var_number,
        "var_quadN": row.var_quadrature_n,
        "commutator": row.commutator_modulus,
        "E": row.E,
        "violated": row.violated,
        "error": row.error,
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


def _channel(config: RunConfig) -> LossChannel:
    return LossChannel(config.eta_a, config.eta_b)


def cmd_eval(config: RunConfig) -> int:
    report = steering_functional(config.n_quanta, config.phi, _channel(config), config.criterion)
    payload = {
        "N": report.n_quanta,
        "phi": report.phi,
        "eta_a": report.channel.eta_a,
        "eta_b": report.channel.eta_b,
        "criterion": report.which,
        "var_number": report.var_number,
        "var_quadN": report.var_quadrature_n,
        "commutator": report.commutator_modulus,
        "E": report.E,
        "violated": report.violated,
        "protocol_rhs": (
            protocol_rhs(config.n_quanta, config.phi, _channel(config), config.criterion)
            if config.n_quanta <= 3
            else None
        ),
    }
    _emit(render_rows([payload], config.fmt), config.output)
    return 0


def _grid_values(start: float, stop: float, step: float, axes: int = 1) -> list[float]:
    """The axis start, start + step, ..., stop of a grid with ``axes`` such axes,
    checked against MAX_GRID_ROWS before it is built."""
    for name, value in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(value):
            raise ValueError(f"grid {name} must be finite, got {value}")
    if step == 0.0:
        raise ValueError("grid step must be nonzero")
    steps = (stop - start) / step
    if not (math.isfinite(steps) and max(round(steps) + 1, 0) ** axes <= MAX_GRID_ROWS):
        raise ValueError(f"grid step={step} from {start} to {stop} makes over {MAX_GRID_ROWS} rows")
    return [round(start + i * step, 12) for i in range(round(steps) + 1)]


def cmd_sweep(config: RunConfig) -> int:
    if config.preset == "fig1":
        rows = sweep(
            range(1, 6),
            caption_phase,
            "p",
            symmetric=_grid_values(0.80, 1.00, 0.005),
        )
    elif config.preset == "fig2":
        grid = _grid_values(0.80, 1.00, 0.005)
        rows = sweep([2], math.pi / 2.0, "p", eta_a_values=grid, eta_b_values=grid)
    elif config.grid_2d:
        grid = _grid_values(config.grid_start, config.grid_stop, config.grid_step, axes=2)
        rows = sweep(
            [config.n_quanta], config.phi, config.criterion,
            eta_a_values=grid, eta_b_values=grid,
        )
    else:
        rows = sweep(
            [config.n_quanta], config.phi, config.criterion,
            symmetric=_grid_values(config.grid_start, config.grid_stop, config.grid_step),
        )
    _emit(render_rows([_row_payload(r) for r in rows], config.fmt), config.output)
    return 0


def cmd_threshold(config: RunConfig) -> int:
    eta_star = threshold_efficiency(
        config.n_quanta,
        config.phi,
        config.criterion,
        mode=config.threshold_mode,
        fixed_value=config.threshold_fixed,
    )
    payload = {
        "N": config.n_quanta,
        "phi": config.phi,
        "criterion": config.criterion,
        "mode": config.threshold_mode,
        "fixed": config.threshold_fixed,
        "eta_star": float(f"{eta_star:.6f}"),
    }
    _emit(render_rows([payload], config.fmt), config.output)
    return 0


def cmd_sample(config: RunConfig) -> int:
    estimate = estimate_steering(
        config.n_quanta,
        config.phi,
        _channel(config),
        config.criterion,
        shots=config.shots,
        bins=config.bins,
        seed=config.seed,
        shot_log=config.shot_log,
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
    }
    _emit(render_rows([payload], config.fmt), config.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="noonsteer", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=1, help="number of quanta N")
        p.add_argument("--phi", default="0", help="phase: decimal or e.g. pi/2")
        p.add_argument("--eta-a", type=float, default=1.0)
        p.add_argument("--eta-b", type=float, default=1.0)
        p.add_argument("--criterion", choices=["x", "p"], default="p")
        p.add_argument("--format", dest="fmt", choices=["csv", "json"], default="json")
        p.add_argument("--output", "-o", default=None, help="file instead of stdout")

    p_eval = sub.add_parser("eval", help="one steering evaluation")
    common(p_eval)

    p_sweep = sub.add_parser("sweep", help="efficiency-grid sweep")
    common(p_sweep)
    p_sweep.set_defaults(fmt="csv")
    p_sweep.add_argument("--preset", choices=["fig1", "fig2"], default=None)
    p_sweep.add_argument("--start", type=float, default=0.8)
    p_sweep.add_argument("--stop", type=float, default=1.0)
    p_sweep.add_argument("--step", type=float, default=0.01)
    p_sweep.add_argument("--grid-2d", action="store_true", help="full (eta_a, eta_b) product grid")

    p_thr = sub.add_parser("threshold", help="efficiency at which E crosses 1")
    common(p_thr)
    group = p_thr.add_mutually_exclusive_group()
    group.add_argument("--symmetric", action="store_true", default=True)
    group.add_argument("--fix-eta-a", type=float, default=None)
    group.add_argument("--fix-eta-b", type=float, default=None)

    p_sample = sub.add_parser("sample", help="shot-level Monte Carlo estimate")
    common(p_sample)
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


def config_from_args(args) -> RunConfig:
    mode, fixed = "symmetric", None
    if getattr(args, "fix_eta_a", None) is not None:
        mode, fixed = "fix_eta_a", args.fix_eta_a
    elif getattr(args, "fix_eta_b", None) is not None:
        mode, fixed = "fix_eta_b", args.fix_eta_b
    return RunConfig(
        command=args.command,
        n_quanta=args.n,
        phi_text=args.phi,
        phi=parse_phase(args.phi),
        eta_a=args.eta_a,
        eta_b=args.eta_b,
        criterion=args.criterion,
        shots=getattr(args, "shots", 1_000_000),
        seed=getattr(args, "seed", 0),
        bins=getattr(args, "bins", 40),
        fmt=args.fmt,
        output=args.output,
        preset=getattr(args, "preset", None),
        grid_start=getattr(args, "start", 0.8),
        grid_stop=getattr(args, "stop", 1.0),
        grid_step=getattr(args, "step", 0.01),
        grid_2d=getattr(args, "grid_2d", False),
        threshold_mode=mode,
        threshold_fixed=fixed,
        shot_log=getattr(args, "shot_log", None),
    )


_COMMANDS = {
    "eval": cmd_eval,
    "sweep": cmd_sweep,
    "threshold": cmd_threshold,
    "sample": cmd_sample,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        config = config_from_args(args)
        return _COMMANDS[config.command](config)
    except UsageError as exc:
        sys.stderr.write(exc.message + "\n")
        return exc.code
    except NondiscriminatingPhase as exc:
        sys.stderr.write(f"nondiscriminating phase: {exc}\n")
        return 2
    except InsufficientBinOccupancy as exc:
        sys.stderr.write(f"insufficient bin occupancy: {exc}\n")
        return 3
    except (NoonSteerError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
