"""The benchmark's four workloads: seeded op generation, execution and checks.

Every workload is a closed loop with one caller. Ops come in blocks of a
fixed composition; the seed picks the parameters of each op and the order
inside a block, never how many ops of each kind a block holds. Runs with
different seeds therefore do the same kind and amount of work, so their
medians can be compared, while no seed replays another's inputs.

The package is driven only through its public entry points: ``cli.main`` for
the three CLI-shaped workloads and the ``inferred.density_*`` functions for
the matrix oracle. Module attributes are looked up at call time, so a tracer
that rebinds them sees every call.

Reference checks run outside the timed region and use other routes than the
op itself: closed forms, the dense matrix route, the analytic route and the
sampler's own standard errors.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from noonsteer import cli, inferred, lossy, steering
from noonsteer.fock import operator_matrix

#: Agreement demanded of two routes: absolute below magnitude 1, relative above
#: (criteria 4 and 10 use 1e-6 on quantities of order one).
ROUTE_TOL = 1e-6
#: Criterion 9's margin for the separable no-violation check.
SEPARABLE_MARGIN = 1e-9
#: Sampler estimates must lie within this many standard errors of the analytic value.
SAMPLER_SIGMAS = 5.0
#: Bisection width of ``threshold_efficiency`` (its default, not exposed by the CLI).
THRESHOLD_WIDTH = 1e-6
#: Shots per sampler op: the CLI default and criterion 11's size.
SHOTS = 1_000_000
#: Criterion 11's bin count; the CLI default of 40 leaves a bin-width bias of
#: several standard errors in the N = 2 modulus at 10^6 shots.
SAMPLER_BINS = 128
#: Cutoff of the separable states (that of the criterion-9 suite).
SEPARABLE_DIM = 12

CAPTION_PHASE = {1: "0", 2: "pi/2", 3: "0", 4: "pi/2", 5: "0"}


@dataclass
class Op:
    """One closed-loop operation and what its check needs.

    ``argv`` is set for CLI ops; ``density`` and ``operator`` for matrix ops.
    ``units`` counts the workload's unit of work (rows, queries, shots or
    states) that the op completes.
    """

    kind: str
    units: int
    argv: list[str] | None = None
    expect_code: int = 0
    density: lossy.TwoModeDensity | None = None
    operator: np.ndarray | None = field(default=None, repr=False)
    order: int = 1
    ref: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    """How one workload generates, names and measures its ops."""

    name: str
    unit: str
    block: Callable[[np.random.Generator, int], list[Op]]
    check: Callable[[Op, dict, str], str | None]
    setup: Callable[[], Op]  # the cold op a fresh process runs to measure set-up
    traced_blocks: int
    tail_rule: str  # "ten_beyond" or "max"


def blocks(workload: Workload, seed: int):
    """Endless stream of op blocks; the same seed gives the same stream."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.name.encode())])
    index = 0
    while True:
        yield workload.block(rng, index)
        index += 1


# -- execution -----------------------------------------------------------------


def execute(op: Op) -> dict:
    """Run one op through the package's public entry points."""
    if op.argv is not None:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(op.argv)
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    rho = op.density
    return {
        "values": (
            inferred.density_number_variance(rho),
            inferred.density_quadrature_variance(rho, math.pi / 2.0, op.order),
            inferred.density_abs_conditional_mean(rho, op.operator),
        )
    }


# -- shared reference helpers ----------------------------------------------------


def _close(got: float, want: float, tol: float = ROUTE_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def _channel(eta_a: float, eta_b: float) -> lossy.LossChannel:
    return lossy.LossChannel(eta_a, eta_b)


def dense_route(n_quanta: int, phi: float, eta_a: float, eta_b: float, which: str):
    """(var_number, var_quadN, commutator) from an explicit lossy density.

    The cutoff 2N + 2 holds every intermediate level of Q^(2N) acting on the
    state's support (levels <= N), so no truncation artifact reaches the
    traced entries. The commutator is the conditional |mean| of i[n, Q^N].
    """
    dim = 2 * n_quanta + 2
    rho = lossy.lossy_noon_density(n_quanta, phi, _channel(eta_a, eta_b), dim=dim)
    quad = operator_matrix("p" if which == "p" else "x", dim).matrix
    q_n = np.linalg.matrix_power(quad, n_quanta)
    number = operator_matrix("number", dim).matrix
    theta = math.pi / 2.0 if which == "p" else 0.0
    return (
        inferred.density_number_variance(rho),
        inferred.density_quadrature_variance(rho, theta, n_quanta),
        inferred.density_abs_conditional_mean(rho, 1j * (number @ q_n - q_n @ number)),
    )


def _check_against_dense(n_quanta, phi, eta_a, eta_b, which, var_n, var_q, comm):
    dense = dense_route(n_quanta, phi, eta_a, eta_b, which)
    for label, got, want in zip(("var_number", "var_quadN", "commutator"), (var_n, var_q, comm), dense):
        if not _close(got, want):
            return (
                f"{label}={got!r} vs dense route {want!r} at N={n_quanta} phi={phi} "
                f"eta=({eta_a}, {eta_b}) criterion={which}"
            )
    return None


def _check_report_fields(n_quanta, phi, eta_a, eta_b, which, var_n, var_q, comm, e_value, violated):
    """Internal consistency, plus criterion 4's closed form where it applies."""
    recomputed = 2.0 * math.sqrt(var_n * var_q) / comm
    if not _close(e_value, recomputed, 1e-12):
        return f"E={e_value!r} but 2 sqrt(var_n var_q)/comm = {recomputed!r}"
    if violated != (e_value < 1.0):
        return f"violated={violated} disagrees with E={e_value!r}"
    if n_quanta == 1 and phi == 0.0 and which == "p":
        closed = steering.e1p_closed_form(_channel(eta_a, eta_b))
        if abs(e_value - closed) > ROUTE_TOL:
            return f"E={e_value!r} vs e1p_closed_form {closed!r} at eta=({eta_a}, {eta_b})"
    return None


def _unexpected_code(op: Op, result: dict):
    if result["code"] != op.expect_code:
        return f"{op.kind}: exit {result['code']} (expected {op.expect_code}): {result['stderr'].strip()[:200]}"
    return None


def _eta(rng, lo: float, hi: float) -> str:
    return f"{rng.uniform(lo, hi):.4f}"


def _discriminating_phase(rng) -> str:
    """A phase in [pi/6, 5pi/6]: |sin(phi)| >= 1/2 keeps the X criterion usable."""
    return f"{rng.uniform(math.pi / 6.0, 5.0 * math.pi / 6.0):.6f}"


# -- grid_sweep -------------------------------------------------------------------


def _axis(rng) -> tuple[str, str, str]:
    """A 21-point axis starting in [0.8, 0.9] with a step in [0.005, 0.01],
    ending at or below 1. Fixed length keeps every block's row count equal."""
    start = int(rng.integers(800, 901))  # 1e-3 units
    step = int(rng.integers(50, (1000 - start) // 2 + 1))  # 1e-4 units
    stop = 10 * start + 20 * step  # 1e-4 units, <= 10000
    return f"{start / 1000:.3f}", f"{stop / 10000:.4f}", f"{step / 10000:.4f}"


AXIS_POINTS = 21


def _sweep_op(kind, n_quanta, phi, which, axis, filename, grid_2d, rows, matrix_row):
    start, stop, step = axis
    argv = [
        "sweep", "--n", str(n_quanta), "--phi", phi, "--criterion", which,
        "--start", start, "--stop", stop, "--step", step, "-o", filename,
    ]
    if grid_2d:
        argv.append("--grid-2d")
    return Op(
        kind=kind,
        units=rows,
        argv=argv,
        ref={"file": filename, "n": n_quanta, "phi": cli.parse_phase(phi), "which": which,
             "matrix_row": matrix_row},
    )


def grid_block(rng, index: int) -> list[Op]:
    """Five symmetric P axes at the caption phases (the fig1 shape), five
    symmetric X axes at seeded discriminating phases, one 21 x 21 product grid
    at N = 2, phi = pi/2 (the fig2 shape). Two rows per block, one from the
    product grid and one from a seeded axis, go to the dense matrix route."""
    ops = []
    checked_axis = int(rng.integers(0, 10))
    for i, n_quanta in enumerate([1, 2, 3, 4, 5] * 2):
        which = "p" if i < 5 else "x"
        phi = CAPTION_PHASE[n_quanta] if which == "p" else _discriminating_phase(rng)
        row = int(rng.integers(0, AXIS_POINTS)) if i == checked_axis else None
        ops.append(_sweep_op(
            f"sweep_axis_{which}", n_quanta, phi, which, _axis(rng),
            f"b{index}-axis{i}.csv", False, AXIS_POINTS, row,
        ))
    ops.append(_sweep_op(
        "sweep_grid", 2, "pi/2", "p", _axis(rng), f"b{index}-grid.csv", True,
        AXIS_POINTS**2, int(rng.integers(0, AXIS_POINTS**2)),
    ))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _float_field(text: str) -> float:
    value = float(text)
    if f"{value:.17g}" != text:
        raise ValueError(f"{text!r} does not round-trip at 17 digits")
    return value


def check_sweep(op: Op, result: dict, out_dir: str):
    bad = _unexpected_code(op, result)
    if bad:
        return bad
    path = os.path.join(out_dir, op.ref["file"])
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if tuple(rows[0]) != cli.SWEEP_COLUMNS:
        return f"{op.ref['file']}: header {rows[0]} is not the fixed schema"
    body = rows[1:]
    if len(body) != op.units:
        return f"{op.ref['file']}: {len(body)} rows, expected {op.units}"
    for i, fields in enumerate(body):
        if len(fields) != len(cli.SWEEP_COLUMNS):
            return f"{op.ref['file']} row {i}: {len(fields)} fields"
        rec = dict(zip(cli.SWEEP_COLUMNS, fields))
        if rec["error"]:
            return f"{op.ref['file']} row {i}: error {rec['error']}"
        try:
            values = {k: _float_field(rec[k]) for k in
                      ("phi", "eta_a", "eta_b", "var_number", "var_quadN", "commutator", "E")}
        except ValueError as exc:
            return f"{op.ref['file']} row {i}: {exc}"
        if int(rec["N"]) != op.ref["n"] or rec["criterion"] != op.ref["which"]:
            return f"{op.ref['file']} row {i}: N/criterion {rec['N']}/{rec['criterion']}"
        if values["phi"] != op.ref["phi"]:
            return f"{op.ref['file']} row {i}: phi {values['phi']!r} != {op.ref['phi']!r}"
        args = (op.ref["n"], values["phi"], values["eta_a"], values["eta_b"], op.ref["which"],
                values["var_number"], values["var_quadN"], values["commutator"])
        bad = _check_report_fields(*args, values["E"], rec["violated"] == "true")
        if bad is None and i == op.ref["matrix_row"]:
            bad = _check_against_dense(*args)
        if bad:
            return f"{op.ref['file']} row {i}: {bad}"
    return None


# -- point_queries -----------------------------------------------------------------

#: Fixed-efficiency ranges that keep a crossing inside the (0.5, 1) bracket at
#: the caption phase. Holding eta_b fixed needs eta_b above the eta_a = 1
#: threshold of the other mode (0.83, 0.91, 0.993, 0.9986 for N = 1..4).
THRESHOLD_FIXED_RANGE = {
    "fix_eta_a": {1: (0.9, 1.0), 2: (0.9, 1.0), 3: (0.9, 1.0), 4: (0.9, 1.0)},
    "fix_eta_b": {1: (0.9, 1.0), 2: (0.95, 1.0), 3: (0.995, 1.0), 4: (0.999, 1.0)},
}
#: eta_b held here leaves E >= 1 up to eta_a = 1 for N >= 2: no crossing.
NO_CROSSING_RANGE = (0.6, 0.85)


def _eval_op(rng, n_quanta: int, matrix_check: bool) -> Op:
    which = "p" if rng.random() < 0.5 else "x"
    phi = CAPTION_PHASE[n_quanta] if which == "p" else _discriminating_phase(rng)
    eta_a, eta_b = _eta(rng, 0.8, 1.0), _eta(rng, 0.8, 1.0)
    argv = ["eval", "--n", str(n_quanta), "--phi", phi, "--criterion", which,
            "--eta-a", eta_a, "--eta-b", eta_b]
    return Op(kind="eval", units=1, argv=argv,
              ref={"n": n_quanta, "phi": cli.parse_phase(phi), "which": which,
                   "eta": (float(eta_a), float(eta_b)), "matrix": matrix_check})


def _nondiscriminating_op(rng) -> Op:
    n_quanta = int(rng.integers(1, 6))
    if rng.random() < 0.5:
        which, phi = "p", ("pi/2" if n_quanta % 2 == 1 else "0")
    else:
        which, phi = "x", ("0" if rng.random() < 0.5 else "pi")
    argv = ["eval", "--n", str(n_quanta), "--phi", phi, "--criterion", which,
            "--eta-a", _eta(rng, 0.8, 1.0), "--eta-b", _eta(rng, 0.8, 1.0)]
    return Op(kind="eval_nondiscriminating", units=1, argv=argv, expect_code=2)


def _threshold_op(rng, n_quanta: int) -> Op:
    which = "p" if rng.random() < 0.5 else "x"
    phi = CAPTION_PHASE[n_quanta] if which == "p" else "pi/2"
    mode = ("symmetric", "fix_eta_a", "fix_eta_b")[int(rng.integers(0, 3))]
    argv = ["threshold", "--n", str(n_quanta), "--phi", phi, "--criterion", which]
    fixed = None
    if mode != "symmetric":
        fixed = _eta(rng, *THRESHOLD_FIXED_RANGE[mode][n_quanta])
        argv += ["--" + mode.replace("_", "-"), fixed]
    return Op(kind="threshold", units=1, argv=argv,
              ref={"n": n_quanta, "phi": cli.parse_phase(phi), "which": which, "mode": mode,
                   "fixed": None if fixed is None else float(fixed)})


def _no_crossing_op(rng) -> Op:
    n_quanta = int(rng.integers(2, 5))
    argv = ["threshold", "--n", str(n_quanta), "--phi", CAPTION_PHASE[n_quanta],
            "--fix-eta-b", _eta(rng, *NO_CROSSING_RANGE)]
    return Op(kind="threshold_no_crossing", units=1, argv=argv, expect_code=1)


def point_block(rng, index: int) -> list[Op]:
    """Five evals (N = 1..5, protocol_rhs included for N <= 3), one eval at a
    nondiscriminating phase (exit 2), five thresholds (N = 1..4 and one seeded
    N, seeded mode), one threshold with no crossing in its bracket (exit 1).
    Every other block, on average, sends one seeded eval to the dense matrix
    route.

    Five cheap ops (under 7 ms), two evals with protocol_rhs at N = 2, 3
    (about 15 ms) and five thresholds (25 ms and up) put the median op in the
    middle of the two-eval group, away from the gaps on either side of it."""
    del index
    checked = int(rng.integers(0, 10))
    ops = [_eval_op(rng, n, checked == n - 1) for n in range(1, 6)]
    ops.append(_nondiscriminating_op(rng))
    ops += [_threshold_op(rng, n) for n in (1, 2, 3, 4, int(rng.integers(1, 5)))]
    ops.append(_no_crossing_op(rng))
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def _channel_for(mode: str, fixed: float | None, eta: float) -> lossy.LossChannel:
    if mode == "symmetric":
        return _channel(eta, eta)
    if mode == "fix_eta_a":
        return _channel(fixed, eta)
    return _channel(eta, fixed)


def check_point(op: Op, result: dict, out_dir: str):
    del out_dir
    bad = _unexpected_code(op, result)
    if bad:
        return bad
    if op.kind == "eval_nondiscriminating":
        if result["stdout"] or "nondiscriminating phase" not in result["stderr"]:
            return f"{op.argv}: expected an empty stdout and a nondiscriminating-phase message"
        return None
    if op.kind == "threshold_no_crossing":
        if result["stdout"] or "no crossing of 1 inside the bracket" not in result["stderr"]:
            return f"{op.argv}: expected NoThresholdInBracket, got {result['stderr'].strip()[:200]}"
        return None
    (payload,) = json.loads(result["stdout"])
    ref = op.ref
    if op.kind == "threshold":
        eta_star = payload["eta_star"]
        lo, hi = eta_star - THRESHOLD_WIDTH, min(eta_star + THRESHOLD_WIDTH, 1.0)

        def e_at(eta):
            return steering.steering_functional(
                ref["n"], ref["phi"], _channel_for(ref["mode"], ref["fixed"], eta), ref["which"]
            ).E

        if not e_at(lo) >= 1.0 > e_at(hi):
            return f"{op.argv}: eta*={eta_star} does not bracket E = 1 within {THRESHOLD_WIDTH}"
        return None
    eta_a, eta_b = ref["eta"]
    args = (ref["n"], ref["phi"], eta_a, eta_b, ref["which"],
            payload["var_number"], payload["var_quadN"], payload["commutator"])
    bad = _check_report_fields(*args, payload["E"], payload["violated"])
    if bad:
        return f"{op.argv}: {bad}"
    rhs = payload["protocol_rhs"]
    if ref["n"] <= 3:
        if rhs is None or abs(rhs - payload["commutator"] / 2.0) > ROUTE_TOL:
            return f"{op.argv}: protocol_rhs={rhs!r} vs commutator/2 (criterion 7)"
    elif rhs is not None:
        return f"{op.argv}: protocol_rhs reported for N > 3"
    if ref["matrix"]:
        bad = _check_against_dense(*args)
        if bad:
            return f"{op.argv}: {bad}"
    return None


# -- sampler -------------------------------------------------------------------------


def _sample_op(n_quanta: int, eta_a: str, eta_b: str, seed: int) -> Op:
    argv = ["sample", "--n", str(n_quanta), "--phi", CAPTION_PHASE[n_quanta],
            "--criterion", "p", "--eta-a", eta_a, "--eta-b", eta_b,
            "--shots", str(SHOTS), "--bins", str(SAMPLER_BINS), "--seed", str(seed)]
    return Op(kind=f"sample_n{n_quanta}", units=SHOTS, argv=argv,
              ref={"n": n_quanta, "phi": cli.parse_phase(CAPTION_PHASE[n_quanta]),
                   "eta": (float(eta_a), float(eta_b))})


def sampler_block(rng, index: int) -> list[Op]:
    """One 10^6-shot estimate for each of N = 1, 2, 3 in seeded order, at the
    caption phase, eta_a, eta_b in [0.9, 1] and a seeded sampler seed."""
    del index
    return [
        _sample_op(int(n), _eta(rng, 0.9, 1.0), _eta(rng, 0.9, 1.0), int(rng.integers(0, 2**31)))
        for n in rng.permutation([1, 2, 3])
    ]


def check_sample(op: Op, result: dict, out_dir: str):
    del out_dir
    bad = _unexpected_code(op, result)
    if bad:
        return bad
    (payload,) = json.loads(result["stdout"])
    ref = op.ref
    exact = steering.steering_functional(ref["n"], ref["phi"], _channel(*ref["eta"]), "p")
    for label, want in (("E_hat", exact.E), ("var_number", exact.var_number),
                        ("var_quadN", exact.var_quadrature_n), ("commutator", exact.commutator_modulus)):
        stderr_key = "stderr" if label == "E_hat" else f"{label}_stderr"
        pull = (payload[label] - want) / payload[stderr_key]
        if not abs(pull) <= SAMPLER_SIGMAS:
            return f"{op.argv}: {label}={payload[label]!r} is {pull:+.2f} sigma from analytic {want!r}"
    return None


# -- matrix_oracle -------------------------------------------------------------------


def coherent_vector(alpha: complex, dim: int) -> np.ndarray:
    """Coherent-state amplitudes truncated at ``dim`` and renormalized."""
    amps = np.zeros(dim, dtype=complex)
    amps[0] = 1.0
    for n in range(1, dim):
        amps[n] = amps[n - 1] * alpha / math.sqrt(n)
    return amps / np.linalg.norm(amps)


def fock_vector(k: int, dim: int) -> np.ndarray:
    vec = np.zeros(dim, dtype=complex)
    vec[k] = 1.0
    return vec


def _product(vec_a: np.ndarray, vec_b: np.ndarray) -> np.ndarray:
    joint = np.outer(vec_a, vec_b).ravel()
    return np.outer(joint, joint.conj())


def _alpha(rng, radius: float = 1.1) -> complex:
    return radius * math.sqrt(rng.random()) * np.exp(2j * math.pi * rng.random())


def _separable_op(kind: str, matrix: np.ndarray, x_operator: np.ndarray) -> Op:
    rho = lossy.TwoModeDensity(dim=SEPARABLE_DIM, matrix=matrix)
    return Op(kind=kind, units=1, density=rho, operator=x_operator, order=1)


def _noon_op(rng, n_quanta: int) -> Op:
    """A lossy NOON density at the smallest exact cutoff (see ``dense_route``),
    which keeps its triple as cheap as the separable states' regular ones."""
    phi = cli.parse_phase(CAPTION_PHASE[n_quanta])
    eta = (round(rng.uniform(0.7, 1.0), 4), round(rng.uniform(0.7, 1.0), 4))
    rho = lossy.lossy_noon_density(n_quanta, phi, _channel(*eta), dim=2 * n_quanta + 2)
    return Op(kind=f"noon_n{n_quanta}", units=1, density=rho,
              operator=steering.protocol_combination(n_quanta, "p", rho.dim), order=n_quanta,
              ref={"n": n_quanta, "phi": phi, "eta": eta})


def matrix_block(rng, index: int) -> list[Op]:
    """Separable states in the criterion-9 suite's proportions (8 coherent x
    coherent : 4 Fock x Fock : 4 coherent x Fock : 4 mixtures), so two in five
    have an identically zero conditional <X> and hit the degenerate
    ``integrate_abs`` path; plus lossy NOON densities for N = 1, 2, 3."""
    del index
    dim = SEPARABLE_DIM
    x_operator = operator_matrix("x", dim).matrix
    ops = [
        _separable_op("coherent_coherent", _product(coherent_vector(_alpha(rng), dim),
                                                    coherent_vector(_alpha(rng), dim)), x_operator)
        for _ in range(2)
    ]
    j, k = (int(v) for v in rng.integers(0, 4, size=2))
    ops.append(_separable_op("fock_fock", _product(fock_vector(j, dim), fock_vector(k, dim)), x_operator))
    ops.append(_separable_op("coherent_fock", _product(coherent_vector(_alpha(rng), dim),
                                                       fock_vector(int(rng.integers(0, 4)), dim)),
                             x_operator))
    weights = rng.random(int(rng.integers(2, 4)))
    weights /= weights.sum()
    mix = sum(w * _product(coherent_vector(_alpha(rng), dim), coherent_vector(_alpha(rng), dim))
              for w in weights)
    ops.append(_separable_op("mixture", mix, x_operator))
    ops += [_noon_op(rng, n) for n in (1, 2, 3)]
    order = rng.permutation(len(ops))
    return [ops[i] for i in order]


def check_matrix(op: Op, result: dict, out_dir: str):
    del out_dir
    var_n, var_q, modulus = result["values"]
    if op.kind.startswith("noon"):
        ref = op.ref
        channel = _channel(*ref["eta"])
        exact = (
            inferred.inferred_number_variance(ref["n"], channel),
            inferred.inferred_variance_quadrature(ref["n"], ref["phi"], channel, "p"),
            inferred.inferred_commutator_modulus(ref["n"], ref["phi"], channel, "p"),
        )
        for label, got, want in zip(("var_number", "var_quadN", "commutator"), result["values"], exact):
            if not _close(got, want):
                return f"{op.kind} eta={ref['eta']}: {label}={got!r} vs analytic {want!r}"
        return None
    if math.sqrt(max(var_n, 0.0) * max(var_q, 0.0)) < modulus / 2.0 - SEPARABLE_MARGIN:
        return f"{op.kind}: separable state violates the inequality ({var_n!r}, {var_q!r}, {modulus!r})"
    return None


# -- the table ------------------------------------------------------------------------

_COLD_CHANNEL = ["--eta-a", "0.95", "--eta-b", "0.95"]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid_sweep", unit="rows", block=grid_block, check=check_sweep,
            setup=lambda: Op(kind="cold_sweep", units=121, argv=[
                "sweep", "--n", "2", "--phi", "pi/2", "--grid-2d",
                "--start", "0.9", "--stop", "1.0", "--step", "0.01", "-o", "cold.csv"]),
            traced_blocks=6, tail_rule="ten_beyond",
        ),
        Workload(
            name="point_queries", unit="queries", block=point_block, check=check_point,
            setup=lambda: Op(kind="cold_eval", units=1,
                     argv=["eval", "--n", "2", "--phi", "pi/2", *_COLD_CHANNEL]),
            traced_blocks=20, tail_rule="ten_beyond",
        ),
        Workload(
            name="sampler", unit="shots", block=sampler_block, check=check_sample,
            setup=lambda: Op(kind="cold_sample", units=SHOTS, argv=[
                "sample", "--n", "2", "--phi", "pi/2", *_COLD_CHANNEL,
                "--shots", str(SHOTS), "--bins", str(SAMPLER_BINS), "--seed", "1"]),
            traced_blocks=3, tail_rule="max",
        ),
        Workload(
            name="matrix_oracle", unit="states", block=matrix_block, check=check_matrix,
            setup=lambda: _noon_op(np.random.default_rng(0), 2),
            traced_blocks=1, tail_rule="max",
        ),
    )
}
