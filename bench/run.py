"""noonsteer benchmark: one seeded closed-loop workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.

``--trace 0`` measures end to end: the set-up time of fresh processes, then
whole blocks of ops until ``S`` seconds have passed, then the reference
checks, outside the timed region. ``--trace 1`` runs a fixed number of
blocks twice, untraced and then traced with every lazy table cleared, and
reports per-layer numbers and the tracing overhead; a fixed op list makes the
counts repeat exactly across runs of one seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Each run is also
appended to ``bench/out/runs.jsonl`` with the machine, commit, seed and op
count, and a traced run writes its spans to ``bench/out/spans-<workload>.json``.
"""

from __future__ import annotations

import os

# One caller, one BLAS thread: pinned before numpy is imported here or in a child.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
#: Fresh processes timed per run; set-up time is their median.
SETUP_REPEATS = 5
#: A set-up process that takes longer than this is killed and counted failed.
SETUP_TIMEOUT_S = 120
OUTPUT_DIR_ENV = "NOONSTEER_OUTPUT_DIR"

if not (SRC / "noonsteer" / "__init__.py").is_file():
    sys.exit(f"error: {SRC / 'noonsteer'} not found; run from a noonsteer checkout")
sys.path[:0] = [str(SRC), str(BENCH)]

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def timed_pass(block_source, seconds, tracer=None):
    """Run whole blocks, closed loop, until ``seconds`` of wall time have
    passed (``None``: every block given).

    Returns (op, result, latency_s, block_index) per op."""
    results = []
    start = time.perf_counter()
    for block_index, block in enumerate(block_source):
        for op in block:
            op_id = len(results)
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    result = workloads.execute(op)
                else:
                    with tracer.op_span(op_id, op.kind):
                        result = workloads.execute(op)
            except Exception:  # an op that raises is a failed op; the loop goes on
                result = {"exception": traceback.format_exc(limit=3)}
            results.append((op, result, time.perf_counter() - t0, block_index))
        if seconds is not None and time.perf_counter() - start >= seconds:
            break
    return results


def check_results(workload, results, out_dir):
    """Failure messages, one per failed op (reference checks, not timed)."""
    failures = []
    for op, result, *_ in results:
        if "exception" in result:
            failures.append(f"{op.kind} raised: {result['exception']}")
            continue
        try:
            message = workload.check(op, result, out_dir)
        except Exception:  # malformed output the check could not parse
            message = f"{op.kind}: check raised {traceback.format_exc(limit=2)}"
        if message:
            failures.append(message)
    return failures


def measure_setup(workload, out_dir):
    """Wall time of fresh processes that import noonsteer and run one cold op."""
    env = dict(os.environ, **{OUTPUT_DIR_ENV: out_dir})
    times, failures = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "cold.py"), workload.name],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=SETUP_TIMEOUT_S, text=True,
            )
        except subprocess.TimeoutExpired:
            failures.append(f"set-up process killed after {SETUP_TIMEOUT_S}s")
            times.append(float(SETUP_TIMEOUT_S))
            continue
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            failures.append(f"set-up process exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return times, failures


def tail_latency(latencies, rule):
    """(seconds, label): the latency with ten ops beyond it, or the slowest op
    where a run holds fewer than 20 ops and that percentile is no tail."""
    ordered = sorted(latencies)
    n = len(ordered)
    if rule == "ten_beyond" and n >= 20:
        return ordered[n - 11], f"p{100.0 * (n - 10) / n:.2f} of {n} ops"
    return ordered[-1], f"max of {n} ops (too few for ten beyond a percentile)"


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name in ("sampling.acceptance", "sampling.bins_kept", "trace.overhead"):
        return "ratio"
    return "count"


def run_untraced(workload, seed, seconds, out_dir):
    setup_times, setup_failures = measure_setup(workload, out_dir)
    results = timed_pass(workloads.blocks(workload, seed), seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    failures = setup_failures + check_results(workload, results, out_dir)

    latencies = [lat for _, _, lat, _ in results]
    units = sum(op.units for op, *_ in results)
    tail_s, tail_label = tail_latency(latencies, workload.tail_rule)
    metrics = {
        "throughput": (units / sum(latencies), "1/s"),
        "op_ms_p50": (1e3 * statistics.median(latencies), "ms"),
        "op_ms_tail": (1e3 * tail_s, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    attempted = len(results) + SETUP_REPEATS
    by_kind, block_time, block_units = {}, {}, {}
    for op, _, lat, block in results:
        by_kind.setdefault(op.kind, []).append(lat)
        block_time[block] = block_time.get(block, 0.0) + lat
        block_units[block] = block_units.get(block, 0) + op.units
    notes = {
        "throughput_unit": f"{workload.unit}/s",
        "op_ms_tail": tail_label,
        "error_rate": len(failures) / attempted,
        "setup_runs_s": setup_times,
        "ops": len(results),
        "units": units,
        "timed_s": sum(latencies),
        "block_rates": [block_units[b] / block_time[b] for b in sorted(block_time)],
        "op_ms_p50_by_kind": {k: 1e3 * statistics.median(v) for k, v in sorted(by_kind.items())},
    }
    return metrics, attempted, failures, notes


def _same_output(first, second, dirs):
    """The traced pass must reproduce the untraced pass exactly."""
    (op, a, *_), (_, b, *_) = first, second
    if "exception" in a or "exception" in b:
        return "exception" in a and "exception" in b
    if op.argv is None:
        return a["values"] == b["values"]
    if a["code"] != b["code"] or a["stdout"] != b["stdout"]:
        return False
    if "file" in op.ref:
        texts = [Path(d, op.ref["file"]).read_bytes() for d in dirs]
        return texts[0] == texts[1]
    return True


def run_traced(workload, seed, out_dir):
    block_list = list(itertools.islice(workloads.blocks(workload, seed), workload.traced_blocks))
    dirs = [os.path.join(out_dir, "untraced"), os.path.join(out_dir, "traced")]

    tables = tracing.cache_tables()
    os.environ[OUTPUT_DIR_ENV] = dirs[0]
    # warm the process (allocator, first-touch pages) so that neither pass pays it
    workloads.execute(workload.setup())
    for table in tables.values():
        table.cache_clear()
    plain = timed_pass(block_list, None)

    for table in tables.values():
        table.cache_clear()
    tracer = tracing.Tracer()
    os.environ[OUTPUT_DIR_ENV] = dirs[1]
    tracer.install()
    try:
        traced = timed_pass(block_list, None, tracer)
    finally:
        tracer.remove()
    deltas = {name: (t.cache_info().hits, t.cache_info().misses) for name, t in tables.items()}

    mismatches = [
        f"{a[0].kind}: traced output differs from untraced output"
        for a, b in zip(plain, traced) if not _same_output(a, b, dirs)
    ]
    failures = mismatches + check_results(workload, traced, dirs[1])

    grid_ops = {i: r[0].units for i, r in enumerate(traced) if r[0].kind == "sweep_grid"}
    layer = tracing.layer_metrics(tracer.spans, deltas, grid_ops)
    plain_s = sum(r[2] for r in plain)
    traced_s = sum(r[2] for r in traced)
    layer["trace.overhead"] = traced_s / plain_s - 1.0
    metrics = {name: (value, metric_unit(name)) for name, value in layer.items()}

    notes = {
        "ops": len(traced),
        "blocks": workload.traced_blocks,
        "spans": len(tracer.spans),
        "untraced_s": plain_s,
        "traced_s": traced_s,
        "error_rate": len(failures) / len(traced),
    }
    return metrics, len(traced), failures, notes, tracer


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def machine_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]

    OUT.mkdir(exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    os.environ[OUTPUT_DIR_ENV] = out_dir
    try:
        if args.trace:
            metrics, attempted, failures, notes, tracer = run_traced(workload, args.seed, out_dir)
            spans_path = OUT / f"spans-{workload.name}.json"
            tracer.write(str(spans_path))
            notes["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            metrics, attempted, failures, notes = run_untraced(workload, args.seed, args.seconds, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": git_commit(), "machine": machine_info(), **notes,
        "metrics": {name: value for name, (value, _) in metrics.items()},
        "failures": failures[:20],
    }
    with open(OUT / "runs.jsonl", "a") as handle:
        handle.write(json.dumps(record) + "\n")

    print(f"{workload.name} seed={args.seed} trace={args.trace}: {notes['ops']} ops, "
          f"{len(failures)} failed of {attempted}, error_rate={notes['error_rate']:.4g}")
    for name, (value, unit) in metrics.items():
        shown = notes["throughput_unit"] if name == "throughput" else unit
        extra = f"  [{notes['op_ms_tail']}]" if name == "op_ms_tail" else ""
        print(f"  {name:48s} {value:14.6g} {shown}{extra}")
    for message in failures[:5]:
        print(f"  FAILED: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
