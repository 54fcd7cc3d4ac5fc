#!/usr/bin/env python3
"""Fingerprint the CLI's output: one sha256 per invocation, one subtotal per
subcommand, then a total.

    python3 scripts/cli_digest.py            # every digest, the subtotals, the total
    python3 scripts/cli_digest.py | tail -6  # the subtotals and the total
    python3 scripts/cli_digest.py | tail -1  # the total only

Runs a fixed list of ``noonsteer`` invocations in this process through
``cli.main``: eval, sweep, threshold and sample in JSON and CSV, both figure
presets, shot logs, usage errors, lossless and lossy orders at and past the
supported wavefunction order, even orders at eta_a = 1 (the deepest quadrature
refinement), and the exit codes 0, 1, 2 and 3. Each digest covers the
exit code, stdout, stderr and every file the call wrote; an exception that
escapes ``cli.main`` stands in for the exit code as ``raised <Class>``.
The calls run inside a temporary directory, removed afterwards, so nothing is
written elsewhere. Run it at two commits to show a change leaves every output
byte as it was: the totals then agree. A change meant to move only one
subcommand's output shows the other subtotals agree; each subtotal hashes
the digests of the eval, sweep, threshold or sample calls in order, and
"other" those of every call whose first argument is none of these.
"""

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from noonsteer import cli  # noqa: E402

PHASES = ("0", "pi/4", "pi/2", "3pi/4")
SUBCOMMANDS = ("eval", "sweep", "threshold", "sample", "other")
CAPTION = {1: "0", 2: "pi/2", 3: "0", 4: "pi/2", 5: "0"}


def invocations() -> list[list[str]]:
    calls = []
    fmt = ("json", "csv")
    for n in range(1, 7):
        for i, which in enumerate(("p", "x")):
            for j, phi in enumerate(PHASES):
                calls.append(["eval", "--n", str(n), "--phi", phi, "--criterion", which,
                              "--eta-a", "0.9", "--eta-b", "0.95", "--format", fmt[(i + j) % 2]])
    for n in range(1, 6):
        calls.append(["eval", "--n", str(n), "--phi", CAPTION[n]])
        for k, (eta_a, eta_b) in enumerate((("0.8", "0.99"), ("0.99", "0.8"), ("1e-3", "1"))):
            calls.append(["eval", "--n", str(n), "--phi", CAPTION[n], "--eta-a", eta_a,
                          "--eta-b", eta_b, "--format", fmt[(n + k) % 2]])
    calls += [
        ["eval", "--n", "2", "--phi", "pi/2", "--eta-a", "0.7", "--eta-b", "1"],
        ["eval", "--n", "1", "--phi", "0", "--eta-a", "0", "--eta-b", "0.5"],
        ["eval", "--n", "1", "--phi", "0", "--output", "out/e.json"],
        ["eval", "--n", "2", "--phi", "pi/2", "--format", "csv", "-o", "out/e.csv"],
        ["eval", "--n", "1", "--phi", "0", "--output", "out"],
    ]
    for n in range(1, 6):
        for i, which in enumerate(("p", "x")):
            phi = CAPTION[n] if which == "p" else "pi/4"
            calls.append(["sweep", "--n", str(n), "--phi", phi, "--criterion", which,
                          "--start", "0.9", "--stop", "1", "--step", "0.02", "--format", fmt[(n + i) % 2]])
    for n, phi, which in ((1, "0", "p"), (2, "pi/2", "p"), (2, "pi/4", "x"), (3, "0", "p")):
        calls.append(["sweep", "--n", str(n), "--phi", phi, "--criterion", which, "--grid-2d",
                      "--start", "0.9", "--stop", "1", "--step", "0.01"])
    calls += [
        ["sweep", "--n", "2", "--phi", "pi/2", "--grid-2d", "--start", "0.8", "--stop", "1",
         "--step", "0.01"],
        ["sweep", "--preset", "fig1"],
        ["sweep", "--preset", "fig2"],
        ["sweep", "--preset", "fig1", "--format", "json"],
        ["sweep", "--preset", "fig2", "-o", "out/fig2.csv"],
        ["sweep", "--n", "2", "--phi", "0", "--start", "0.9", "--stop", "1", "--step", "0.05"],
        ["sweep", "--n", "6", "--phi", "pi/2", "--start", "0.9", "--stop", "1", "--step", "0.05"],
        ["sweep", "--n", "1", "--phi", "0", "--start", "0", "--stop", "0.2", "--step", "0.1"],
        ["sweep", "--n", "2", "--phi", "pi/2", "--grid-2d", "--start", "0", "--stop", "0.2",
         "--step", "0.1", "--format", "json"],
    ]
    for n in range(1, 5):
        for i, which in enumerate(("p", "x")):
            phi = CAPTION[n] if which == "p" else "pi/4"
            for mode in ([], ["--fix-eta-a", "1.0"], ["--fix-eta-b", "1.0"]):
                calls.append(["threshold", "--n", str(n), "--phi", phi, "--criterion", which,
                              *mode, "--format", fmt[(n + i + len(mode)) % 2]])
    calls += [
        ["threshold", "--n", "2", "--phi", "pi/2", "--fix-eta-a", "0.95"],
        ["threshold", "--n", "3", "--phi", "0", "--fix-eta-a", "0.97", "--format", "csv"],
        ["threshold", "--n", "2", "--phi", "pi/2", "--fix-eta-b", "0.97"],
        ["threshold", "--n", "3", "--phi", "0", "--fix-eta-b", "0.99"],
        ["threshold", "--n", "3", "--phi", "0", "--symmetric"],
        ["threshold", "--n", "2", "--phi", "0"],
        ["threshold", "--n", "1", "--phi", "0", "--fix-eta-b", "0.5"],
    ]
    for n in range(1, 4):
        for i, which in enumerate(("p", "x")):
            phi = CAPTION[n] if which == "p" else "pi/4"
            calls.append(["sample", "--n", str(n), "--phi", phi, "--criterion", which,
                          "--eta-a", "0.95", "--eta-b", "0.93", "--shots", "20000",
                          "--seed", str(10 * n + i), "--bins", "20", "--format", fmt[(n + i) % 2]])
    calls += [
        ["sample", "--n", "1", "--phi", "0", "--shots", "1000", "--seed", "3",
         "--shot-log", "out/shots.csv"],
        ["sample", "--n", "2", "--phi", "pi/2", "--shots", "999", "--seed", "4",
         "--shot-log", "shots.csv", "--format", "csv"],
        ["sample", "--n", "1", "--phi", "0", "--shots", "30", "--seed", "1"],
        ["sample", "--n", "1", "--phi", "0", "--shots", "1000", "--shot-log", "missing/x.csv"],
        ["sample", "--n", "1", "--phi", "0", "--shots", "1000", "--shot-log", "out"],
        ["sample", "--n", "2", "--phi", "0", "--shots", "1000"],
        ["sample", "--n", "1", "--phi", "0", "--eta-a", "0", "--shots", "1000"],
    ]
    calls += [
        ["eval", "--n", "0", "--phi", "pi/2"],
        ["eval", "--phi", "nan"],
        ["eval", "--phi", "inf"],
        ["eval", "--phi", "pi/0"],
        ["eval", "--phi", "two-pi"],
        ["eval", "--n", "not-a-number"],
        ["eval", "--eta-a", "1.5"],
        ["eval", "--criterion", "y"],
        ["eval", "--format", "xml"],
        ["sweep", "--step", "0"],
        ["sweep", "--stop=nan"],
        ["sweep", "--start=-inf"],
        ["sweep", "--step", "1e-300"],
        ["sweep", "--n", "0"],
        ["sweep", "--preset", "fig3"],
        ["sweep", "--n", "2", "--phi", "pi/2", "--eta-a", "0.9"],
        ["threshold", "--fix-eta-a", "0.9", "--fix-eta-b", "0.9"],
        ["threshold", "--n", "0"],
        ["threshold", "--n", "2", "--phi", "pi/2", "--eta-b", "0.9"],
        ["sample", "--shots", "0"],
        ["sample", "--phi", "nan"],
        ["bogus"],
        [],
        ["--help"],
        ["eval", "--help"],
        ["sweep", "--help"],
        ["threshold", "--help"],
        ["sample", "--help"],
    ]
    # lossless orders at and past SUPPORTED_WAVEFUNCTION_ORDER = 16
    calls += [["eval", "--n", str(n), "--phi", "pi/2"] for n in (16, 17, 200)]
    calls.append(["sweep", "--n", "200", "--phi", "pi/2", "--start", "0.95", "--stop", "1", "--step", "0.05"])
    # eta_a = 1 at even N, where the variance integral bisects the panels
    # next to the near-real poles of S_N^2 / 4P, also in a sweep row
    calls += [
        ["sweep", "--n", "4", "--phi", "pi/2", "--start", "0.98", "--stop", "1", "--step", "0.01"],
        ["eval", "--n", "2", "--phi", "pi/2", "--eta-a", "1", "--eta-b", "0.9"],
        ["threshold", "--n", "2", "--phi", "pi/2", "--fix-eta-a", "1.0"],
        ["eval", "--n", "8", "--phi", "pi/2", "--criterion", "x"],
        ["sweep", "--n", "12", "--phi", "pi/2", "--start", "0.98", "--stop", "1", "--step", "0.01"],
    ]
    # lossy orders N = 6..16 share the wavefunction range with lossless ones;
    # the N = 12 and 16 threshold scans refine the most
    calls += [
        ["eval", "--n", "10", "--phi", "pi/2", "--eta-a", "0.9", "--eta-b", "0.95"],
        ["eval", "--n", "16", "--phi", "pi/4", "--criterion", "x", "--eta-a", "0.99", "--eta-b", "0.98",
         "--format", "csv"],
        ["eval", "--n", "17", "--phi", "0", "--eta-a", "0.9", "--eta-b", "0.95"],
        ["threshold", "--n", "6", "--phi", "pi/2"],
        ["threshold", "--n", "7", "--phi", "0"],
        ["threshold", "--n", "12", "--phi", "pi/2"],
        ["threshold", "--n", "16", "--phi", "pi/2"],
        ["sweep", "--n", "8", "--phi", "pi/2", "--start", "0.98", "--stop", "1", "--step", "0.005"],
    ]
    return calls


def run(argv: list[str]) -> bytes:
    """Exit code, stdout, stderr and written files of one in-process call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:  # argparse's --help
            code = exc.code
        except Exception as exc:  # an escaped exception is output too
            code = f"raised {type(exc).__name__}"
    record = [repr(argv), repr(code), out.getvalue(), err.getvalue()]
    for path in sorted(Path(".").rglob("*")):
        if path.is_file():
            record += [str(path), path.read_bytes().decode("latin-1")]
            path.unlink()
    return "\0".join(record).encode()


def main():
    os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage to the terminal width
    total = hashlib.sha256()
    subtotals = {name: [hashlib.sha256(), 0] for name in SUBCOMMANDS}
    home = os.getcwd()
    calls = invocations()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            for argv in calls:
                digest = hashlib.sha256(run(argv)).hexdigest()
                total.update(digest.encode())
                subtotal = subtotals[argv[0] if argv and argv[0] in SUBCOMMANDS else "other"]
                subtotal[0].update(digest.encode())
                subtotal[1] += 1
                print(digest, " ".join(argv) or "(no arguments)")
        finally:
            os.chdir(home)
    for name, (subtotal, count) in subtotals.items():
        print(f"{subtotal.hexdigest()} subtotal of {count} {name} invocations")
    print(f"{total.hexdigest()} total of {len(calls)} invocations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
