"""Benchmark of the conedef command line.

    python3 perfbench/run.py --workload plane-chase --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the package is used from ``src``
and is not installed.  ``--trace 0`` runs the real CLI as a closed loop
(one client, one subprocess at a time) for ``--seconds`` seconds and
prints the end-to-end metrics.  ``--trace 1`` calls ``conedef.cli.main``
in-process on the same command list, alternating untraced and traced
passes, and prints the per-layer metrics.  Every output is checked
against :mod:`perfbench.oracle`.  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(ROOT))

from perfbench import oracle, tracer, workloads  # noqa: E402

SETUP_SAMPLES = 9  # at least; one more after every round
REFERENCE_LOOP = 100_000
REFERENCE_S = 0.008  # the reference loop's time on the nominal machine
IMPORT_SAMPLES = 5
COMMAND_TIMEOUT_S = 60.0
GRACE_S = 30.0  # past --seconds, stop starting commands even mid-round
IMPORT_PROBE = "import time; t = time.perf_counter(); import conedef.cli; print(time.perf_counter() - t)"


def fail(message: str) -> None:
    sys.stderr.write(f"perfbench: {message}\n")
    sys.exit(1)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("CONEDEF_TRACE", None)
    return env


def spawn(argv: list[str], env: dict, timeout: float = COMMAND_TIMEOUT_S) -> tuple[subprocess.CompletedProcess, float]:
    """Run one process to completion; returns it and its spawn-to-exit wall time."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, timeout=timeout)
    return proc, perf_counter() - t0


def cli_argv(args) -> list[str]:
    return ["-m", "conedef", *args]


def set_up(env: dict) -> None:
    """Check that the CLI starts; the first start also writes the bytecode
    caches."""
    if not (SRC / "conedef" / "cli.py").is_file():
        fail(f"no conedef sources under {SRC.name}/conedef; run from a checkout of the repository")
    proc, _ = spawn(cli_argv(["--help"]), env)
    if proc.returncode != 0:
        fail(f"the CLI does not start: {proc.stderr.decode(errors='replace').strip()}")


def reference_time() -> float:
    """Wall time of a fixed pure-Python loop that does not touch conedef:
    how fast the machine runs Python right now."""
    t0 = perf_counter()
    total = 0
    for i in range(REFERENCE_LOOP):
        total += i * i
    return perf_counter() - t0


def scaled(wall: float, ref_before: float, ref_after: float) -> float:
    """``wall`` in seconds of a machine that runs the reference loop in
    REFERENCE_S: the host's speed drifts by tens of percent from minute to
    minute, and the loop timed on either side of a command tracks it."""
    return wall * REFERENCE_S * 2 / (ref_before + ref_after)


class ScaledClock:
    """Times spawned processes and the reference loop between them."""

    def __init__(self, env: dict) -> None:
        self.env = env
        self.walls: list[float] = []
        self.refs = [reference_time()]  # refs[i] and refs[i + 1] bracket walls[i]

    def spawn(self, argv: list[str]) -> tuple[subprocess.CompletedProcess, int]:
        proc, wall = spawn(argv, self.env)
        self.walls.append(wall)
        self.refs.append(reference_time())
        return proc, len(self.walls) - 1

    def scaled(self, i: int) -> float:
        return scaled(self.walls[i], self.refs[i], self.refs[i + 1])


class Checker:
    """Oracle plus byte identity across repeats of one argv."""

    def __init__(self) -> None:
        self.first: dict[tuple[str, ...], bytes] = {}
        self.attempted = 0
        self.failed = 0

    def record(self, cmd: workloads.Command, problems: list[str], stdout: bytes | None = None) -> None:
        self.attempted += 1
        if stdout is not None and self.first.setdefault(cmd.argv, stdout) != stdout:
            problems = problems + ["stdout differs from an earlier run of the same command"]
        if problems:
            self.failed += 1
            if self.failed <= 10:
                sys.stderr.write(f"FAILED {cmd.text()}: {'; '.join(problems)}\n")


def tail(walls: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(walls)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_e2e(cmds: list[workloads.Command], opts) -> dict:
    """Closed loop, one client: replay the round, reshuffled, until
    ``opts.seconds`` have passed.  A set-up sample (``--help``) is taken at
    start and after every round, so its median sees the whole run."""
    env = child_env()
    set_up(env)
    clock = ScaledClock(env)
    setup_idx = [clock.spawn(cli_argv(["--help"]))[1]]
    rng = random.Random(f"{opts.workload}/{opts.seed}/order")
    check = Checker()
    cmd_idx: list[int] = []
    rounds = 0
    t0 = perf_counter()
    while perf_counter() - t0 < opts.seconds:
        order = list(cmds)
        rng.shuffle(order)
        for cmd in order:
            if perf_counter() - t0 > opts.seconds + GRACE_S:
                break
            try:
                proc, i = clock.spawn(cli_argv(cmd.argv))
            except subprocess.TimeoutExpired:
                check.record(cmd, [f"no exit within {COMMAND_TIMEOUT_S} s"])
                continue
            cmd_idx.append(i)
            check.record(cmd, oracle.check(cmd, proc.returncode, proc.stdout.decode(errors="replace")), proc.stdout)
        rounds += 1
        setup_idx.append(clock.spawn(cli_argv(["--help"]))[1])
        if perf_counter() - t0 > opts.seconds + GRACE_S:
            break
    while len(setup_idx) < SETUP_SAMPLES:
        setup_idx.append(clock.spawn(cli_argv(["--help"]))[1])
    if not cmd_idx:
        fail("no command completed")
    walls = [clock.scaled(i) for i in cmd_idx]
    raw = [clock.walls[i] for i in cmd_idx]
    setup = [clock.scaled(i) for i in setup_idx]
    tail_s, tail_pct = tail(walls)
    print(f"{opts.workload} seed {opts.seed}: {len(walls)} commands, {rounds} rounds of {len(cmds)}, {perf_counter() - t0:.2f} s")
    print(f"cmd_tail_s is p{tail_pct:.1f} of {len(walls)} commands; setup_s is the median of {len(setup)} --help runs")
    print(f"unscaled: setup {statistics.median(clock.walls[i] for i in setup_idx):.4f} s, {len(raw) / sum(raw):.3f} cmds/s, "
          f"p50 {statistics.median(raw):.4f} s, tail {tail(raw)[0]:.4f} s; reference loop median {statistics.median(clock.refs):.5f} s")
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "cmds_per_s": (len(walls) / sum(walls), "1/s"),
        "cmd_p50_s": (statistics.median(walls), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024, "MB"),
        "ok_frac": ((check.attempted - check.failed) / check.attempted, "ratio"),
    }
    return result(check, metrics)


# ---- traced in-process pass ---------------------------------------------


def call_main(cli, argv: tuple[str, ...]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects before main's handlers
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # what the CLI would end with a traceback and exit 1
            traceback.print_exc(file=sys.__stderr__)
            rc = 1
    return rc, out.getvalue()


def one_pass(cli, cmds, check: Checker, trace: tracer.Tracer | None) -> tuple[float, int]:
    """Run the command list once in-process; returns (wall, stdout bytes)."""
    out_bytes = 0
    t0 = perf_counter()
    for cmd in cmds:
        if trace is not None:
            trace.begin_command()
        rc, out = call_main(cli, cmd.argv)
        encoded = out.encode()
        out_bytes += len(encoded)
        check.record(cmd, oracle.check(cmd, rc, out), encoded)
    return perf_counter() - t0, out_bytes


def run_traced(cmds: list[workloads.Command], opts) -> dict:
    env = child_env()
    set_up(env)
    import_s = statistics.median(float(spawn(["-c", IMPORT_PROBE], env)[0].stdout) for _ in range(IMPORT_SAMPLES))
    sys.path.insert(0, str(SRC))
    import conedef.cli as cli

    check = Checker()
    trace = tracer.Tracer()
    untraced, traced, selfs = [], [], []
    first_spans = None
    counts = None
    t0 = perf_counter()
    while not traced or perf_counter() - t0 < opts.seconds:
        untraced.append(one_pass(cli, cmds, check, None)[0])
        trace.reset()
        trace.install()
        try:
            wall, out_bytes = one_pass(cli, cmds, check, trace)
        finally:
            trace.uninstall()
        traced.append(wall)
        spans = trace.spans
        selfs.append(tracer.self_times(spans))
        pass_counts = {**dict(trace.counts), **{f"{k}.calls": v for k, v in tracer.layer_calls(spans).items()}}
        if counts is None:
            counts, first_spans = pass_counts, spans
        elif pass_counts != counts:
            check.failed += 1
            sys.stderr.write("FAILED: work counts differ between two traced passes of one command list\n")
    write_spans(opts, first_spans)

    wrapped_layers = {layer for layer, _ in trace.wrapped}
    wrapped_names = set(trace.wrapped)
    for name in trace.missing:
        sys.stderr.write(f"missing: {name} is in the trace table but not in the package\n")
    silent = trace.silent_layers(opts.workload)
    for layer in silent:
        sys.stderr.write(f"silent: no wrapper of layer {layer} fired on {opts.workload}\n")
    print(f"{opts.workload} seed {opts.seed}: {len(traced)} traced and {len(untraced)} untraced passes of {len(cmds)} commands")
    print(f"never fired on this workload: {', '.join(trace.never_fired()) or 'none'}")

    metrics: dict[str, tuple[float, str]] = {}
    for layer in tracer.TABLE:
        if layer in wrapped_layers:
            metrics[f"{layer}.self_s"] = (statistics.median(s.get(layer, 0.0) for s in selfs), "s")
    for layer in ("cones", "projective", "p1", "presentation", "polynomials"):
        if layer in wrapped_layers:
            metrics[f"{layer}.calls"] = (counts.get(f"{layer}.calls", 0), "count")
    if any(layer == "linalg" and name in tracer.ELIMINATIONS for layer, name in wrapped_names):
        for key in ("elims", "cells", "max_cells", "nnz", "rank_sum", "repeat_elims"):
            metrics[f"linalg.{key}"] = (int(counts.get(f"linalg.{key}", 0)), "count")
        cells = counts.get("linalg.cells", 0)
        metrics["linalg.density"] = (counts.get("linalg.nnz", 0) / cells if cells else 0.0, "ratio")
    for key, source in tracer.SOURCES.items():
        if source in wrapped_names:
            metrics[key] = (int(counts.get(key, 0)), "count")
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.out_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_frac"] = (statistics.median(traced) / statistics.median(untraced) - 1, "ratio")
    metrics["trace.missing_names"] = (len(trace.missing), "count")
    metrics["trace.silent_layers"] = (len(silent), "count")
    return result(check, metrics)


def write_spans(opts, spans: list[tracer.Span]) -> None:
    """The spans of the first traced pass, one JSON object per line."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{opts.workload}-{opts.seed}.jsonl"
    with path.open("w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "parent": s.parent, "layer": s.layer, "name": s.name, "s": s.duration}) + "\n")
    print(f"spans of the first traced pass: {path.relative_to(ROOT)}")


def result(check: Checker, metrics: dict[str, tuple[float, str]]) -> dict:
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value} {unit}")
    return {
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args()
    cmds = workloads.generate(opts.workload, opts.seed)
    out = run_traced(cmds, opts) if opts.trace else run_e2e(cmds, opts)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
