"""Benchmark of infodecomp: one seeded workload per run, closed loop.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload sid-corpus --seed 1 --seconds 25 --trace 0

One client in one process runs one op at a time, no threads. The workload's
inputs are built from ``--seed`` (the same seed gives the same inputs; the
run prints their digest) and form one pass of ops, split into rounds. Set-up
is repeated ``SETUP_REPEATS`` times, each time importing ``infodecomp``
afresh, and its median is ``setup_s``. One untimed round warms up, then
whole rounds run until ``--seconds`` of wall time have passed, every op of
the pass ran at least once and enough ops ran for the workload's tail
percentile. Every execution of an op is checked against the benchmark's own
reference.

Times are CPU time of this process (``time.process_time``), not wall time.
Every op is single-threaded, CPU-bound Python that does no I/O, so on an
idle machine the two agree; on a shared host the wall time also counts the
time the process waited for a core, which measures the neighbours, not the
program. The run length is wall time.

``throughput_ops_s`` is the median over rounds of ops per CPU second in the
round; ``latency_p50_ms`` and ``latency_tail_ms`` are nearest-rank
percentiles of per-op CPU time, the tail at the workload's fixed percentile
(see ``workloads.Prepared``), printed in the record with the number of
samples beyond it.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs every round
twice, first untraced and then with every public library function wrapped
in a span recorder (see ``tracing.py``), and prints the per-layer metrics
and the tracing overhead: the median over rounds of the untraced rate over
the traced rate, minus one. The spans are written to ``benchmarks/.out/``.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``attempted`` counts the distinct ops of the
pass and ``failed`` those of them that failed a check in any execution, so
both depend only on the seed, not on how many passes fitted in the run; the
record beside them gives the number of executions. The line before it is
the run record: Python version, nproc, seed, input digest, op count, tail
percentile, failed ratio and the first failures. ``correct`` is false when
an op failed for a reason other than the engine defects that
``workloads.is_known_defect`` names; those still count in ``failed``. The
end-to-end ``ok_ratio`` is the share of attempted ops that did not fail:
``failed_ratio`` itself is 0 on three of the four workloads, and a gated
metric must never read 0.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from tracing import Tracer, summarize
from workloads import CLI_IDS, ROOT, SETUPS, is_known_defect, purge_library

OUT = Path(__file__).resolve().parent / ".out"
SETUP_REPEATS = 5
FAILURES_SHOWN = 5


def nearest_rank(sorted_values: list[float], percentile: float) -> float:
    rank = max(1, math.ceil(percentile / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


class Tally:
    """Which distinct ops ran and which failed, over every loop of a run."""

    def __init__(self):
        self.seen: set[int] = set()
        self.failed: set[int] = set()
        self.unexpected: set[int] = set()
        self.executions = 0
        self.failures: list[str] = []

    def fail(self, op, exc: Exception) -> None:
        if id(op) not in self.failed and len(self.failures) < FAILURES_SHOWN:
            self.failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
        self.failed.add(id(op))
        if not is_known_defect(exc):
            self.unexpected.add(id(op))


class Loop:
    """CPU times and per-round rates of one closed-loop measurement."""

    def __init__(self, tally: Tally):
        self.tally = tally
        self.latencies: list[float] = []
        self.by_label: dict[str, list[float]] = {}
        self.round_rates: list[float] = []

    def run(self, prepared, seconds: float, tracer=None, first_round: int = 0,
            min_rounds: int = 1, min_ops: int = 0) -> int:
        """Run whole rounds until ``seconds`` of wall time have passed, at
        least ``min_rounds`` rounds and ``min_ops`` ops ran; returns the index
        of the next round."""
        rounds = prepared.rounds
        tally = self.tally
        cpu = time.process_time
        started = time.perf_counter()
        index = first_round
        while True:
            busy = 0.0
            ops = rounds[index % len(rounds)]
            for op in ops:
                if tracer is not None:
                    tracer.op_id = tally.executions
                tally.executions += 1
                tally.seen.add(id(op))
                t0 = cpu()
                try:
                    out = op.run()
                except Exception as exc:  # an op that raises is a failed op
                    elapsed = cpu() - t0
                    tally.fail(op, exc)
                else:
                    elapsed = cpu() - t0
                    try:
                        op.check(out)
                    except Exception as exc:
                        tally.fail(op, exc)
                busy += elapsed
                self.latencies.append(elapsed)
                self.by_label.setdefault(op.label, []).append(elapsed)
            self.round_rates.append(len(ops) / busy)
            index += 1
            if (time.perf_counter() - started >= seconds and index - first_round >= min_rounds
                    and len(self.latencies) >= min_ops):
                return index

    def throughput(self) -> float:
        """Median over rounds of the round's ops per CPU second; a round is
        a fixed slice of the input set, so rounds compare."""
        return statistics.median(self.round_rates)


def setup(workload: str, seed: int, workdir: Path):
    """Run the workload's set-up SETUP_REPEATS times, each from a fresh
    import of the library; returns the last inputs and the median CPU time."""
    durations = []
    prepared = None
    for _ in range(SETUP_REPEATS):
        purge_library()
        prepared = None
        t0 = time.process_time()
        prepared = SETUPS[workload](seed, workdir)
        durations.append(time.process_time() - t0)
    return prepared, statistics.median(durations)


def determinism_probe(prepared) -> tuple[int, int]:
    """Run every command twice, outside the timed loop. Returns how many
    commands printed different stdout bytes the second time, and the stdout
    bytes of one session."""
    differing = total = 0
    for op in prepared.rounds[0]:
        first, second = op.run(), op.run()
        differing += first[1] != second[1]
        total += len(first[1].encode())
    return differing, total


def end_to_end(loop: Loop, setup_s: float, pct: int) -> dict[str, tuple[float, str]]:
    ordered = sorted(loop.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "throughput_ops_s": (loop.throughput(), "ops/cpu-s"),
        "latency_p50_ms": (statistics.median(ordered) * 1e3, "cpu-ms"),
        "latency_tail_ms": (nearest_rank(ordered, pct) * 1e3, "cpu-ms"),
        "ok_ratio": (1 - len(loop.tally.failed) / len(loop.tally.seen), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(untraced: Loop, traced: Loop, tracer: Tracer, probe) -> dict[str, tuple[float, str]]:
    metrics = summarize(tracer, len(traced.latencies))
    for cid in CLI_IDS:
        samples = untraced.by_label.get(cid)
        metrics[f"cli.{cid}.ms"] = (statistics.median(samples) * 1e3 if samples else 0.0, "cpu-ms")
    differing, stdout_bytes = probe or (0, 0)
    metrics["cli.stdout_bytes"] = (stdout_bytes, "bytes")
    metrics["cli.nondeterministic_commands"] = (differing, "count")
    paired = [u / t for u, t in zip(untraced.round_rates, traced.round_rates)]
    metrics["trace.overhead_ratio"] = (statistics.median(paired) - 1, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SETUPS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    package = ROOT / "src" / "infodecomp" / "__init__.py"
    if not package.is_file():
        print(f"error: no library source at {package}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workdir = OUT / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return measure(args, workdir)
    finally:
        for leftover in workdir.iterdir():
            leftover.unlink()
        workdir.rmdir()


def measure(args, workdir: Path) -> int:
    if args.workload == "sid-corpus":
        import pytest  # noqa: F401  the fixture module's import, not the library's

    prepared, setup_s = setup(args.workload, args.seed, workdir)
    import infodecomp

    if Path(infodecomp.__file__).resolve().parent != ROOT / "src" / "infodecomp":
        print(f"error: imported infodecomp from {infodecomp.__file__}", file=sys.stderr)
        return 2

    probe = None
    if args.workload == "paper-cli":
        probe = determinism_probe(prepared)  # also the warm-up
    else:
        Loop(Tally()).run(prepared, 0.0)  # one warm-up round, not counted

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "input_digest": prepared.digest,
        "setup_repeats": SETUP_REPEATS,
    }
    if probe is not None:
        record["nondeterministic_commands"], record["stdout_bytes"] = probe

    if args.trace == 0:
        tally = Tally()
        loop = Loop(tally)
        loop.run(prepared, args.seconds, min_rounds=len(prepared.rounds), min_ops=prepared.min_ops)
        loops = [loop]
        pct = prepared.tail_percentile
        metrics = end_to_end(loop, setup_s, pct)
        record["tail_percentile"] = pct
        record["tail_samples_beyond"] = len(loop.latencies) - math.ceil(
            pct / 100 * len(loop.latencies)
        )
    else:
        tally = Tally()
        untraced, traced, tracer = Loop(tally), Loop(tally), Tracer()
        started = time.perf_counter()
        index = 0
        while time.perf_counter() - started < args.seconds or index < len(prepared.rounds):
            untraced.run(prepared, 0.0, first_round=index)
            tracer.install()
            try:
                index = traced.run(prepared, 0.0, tracer, first_round=index)
            finally:
                tracer.uninstall()
        loops = [untraced, traced]
        metrics = per_layer(untraced, traced, tracer, probe)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv"
        tracer.write(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
        record["traced_ops"] = len(traced.latencies)

    attempted, failed = len(tally.seen), len(tally.failed)
    record.update(
        ops=attempted,
        executions=tally.executions,
        rounds=sum(len(lp.round_rates) for lp in loops),
        failed=failed,
        failed_ratio=failed / attempted,
        unexpected_failures=len(tally.unexpected),
        failures=tally.failures,
    )
    print(json.dumps({"record": record}, sort_keys=True))
    result = {
        "correct": not tally.unexpected,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
