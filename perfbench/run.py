#!/usr/bin/env python3
"""minorflow benchmark: one client drives the public library API in a closed
loop (each query starts after the previous one returned and was checked).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run solves the workload's fixed query set round after round.  Each timed
region is bracketed by reference probes and scaled to reference speed (see
speed.py); a query's time is the median of its rounds.  With ``--trace 0``
the run reports the end-to-end metrics of BENCHMARK.json with no wrapper
installed.  With ``--trace 1`` it wraps the library's entry points (see
spans.py), reports the per-layer metrics, then replays one round untraced
to report the tracing overhead.  The last line of standard
output is the result object; a full record (fingerprints, environment,
failures, self-time breakdown) and the spans go to ``.perfbench_out/``.
The run exits 1 when any query fails or the sources are missing.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans as tracing
from speed import REF_PROBE_S, Speedometer
from stats import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Set-up is parsed at least SETUP_MIN_REPS times and for at least
# SETUP_MIN_S seconds (at most SETUP_MAX_REPS times); setup_s is the median.
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 50
SETUP_MIN_S = 1.0
# Rounds over the query set that every run completes, however long they take.
MIN_ROUNDS = 2


def import_program() -> None:
    """Put the checkout's sources first on the path, and refuse to measure
    any other copy of the package."""
    if not (SRC / "minorflow" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no minorflow sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import minorflow

    if Path(minorflow.__file__).resolve().parent != SRC / "minorflow":
        raise SystemExit(f"perfbench: imported minorflow from {minorflow.__file__}, not {SRC}")


@dataclass
class Query:
    id: int
    instance: int
    pair: int
    start: float
    wall: float
    seconds: float  # wall scaled to reference speed, set once the run ends
    verify_s: float
    error: str | None


def setup(instances, meter: Speedometer) -> tuple[float, float, int]:
    """Take in every instance's input repeatedly; (median scaled seconds,
    median wall seconds, passes)."""
    passes: list[tuple[float, float]] = []
    start = time.perf_counter()
    while len(passes) < SETUP_MIN_REPS or (
        time.perf_counter() - start < SETUP_MIN_S and len(passes) < SETUP_MAX_REPS
    ):
        meter.start()
        for inst in instances:
            inst.parse()
        passes.append(meter.stop())
    scaled = [meter.scaled(t0, wall) for t0, wall in passes]
    return statistics.median(scaled), statistics.median(w for _, w in passes), len(passes)


def run_queries(
    instances, plan, seconds: float, meter: Speedometer, recorder=None, min_rounds: int = MIN_ROUNDS
) -> list[Query]:
    """Solve the plan's queries round after round: ``min_rounds`` rounds,
    then on until ``seconds`` have passed.  Every query gets a freshly
    parsed input and is checked against the oracle value and verify_flow
    after its timer stops."""
    import minorflow
    from minorflow import TerminalSet, verify_flow

    done: list[Query] = []
    start = time.perf_counter()
    for r, (i, p) in ((r, q) for r in itertools.count() for q in plan):
        if r >= min_rounds and time.perf_counter() - start >= seconds:
            break
        inst = instances[i]
        graph, tree = inst.parse()
        s, t, value = inst.pairs[p]
        if inst.decomposer:
            call = lambda: minorflow.max_flow_family(graph, inst.decomposer, s, t)  # noqa: E731
        else:
            call = lambda: minorflow.max_flow_decomposed(graph, tree, s, t)  # noqa: E731
        qid = len(done)
        meter.start()
        try:
            got, flow = call() if recorder is None else recorder.run_query(qid, call)
            error = None
        except Exception as exc:  # a query that raises is a failed query
            error = f"{type(exc).__name__}: {exc}"
        t_start, wall = meter.stop()
        t0 = time.perf_counter()
        if error is None and got != value:
            error = f"value {got}, oracle {value}"
        if error is None:
            verdict = verify_flow(graph, TerminalSet.of(s, t), (value, -value), flow)
            if not verdict:
                error = "verify_flow: " + "; ".join(verdict.problems[:3])
        done.append(Query(qid, i, p, t_start, wall, 0.0, time.perf_counter() - t0, error))
    meter.probe()  # the last query's window looks ahead too
    for q in done:
        q.seconds = meter.scaled(q.start, q.wall)
    return done


def per_query(queries: list[Query], attr: str = "seconds") -> list[float]:
    """The median time of each distinct (instance, pair) over its rounds."""
    times: dict[tuple[int, int], list[float]] = {}
    for q in queries:
        times.setdefault((q.instance, q.pair), []).append(getattr(q, attr))
    return [statistics.median(v) for _, v in sorted(times.items())]


def timing_metrics(queries: list[Query], attr: str = "seconds") -> dict[str, float]:
    times = per_query(queries, attr)
    return {
        "query_s.p50": percentile(times, 50),
        "query_s.p90": percentile(times, 90),
        "queries_per_s": len(times) / sum(times),
    }


def direct_dinic(instances, queries: list[Query], meter: Speedometer) -> list[float]:
    """Plain max_flow on the whole input for each distinct queried pair."""
    import minorflow

    times = []
    for i, p in sorted({(q.instance, q.pair) for q in queries}):
        inst = instances[i]
        graph, _ = inst.parse()
        s, t, value = inst.pairs[p]
        meter.start()
        got, _ = minorflow.max_flow(graph, s, t)
        times.append(meter.stop())
        if got != value:
            raise RuntimeError(f"direct max_flow gave {got}, oracle {value} on instance {i}")
    meter.probe()
    return [meter.scaled(t0, wall) for t0, wall in times]


def environment() -> dict:
    import networkx
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "networkx": networkx.__version__,
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "load": "one process, one client, closed loop, no extra threads",
        "threads": threading.active_count(),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_program()
    from workloads import WORKLOADS, inputs_sha256

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]

    instances = workload.instances(args.seed)
    plan = workload.round()
    meter = Speedometer()
    setup_s, setup_wall, setup_reps = setup(instances, meter)
    record: dict = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs_sha256": inputs_sha256(instances),
        "instances": [inst.fingerprint for inst in instances],
        "environment": environment(),
        "setup_passes": setup_reps,
        "setup_wall_s": setup_wall,
        "ref_probe_s": REF_PROBE_S,
    }
    OUT.mkdir(exist_ok=True)

    if args.trace:
        recorder = tracing.Recorder()
        recorder.install()
        try:
            queries = run_queries(instances, plan, args.seconds, meter, recorder)
        finally:
            recorder.restore()
        if tracing.wrapped_bindings():
            raise RuntimeError("wrappers left installed after the traced run")
        replay = run_queries(instances, plan, 0, meter, min_rounds=1)
        direct = direct_dinic(instances, queries, meter)
        scales = {q.id: q.seconds / q.wall for q in queries}
        layer, breakdown = tracing.layer_metrics(recorder, len(queries), scales)
        traced, untraced = timing_metrics(queries), timing_metrics(replay)
        metrics = {
            **layer,
            "external.verify_s": statistics.fmean(q.verify_s for q in queries),
            "maxflow.direct_s": percentile(direct, 50),
            "maxflow.gap_to_direct": untraced["query_s.p50"] / percentile(direct, 50),
            "fileio.parse_s": setup_s,
            "fileio.bytes_parsed": sum(inst.bytes for inst in instances),
            "testkit.gen_s": sum(inst.gen_s for inst in instances),
            "testkit.oracle_s": sum(inst.oracle_s for inst in instances),
            "trace.overhead": traced["query_s.p50"] / untraced["query_s.p50"],
            "trace.queries": len(queries),
        }
        record.update(traced=traced, untraced=untraced, breakdown=breakdown)
        recorder.dump(str(OUT / f"{workload.name}-seed{args.seed}-spans.jsonl.gz"))
        declared = spec["per_layer"]
        checked = queries + replay
    else:
        if tracing.wrapped_bindings():
            raise RuntimeError("untraced run found wrappers installed")
        queries = run_queries(instances, plan, args.seconds, meter)
        metrics = {
            **timing_metrics(queries),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        record.update(wall=timing_metrics(queries, "wall"))
        declared = spec["end_to_end"]
        checked = queries

    failed = [q for q in checked if q.error]
    times = per_query(queries)
    record.update(
        queries=len(checked),
        query_samples=len(times),
        rounds=len(queries) / len(plan),
        probes=meter.probes,
        failed=len(failed),
        failed_frac=len(failed) / len(checked),
        failures=[(q.id, q.instance, q.pair, q.error) for q in failed[:20]],
        query_seconds=[(q.instance, q.pair, q.start, q.wall, q.seconds) for q in queries],
        metrics=metrics,
    )
    (OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print(
        f"{workload.name} seed={args.seed} trace={args.trace} queries={len(checked)}"
        f" failed={len(failed)} inputs_sha256={record['inputs_sha256'][:16]}"
    )
    for q in failed[:5]:
        print(f"FAILED query {q.id} (instance {q.instance}, pair {q.pair}): {q.error}")
    result = {
        "correct": not failed,
        "attempted": len(checked),
        "failed": len(failed),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
