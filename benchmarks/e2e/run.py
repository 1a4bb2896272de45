"""Pass-replay end-to-end benchmark: one command, four workloads, every metric by name.

    python3 benchmarks/e2e/run.py [--workload NAME] [--seed 7] [--seconds 12]
                                  [--trace 0|1] [--smoke] [--out FILE] [--trace-out FILE]

Each workload runs in a fresh child interpreter (``PYTHONHASHSEED=0``,
``REPRO_*`` variables removed, stderr captured).  ``--trace 0`` measures the
end-to-end metrics with no wrapper installed; ``--trace 1`` is the separate
traced run that gives the per-layer metrics.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``.  The exit code is non-zero when a check failed.

Metric names, units, directions and bounds live in ``BENCHMARK.json`` at the
repository root; ``README.md`` here says which layer should move which
metric on which workload.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORK = ROOT / ".bench_e2e_work"
CHILD_TIMEOUT = 170  # the driver allows a run 180 s


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all four, one after the other)")
    parser.add_argument("--seed", type=int, default=7, help="draws the schedule (order of positions, request stream)")
    parser.add_argument("--seconds", type=float, help="measured window (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: the traced per-layer run")
    parser.add_argument("--smoke", action="store_true", help="about 1/8 of the data, 2 passes")
    parser.add_argument("--out", help="write the full record(s) as JSON")
    parser.add_argument("--trace-out", help="with --trace 1: write the spans of the traced passes as JSON")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # work directory of a child interpreter
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Child: one workload, measured
# ---------------------------------------------------------------------------

def child(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import replay as rp
    import spans
    from workloads import WORKLOADS

    from repro.relational.mmapstore import set_store_dir

    clock = time.perf_counter
    phases = {}
    checkpoint = clock()

    def phase(name: str) -> None:
        """Record how long the harness spent since the previous checkpoint (whole-run budget, not a metric)."""
        nonlocal checkpoint
        now = clock()
        phases[name], checkpoint = now - checkpoint, now

    bench = WORKLOADS[args.workload]
    sizes = bench.sizes(args.smoke)
    set_store_dir(os.path.join(args.child, "anonymous"))
    queries, dropped = bench.corpus(sizes)
    phase("corpus")
    schedule = bench.schedule(queries, sizes, args.seed)
    if args.smoke:
        seconds, floor = 0.0, 2
    elif args.trace:  # half the window without wrappers, half with
        seconds, floor = args.seconds / 2.0, 3
    else:
        seconds, floor = args.seconds, rp.MIN_PASSES
    if not args.smoke and len(schedule) < rp.MIN_POSITIONS:
        raise SystemExit(f"{bench.name}: {len(schedule)} positions, the floor is {rp.MIN_POSITIONS}")

    repetitions = 1 if (args.trace or args.smoke) else rp.SETUP_REPETITIONS
    setup_seconds = []
    engine = None
    for _ in range(repetitions):
        if engine is not None:
            bench.teardown(engine)
        engine = None  # the previous repetition's engine is garbage before the next is timed
        started = clock()
        engine = bench.setup(sizes, args.child)
        setup_seconds.append(clock() - started)
    phase("setup")

    replay = rp.Replay(bench, sizes, queries, schedule)
    warmup = rp.run_pass(replay, engine)
    phase("warmup")
    rp.measure(replay, engine, seconds, floor)
    phase("measure")
    if args.trace:
        traced = rp.traced_passes(replay, engine, seconds, spans.Tracer())
        phase("trace")
    verified = rp.verify(replay, engine, 8 if args.smoke else rp.VERIFIED_POSITIONS)
    phase("verify")

    problems = []
    if args.trace:
        metrics = rp.per_layer(replay, engine, traced)
        problems = rp.layer_checks(bench, metrics)
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump([{"pass": i, "spans": record["spans"]} for i, record in enumerate(traced)], handle)
    else:
        metrics = rp.end_to_end(replay, engine, statistics.median(setup_seconds) + warmup.wall, verified)
    bench.teardown(engine)

    record = {
        "workload": bench.name,
        "seed": args.seed,
        "smoke": args.smoke,
        "trace": args.trace,
        "cpu_count": os.cpu_count(),
        "sizes": sizes,
        "tuples": engine.beas.database.total_tuples,
        "positions": len(schedule),
        "passes": len(replay.passes),
        "pass_wall_s": [record.wall for record in replay.passes],
        "setup_repetitions_s": setup_seconds,
        "warmup_pass_s": warmup.wall,
        "phases_s": phases,
        "verified": verified["verified"],
        "dropped_queries": dropped,
        "classes": "".join(cls[0] for cls in replay.passes[-1].classes),
        "metrics": metrics,
        "problems": problems,
        "violations": replay.violations,
        "attempted": len(schedule),
        "failed": len(replay.failed),
    }
    print(json.dumps(record))
    return 0


# ---------------------------------------------------------------------------
# Parent: spawn, capture, report
# ---------------------------------------------------------------------------

def shared_memory_segments() -> set:
    return set(glob.glob("/dev/shm/psm_*"))


def run_workload(name: str, args) -> dict:
    """Run one workload in a fresh interpreter and return its record."""
    workdir = WORK / f"{name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    environment = {key: value for key, value in os.environ.items() if not key.startswith("REPRO_")}
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = str(ROOT / "src")  # spawned pool workers import repro too
    command = [
        sys.executable, str(HERE / "run.py"), "--child", str(workdir), "--workload", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if args.trace_out:
        command += ["--trace-out", os.path.abspath(args.trace_out)]
    segments = shared_memory_segments()
    process = subprocess.Popen(
        command, cwd=str(ROOT), env=environment, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=CHILD_TIMEOUT)
    except BaseException as exc:  # timeout, Ctrl-C, SIGTERM: nothing this run started may outlive it
        os.killpg(process.pid, signal.SIGKILL)  # the child and any pool worker it started
        process.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise SystemExit(f"{name}: no result within {CHILD_TIMEOUT} s")
        raise
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    if process.returncode != 0 or not out.strip():
        sys.stderr.write(err[-4000:])
        raise SystemExit(f"{name}: the child interpreter exited with code {process.returncode}")
    record = json.loads(out.strip().splitlines()[-1])
    # A clean sharded/process run still makes multiprocessing's resource_tracker
    # complain at exit about segments the engine already unlinked; count the
    # lines here instead of letting them scroll past.
    warnings = sum(1 for line in err.splitlines() if "resource_tracker" in line)
    if args.trace:
        record["metrics"]["parallel.tracker_warnings"] = warnings
    else:
        record["tracker_warnings"] = warnings
    leaked = sorted(shared_memory_segments() - segments)
    if leaked:
        record["problems"].append(f"shared-memory segments left behind: {leaked}")
    record["correct"] = not record["failed"] and not record["violations"] and not record["problems"]
    return record


def report(record: dict, spec: dict) -> None:
    """Print every metric by name with its unit, then the one-line JSON result."""
    declared = {metric["name"]: metric for metric in spec["per_layer" if record["trace"] else "end_to_end"]}
    missing = sorted(set(declared) - set(record["metrics"]))
    extra = sorted(set(record["metrics"]) - set(declared))
    if missing or extra:
        raise SystemExit(f"metrics do not match BENCHMARK.json: missing {missing}, undeclared {extra}")
    print(
        f"== {record['workload']}  seed {record['seed']}  cpu_count {record['cpu_count']}  "
        f"|D| {record['tuples']}  {record['positions']} positions x {record['passes']} passes  "
        f"(median pass {statistics.median(record['pass_wall_s']):.3f} s, {record['verified']} verified)"
    )
    for name, metric in declared.items():
        print(f"{name:36s} {record['metrics'][name]:14.6g} {metric['unit']}")
    for problem in record["problems"]:
        print(f"PROBLEM  {problem}")
    for violation in record["violations"]:
        print(f"VIOLATION  {violation['query']} {violation['kind']} alpha={violation['alpha']}: {violation['error']}")
    if record["dropped_queries"]:
        print(f"dropped from the corpus (not union-compatible): {', '.join(record['dropped_queries'])}")
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {
            name: {"value": record["metrics"][name], "unit": metric["unit"]} for name, metric in declared.items()
        },
    }
    print(json.dumps(result))


def main(argv=None) -> int:
    args = parse(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "repro").is_dir():
        sys.stderr.write(f"{ROOT}/src/repro is missing: the benchmark measures that package\n")
        return 2
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if args.child:
        return child(args)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # unwind through run_workload's clean-up
    names = [workload["name"] for workload in spec["workloads"]]
    if args.workload is not None:
        if args.workload not in names:
            sys.stderr.write(f"unknown workload {args.workload!r}; BENCHMARK.json lists {names}\n")
            return 2
        names = [args.workload]
    elif args.trace_out:
        sys.stderr.write("--trace-out takes the spans of one workload: name it with --workload\n")
        return 2
    records = []
    for name in names:
        record = run_workload(name, args)
        records.append(record)
        report(record, spec)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(records, handle, indent=1)
    return 0 if all(record["correct"] for record in records) else 1


if __name__ == "__main__":  # pool workers started with forkserver/spawn re-import this module
    sys.exit(main())
