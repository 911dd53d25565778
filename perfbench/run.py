"""fieldstar benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload verify-gate --seed 0 --seconds 30 --trace 0

Run from a checkout holding ``src/fieldstar``.  The run first times the
set-up (import fieldstar from that tree, build the workload's seeded inputs,
warm up) in SETUP_REPEATS fresh child processes, one after another, and
reports the median; then it sets up once more in its own process and runs
whole rounds of ops one after another, in this one thread, until
``--seconds`` have passed.  Every op's output is checked.  Short
stdlib-only probes, interleaved with the ops and the set-ups, measure the
host's speed, and the timings are reported scaled to a reference speed (raw
seconds are in the report).

With ``--trace 0`` the last line of output is the end-to-end metrics; with
``--trace 1`` the run wraps fieldstar's public functions from outside (see
tracer.py), measures a fixed number of rounds untraced and then traced, and
the last line is the per-layer metrics.  The line before it is a report
with the input digest, the environment and every figure measured.  The
exit code is 0 only when every op passed its check.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 30
PROBE_INTERVAL_S = 0.25
# The shared host's speed swings by half within seconds, so timings are
# reported in probe units at a reference speed: each raw time * PROBE_REF_S
# / the median of the probes around it (see local_speeds).  PROBE_REF_S is
# about the probe's median on the host where the benchmark was defined
# (2 cores, Python 3.11).  Over six runs per workload there, scaling each op
# by its own probes held the spread of op_p50_ms, op_p90_ms, ops_per_s and
# largest_op_s to 0.02-0.07 of the median, against 0.04-0.15 when scaling
# by the run's median probe and 0.13-0.42 raw (see design.json).
PROBE_REF_S = 0.01
# Set-ups are scaled the same way by a spawn probe taken just before each,
# at SPAWN_PROBE_REF_S, about its median on that host.  The in-process probe
# does not track set-up time: over ten sets of five cli-session set-ups, the
# median set-up spread 0.13 raw and 0.31 divided by it.  Over eight sets of
# seven set-ups, it spread 0.09 raw and 0.06 divided by the spawn probe on
# cli-session, 0.07 and 0.05 on verify-gate.
SPAWN_PROBE_REF_S = 0.4
SPAWN_PROBE_CODE = "import run\nfor _ in range(20):\n    run.probe()"
DEFAULT_SEED = 0   # the seed whose outputs are pinned in goldens.json
OUT_DIR = HERE / "out"


def probe() -> float:
    """Seconds for a fixed piece of stdlib work of the two kinds fieldstar's
    ops are made of: building and using an argparse parser with
    subcommands, as every CLI call does, and filling and sorting a dict
    keyed by tuples of small ints, the shape of its term dictionaries.  It
    imports nothing from fieldstar and runs with the garbage collector off,
    so it tracks the host's speed, not the program's."""
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            parser = argparse.ArgumentParser(prog="probe")
            commands = parser.add_subparsers(dest="command")
            for name in ("eom", "vardiff", "bracket", "star", "classify"):
                command = commands.add_parser(name, help=name)
                command.add_argument("expr")
                command.add_argument("--kernel", default="delta")
                command.add_argument("--json", action="store_true")
            parser.parse_args(["star", "phi*pi", "--kernel", "d1", "--json"])
        terms = {}
        for k in range(6000):
            key = ((k % 17, k % 5), (k % 3,))
            terms[key] = terms.get(key, 0) + k
        sorted(terms.items())
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _call(fn):
    return fn()


def attempt(op, run_op=_call):
    """Run and check one op: (seconds in the op, result, error or None)."""
    result = error = None
    t0 = time.perf_counter()
    try:
        result = run_op(op.run)
    except Exception as exc:  # an op that raises is a failed op
        error = f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is None:
        try:
            error = op.check(result)
        except Exception as exc:
            error = f"check raised {type(exc).__name__}: {exc}"
    return elapsed, result, error


def run_rounds(rounds, stop, run_op=_call) -> dict:
    """Run whole rounds until ``stop(rounds_done, elapsed)``; time each op."""
    latencies = []     # (round, kind, seconds)
    starts = []        # each op's start, on the perf_counter clock
    terms = 0          # output terms, where an op reports them
    failures = []      # (key, kind, message)
    probes, probe_times = [], []
    start = time.perf_counter()
    done = 0
    while True:
        for op in rounds[done % len(rounds)]:
            now = time.perf_counter()
            if not probe_times or now - probe_times[-1] >= PROBE_INTERVAL_S:
                probe_times.append(now)
                probes.append(probe())
            starts.append(time.perf_counter())
            elapsed, result, error = attempt(op, run_op)
            if error is None and op.size is not None:
                terms += op.size(result)
            latencies.append((done, op.kind, elapsed))
            if error:
                failures.append((op.key, op.kind, error))
        done += 1
        if stop(done, time.perf_counter() - start):
            break
    probe_times.append(time.perf_counter())
    probes.append(probe())
    return {"latencies": latencies, "starts": starts, "terms": terms,
            "failures": failures, "probes": probes,
            "probe_times": probe_times, "rounds": done,
            "wall_s": time.perf_counter() - start}


def local_speeds(times, probe_times, probes) -> list:
    """For each time in ``times``, PROBE_REF_S over the median of the host
    probes around it: the two before it and the first after it."""
    speeds = []
    for t in times:
        after = bisect.bisect_left(probe_times, t)
        lo = max(0, min(after - 2, len(probes) - 3))
        speeds.append(PROBE_REF_S / statistics.median(probes[lo:lo + 3]))
    return speeds


def spawn_probe() -> float:
    """Seconds for a fresh interpreter to import this script's modules (the
    benchmark's own and the stdlib's, none of fieldstar's) and run probe()
    20 times: the host's speed at the kinds of work a set-up does, starting
    a process, importing and computing."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", SPAWN_PROBE_CODE], cwd=HERE,
                   capture_output=True, check=True, timeout=SETUP_TIMEOUT_S)
    return time.perf_counter() - start


def set_up(workload, seed, spec, goldens):
    """Time SETUP_REPEATS set-ups, each in a fresh interpreter (see
    setup_once.py) right after a spawn probe, then set up in this process
    for the timed phase."""
    times, speeds, failures = [], [], []
    for _ in range(SETUP_REPEATS):
        speeds.append(SPAWN_PROBE_REF_S / spawn_probe())
        child = subprocess.run(
            [sys.executable, str(HERE / "setup_once.py"), workload.name,
             str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if child.returncode != 0:
            raise RuntimeError(f"set-up exited {child.returncode}:\n"
                               f"{child.stderr.strip()}")
        result = json.loads(child.stdout.strip().splitlines()[-1])
        times.append(result["setup_s"])
        failures += [tuple(f) for f in result["failures"]]
    warmup, rounds = workload.build(spec, ROOT, goldens)
    for op in warmup:
        _seconds, _result, error = attempt(op)
        if error:
            failures.append((op.key, op.kind, error))
    gc.collect()
    return rounds, times, speeds, failures


def end_to_end(workload, result, setup_times, setup_speeds=None,
               op_speeds=None) -> dict:
    """The end-to-end metrics, with each time multiplied by its speed
    (set-ups by ``setup_speeds``, ops by ``op_speeds``), or raw."""
    setup_speeds = setup_speeds or [1.0] * len(setup_times)
    op_speeds = op_speeds or [1.0] * len(result["latencies"])
    lat = [s * speed for (_r, _k, s), speed
           in zip(result["latencies"], op_speeds)]
    largest = [seconds for (_r, kind, _s), seconds
               in zip(result["latencies"], lat)
               if kind == workload.largest_kind]
    busy = [0.0] * result["rounds"]
    for (r, _k, _s), seconds in zip(result["latencies"], lat):
        busy[r] += seconds
    ops_per_round = len(lat) / result["rounds"]
    return {
        "setup_s": statistics.median(
            t * speed for t, speed in zip(setup_times, setup_speeds)),
        # rounds hold the same mix, so the median round is a robust rate
        "ops_per_s": ops_per_round / statistics.median(busy),
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "largest_op_s": statistics.median(largest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def declared_metrics() -> dict:
    """Metric names and units as BENCHMARK.json lists them, per trace mode."""
    decl = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {trace: {m["name"]: m["unit"] for m in decl[key]}
            for trace, key in ((0, "end_to_end"), (1, "per_layer"))}


def environment(seed: int) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {"python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "commit": _commit(), "seed": seed,
            "PYTHONHASHSEED": os.environ.get("PYTHONHASHSEED")}


def _commit(root: Path = ROOT):
    """The commit checked out at ``root``, read from its git directory (a
    loose or a packed ref, or a detached HEAD), or None outside git."""
    git = root / ".git"
    try:
        if git.is_file():   # a linked worktree: "gitdir: <path>"
            git = root / git.read_text().split(":", 1)[1].strip()
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        common = git
        if (git / "commondir").is_file():
            common = git / (git / "commondir").read_text().strip()
        for directory in (git, common):
            if (directory / ref).is_file():
                return (directory / ref).read_text().strip()
        packed = common / "packed-refs"
        if packed.is_file():
            for line in packed.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2 and fields[1] == ref:
                    return fields[0]
    except OSError:
        pass
    return None


def _busy_shares(latencies) -> dict:
    """Each op kind's share of the time spent in ops."""
    busy = {}
    for _r, kind, seconds in latencies:
        busy[kind] = busy.get(kind, 0.0) + seconds
    total = sum(busy.values())
    return {kind: seconds / total for kind, seconds in sorted(busy.items())}


def _probe_summary(probes) -> dict:
    return {"median_s": statistics.median(probes), "min_s": min(probes),
            "max_s": max(probes), "samples": len(probes)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fieldstar" / "__init__.py").is_file():
        print(f"perfbench: no fieldstar sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    declared = declared_metrics()[args.trace]
    workload = workloads.WORKLOADS[args.workload]
    spec = workload.spec(args.seed)
    goldens = None
    if args.seed == DEFAULT_SEED:
        pinned = json.loads((HERE / "goldens.json").read_text())
        goldens = pinned.get(workload.name)
    rounds, setup_times, setup_speeds, failures = set_up(
        workload, args.seed, spec, goldens)
    probes = []

    report = {"workload": workload.name, "input_digest":
              workloads.spec_digest(spec), "env": environment(args.seed),
              "setup_times_s": setup_times,
              "setup_host_speeds": setup_speeds,
              "goldens_checked": goldens is not None}
    if args.trace:
        traced_rounds = workload.trace_rounds
        plain = run_rounds(rounds, lambda n, _t: n == traced_rounds)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            result = run_rounds(rounds, lambda n, _t: n == traced_rounds,
                                tracer.run_op)
        finally:
            tracer.uninstall()
        metrics = tracer.metrics()
        metrics["trace_overhead_ratio"] = (
            sum(s for _r, _k, s in result["latencies"])
            / sum(s for _r, _k, s in plain["latencies"]))
        failures += plain["failures"]
        probes += plain["probes"] + result["probes"]
        attempted = len(plain["latencies"])
        report["self_time_sum_s"] = sum(tracer.self_s.values())
        report["spans_kept"] = len(tracer.spans)
        report["spans_dropped"] = tracer.spans_dropped
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"spans-{workload.name}-{args.seed}.json").write_text(
            json.dumps({"fields": ["id", "name", "start", "end", "parent", "op"],
                        "spans": tracer.spans}))
    else:
        result = run_rounds(rounds, lambda _n, t: t >= args.seconds)
        probes += result["probes"]
        op_speeds = local_speeds(result["starts"], result["probe_times"],
                                 result["probes"])
        metrics = end_to_end(workload, result, setup_times, setup_speeds,
                             op_speeds)
        report["raw_metrics"] = end_to_end(workload, result, setup_times)
        report["host_speed"] = statistics.median(op_speeds)
        attempted = 0
    failures += result["failures"]
    attempted += (len(result["latencies"])
                  + (SETUP_REPEATS + 1) * len(spec["warmup"]))

    report.update({
        "rounds": result["rounds"], "ops": len(result["latencies"]),
        "busy_s": sum(s for _r, _k, s in result["latencies"]),
        "terms_per_s": (result["terms"] / sum(s for _r, _k, s in result["latencies"])
                        if result["terms"] else None),
        "busy_share_by_kind": _busy_shares(result["latencies"]),
        "wall_s": result["wall_s"], "probe": _probe_summary(probes),
        "failures": failures[:20],
        "metrics": metrics})
    print(json.dumps({"report": report}))
    for key, kind, message in failures[:20]:
        print(f"perfbench: FAILED {key} ({kind}): {message}", file=sys.stderr)
    print(json.dumps({
        "correct": not failures, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
