"""fluidhit benchmark: seeded workloads against the library and the CLI.

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the package is imported from src/.
One run sets the workload up, then makes timed passes over its operations,
at least two and more until --seconds have gone by, and checks every output
outside the timed region. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones (setup_s, wall_s, peak_rss_mb); with --trace 1 they are the
per-layer ones, from a run that pairs untraced and traced passes.
--workload all runs every workload in its own process and prints a table.

The workload seed is the only source of randomness; the program receives
only generated files and argv. Threads are pinned: FLUIDHIT_THREADS=1 and
one BLAS thread.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("analyze", "kernels", "simulate")
PINNED_ENV = {
    "FLUIDHIT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "BLIS_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}
# Set-up is timed this many times, each in a fresh process, and reported as
# the median at the reference host speed.
SETUP_SAMPLES = 5
# wall_s is the median of at least this many passes.
MIN_PASSES = 2
CHILD_TIMEOUT_S = 170
# Median seconds of one Calibration.sample() on the host where the baseline
# in baseline.json was measured (2-vCPU Xeon VM, Python 3.11, numpy 2.4).
CALIBRATION_REFERENCE_S = 0.028


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up and print its seconds (used for the set-up samples)")
    return parser.parse_args(argv)


def machine_stamp():
    import numpy
    import scipy

    try:
        top, _, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.partition("\n")
    except OSError:
        top = commit = ""
    commit = commit.strip() if top and Path(top).resolve() == ROOT else None
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "platform": platform.platform(),
        "threads": {key: os.environ.get(key) for key in PINNED_ENV},
    }


def set_up(workload, seed, tmp):
    """Import fluidhit and build the workload's inputs; returns (ops, seconds)."""
    start = time.perf_counter()
    import fluidhit  # noqa: F401
    import workloads

    ops = workloads.build(workload, seed, tmp)
    return ops, time.perf_counter() - start


def setup_sample(args, calibration):
    """Seconds of one set-up in a fresh process, at the reference host speed."""
    before = calibration.sample()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return at_reference_speed(float(proc.stdout.strip().splitlines()[-1]), before, calibration.sample())


class Calibration:
    """A fixed mix of the kinds of work fluidhit spends its time on.

    On a shared host the speed available to one thread drifts by 20% and
    more over minutes, and a run is too short to average that out. The
    benchmark times this mix before and after every operation and every
    set-up sample, and scales its time by CALIBRATION_REFERENCE_S over the
    mean of the two samples: that is its time at the reference host speed,
    with most of the drift cancelled. The mix has an integer loop, a sweep
    over an array larger than the L2 cache (the sparse 10^6-state vectors),
    pairwise numpy-scalar distances (the eigenvalue clustering) and dict
    updates (the simulator's occupancy counts). On the reference host this
    cut the pass-to-pass coefficient of variation of analyze from 0.11 to
    0.05, and that of single simulate set-ups from 0.13 to 0.09.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._big = np.ones(500_000)
        self._points = np.exp(1j * np.arange(200)) * np.arange(200)

    def sample(self):
        np = self._np
        start = time.perf_counter()
        acc = 0
        for i in range(150_000):
            acc += i * i
        for _ in range(32):
            np.multiply(self._big, 1.0000001, out=self._big)
        points = self._points
        for i in range(120):
            here = points[i]
            for j in range(i + 1, 200):
                if abs(here - points[j]) <= 1e-3:
                    acc += 1
        counts = dict.fromkeys(range(6), 10)
        for i in range(40_000):
            state = i % 6
            counts[state] = counts[state] - 1 + 1
        return time.perf_counter() - start


def at_reference_speed(seconds, before, after):
    """seconds scaled by the calibration samples taken just before and after."""
    return seconds * 2 * CALIBRATION_REFERENCE_S / (before + after)


class Tally:
    """Outcomes of the operations run so far, with first-seen failure messages.

    An operation fails if any of its failure messages is not a
    workloads.KnownDefect; one whose messages are all of the documented
    defect counts apart, in `defective`.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.defective = 0
        self.messages = set()
        self.failing = set()
        self.defect_ops = set()
        self.sim_steps = 0.0
        self.sim_wall = 0.0
        self.failed_runs = 0

    def record(self, name, fails):
        import workloads

        self.attempted += 1
        if any(not isinstance(msg, workloads.KnownDefect) for msg in fails):
            self.failed += 1
            self.failing.add(name)
        elif fails:
            self.defective += 1
            self.defect_ops.add(name)
        for msg in fails:
            if (name, msg) not in self.messages:
                self.messages.add((name, msg))
                kind = "KNOWN DEFECT" if isinstance(msg, workloads.KnownDefect) else "FAILED"
                print(f"{kind} {name}: {msg}", file=sys.stderr)

    def report_failing(self):
        """Print fail_ratio, the failing operations and those that show only the documented defect."""
        print(f"  fail_ratio       {(self.failed + self.defective) / self.attempted:.4f} ratio   "
              f"({self.failed} failed + {self.defective} with only the documented k defect, of {self.attempted})")
        print(f"  failing ops      {', '.join(sorted(self.failing)) or 'none'};"
              f" documented k defect: {', '.join(sorted(self.defect_ops)) or 'none'}")


def run_pass(ops, tally, tracer=None, tag="", expected=None, calibration=None):
    """Run every operation once; returns (pass wall seconds, output bytes,
    pass seconds at the reference host speed or None).

    With a calibration, each operation's time is scaled by
    at_reference_speed.

    Only the calls are timed. Checks, step counts, output reads and
    calibration samples come before or after each call, outside the timed
    region. An output that differs from its bytes in expected fails its
    operation.
    """
    wall = 0.0
    outputs = {}
    cal, times = [], []
    for op in ops:
        if calibration is not None:
            cal.append(calibration.sample())
        if tracer is not None:
            tracer.op = f"{tag}{op.name}"
        start = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # an operation that raises counts as failed
            result, error = None, exc
        elapsed = time.perf_counter() - start
        wall += elapsed
        times.append(elapsed)
        if tracer is not None:
            tracer.op = None
        if error is not None:
            fails = [f"raised {type(error).__name__}: {error}"]
        else:
            try:
                fails = op.check(result)
            except Exception as exc:
                fails = [f"output check raised {type(exc).__name__}: {exc}"]
        if op.output is not None and op.output.exists():
            outputs[op.name] = op.output.read_bytes()
            if expected is not None and expected.get(op.name) != outputs[op.name]:
                fails = fails + ["output bytes differ with the tracing wrappers on"]
        tally.record(op.name, fails)
        if op.steps is not None and error is None:
            steps, failed_runs = op.steps(result)
            tally.sim_steps += steps
            tally.failed_runs += failed_runs
            tally.sim_wall += elapsed
    if calibration is None:
        return wall, outputs, None
    cal.append(calibration.sample())
    scaled = sum(at_reference_speed(t, a, b) for t, a, b in zip(times, cal, cal[1:]))
    return wall, outputs, scaled


def tail(samples):
    """The highest percentile with at least ten samples beyond it."""
    if len(samples) < 11:
        return f"max {max(samples):.4f} s, too few passes for a tail percentile"
    ordered = sorted(samples)
    return f"p{100 * (len(ordered) - 10) / len(ordered):.0f} {ordered[-11]:.4f} s"


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_untraced(args, tmp):
    calibration = Calibration()
    # The fresh-process samples come first, so that no two set-ups hold
    # their inputs in memory at once.
    setup = [setup_sample(args, calibration) for _ in range(SETUP_SAMPLES)]
    ops, _ = set_up(args.workload, args.seed, tmp)
    tally = Tally()
    raw, walls = [], []
    start = time.perf_counter()
    while len(walls) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        wall, _, scaled = run_pass(ops, tally, calibration=calibration)
        raw.append(wall)
        walls.append(scaled)
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "wall_s": metric(statistics.median(walls), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    print(f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  (closed loop, one caller)")
    print(f"  setup_s          {metrics['setup_s']['value']:.4f} s   median of {len(setup)} fresh processes at"
          f" reference host speed")
    print(f"  wall_s           {metrics['wall_s']['value']:.4f} s   median of {len(walls)} passes at reference host"
          f" speed; {tail(walls)}; raw median {statistics.median(raw):.4f} s")
    print(f"  peak_rss_mb      {metrics['peak_rss_mb']['value']:.1f} MB")
    if tally.sim_wall > 0:
        print(f"  sim_steps_per_s  {tally.sim_steps / tally.sim_wall:.1f} steps/s")
    tally.report_failing()
    return tally, metrics


def run_traced(args, tmp):
    import tracing

    start = time.perf_counter()
    import fluidhit  # noqa: F401

    tracer = tracing.Tracer()
    tracer.install()
    tracer.op = "setup"
    import workloads

    ops = workloads.build(args.workload, args.seed, tmp)
    tracer.op = None
    tracer.uninstall()
    print(f"workload {args.workload}  seed {args.seed}  traced set-up {time.perf_counter() - start:.4f} s")

    tally = Tally()
    calibration = Calibration()
    # A discarded warm-up pass takes the first-call costs (lru_caches, the
    # first touch of the large vectors), and its outputs are what every
    # traced pass must reproduce byte for byte.
    _, plain, _ = run_pass(ops, tally)
    untraced, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        # Pairs alternate which side runs first, so that neither side always
        # meets the host in the same state.
        sides = (False, True) if len(traced) % 2 == 0 else (True, False)
        for on in sides:
            if not on:
                untraced.append(run_pass(ops, tally, calibration=calibration)[2])
                continue
            tag = f"pass{len(traced)}:"
            tracer.install()
            try:
                # Self-check: tracing must not change a byte of the outputs.
                traced.append(run_pass(ops, tally, tracer, tag, expected=plain, calibration=calibration)[2])
            finally:
                tracer.uninstall()

    passes = len(traced)
    setup_totals = tracer.totals(lambda op: op == "setup")
    pass_totals = tracer.totals(lambda op: op != "setup")

    def per_run(name):
        """Set-up spans once plus the mean over traced passes."""
        calls_s, self_s = setup_totals.get(name, [0, 0.0])
        calls_p, self_p = pass_totals.get(name, [0, 0.0])
        return calls_s + calls_p / passes, self_s + self_p / passes

    metrics = {}
    for layer in tracing.LAYERS:
        names = [n for n in set(setup_totals) | set(pass_totals) if n.startswith(layer + ".")]
        calls = sum(per_run(n)[0] for n in names)
        self_s = sum(per_run(n)[1] for n in names)
        metrics[f"{layer}.calls"] = metric(calls, "count")
        metrics[f"{layer}.self_s"] = metric(self_s, "s")
    for name in tracing.REPORTED:
        calls, self_s = per_run(name)
        metrics[f"{name}.calls"] = metric(calls, "count")
        metrics[f"{name}.self_s"] = metric(self_s, "s")
    all_passes = 1 + 2 * passes
    steps = tally.sim_steps / all_passes
    sim_self = pass_totals.get("simulator.estimate_hitting_time", [0, 0.0])[1] / passes
    metrics["simulator.steps"] = metric(steps, "count")
    metrics["simulator.ns_per_step"] = metric(sim_self / steps * 1e9 if steps else 0.0, "ns")
    metrics["simulator.failed_runs"] = metric(tally.failed_runs / all_passes, "count")
    metrics["simulator.sim_steps_per_s"] = metric(
        tally.sim_steps / tally.sim_wall if tally.sim_wall else 0.0, "steps/s"
    )
    metrics["trace.wall_s"] = metric(statistics.median(traced), "s")
    metrics["trace.overhead_s"] = metric(statistics.median(t - u for t, u in zip(traced, untraced)), "s")
    metrics["trace.spans"] = metric(float(len(tracer.spans)), "count")

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path, {"workload": args.workload, "seed": args.seed, "machine": machine_stamp()})
    print(f"  passes 1 warm-up + {passes} untraced + {passes} traced, at reference host speed; tracing overhead "
          f"{metrics['trace.overhead_s']['value']:.4f} s per pass (median of pairs); "
          f"spans in {spans_path.relative_to(ROOT)}")
    wrong = layer_map_contradictions(args.workload, metrics)
    print(f"  layer map        {'; '.join(wrong) if wrong else 'consistent with layers.json'}")
    # A contradiction of layers.json fails the run's layer-map check.
    tally.record("layer_map", wrong)
    tally.report_failing()
    return tally, metrics


def layer_map_contradictions(workload, metrics):
    """Metrics whose calls contradict perfbench/layers.json."""
    import tracing

    wrong = []
    for entry in tracing.LAYER_MAP:
        calls = metrics.get(f"{entry['function']}.calls", {}).get("value")
        if calls is None:
            continue
        if workload in entry["exercised_on"] and calls == 0:
            wrong.append(f"{entry['function']} has no calls")
        if workload in entry["bypassed_on"] and calls != 0:
            wrong.append(f"{entry['function']} has {calls} calls")
    return wrong


def run_all(args):
    """Every workload in its own process; prints each one's summary, then one
    JSON line with the results keyed by workload."""
    results = {}
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=3 * CHILD_TIMEOUT_S)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"{workload}: exit code {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        results[workload] = json.loads(lines[-1])
    print(json.dumps(results, sort_keys=True))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "fluidhit" / "__init__.py").is_file():
        print(f"error: no fluidhit sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    if args.workload == "all":
        return run_all(args)
    # Byte-compile first, so that no run's set-up includes it.
    compileall.compile_dir(str(SRC / "fluidhit"), quiet=2)
    compileall.compile_dir(str(HERE), quiet=2, maxlevels=0)

    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        if args.setup_only:
            print(set_up(args.workload, args.seed, Path(tmp))[1])
            return 0
        if args.trace:
            tally, metrics = run_traced(args, Path(tmp))
        else:
            tally, metrics = run_untraced(args, Path(tmp))
    print("machine " + json.dumps(machine_stamp(), sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
