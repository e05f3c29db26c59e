"""Repeat benchmark runs over seeds and summarize each metric.

    python3 perfbench/repeat.py --workload analyze --seeds 1-10 --seconds 25

Each run is a fresh untraced `run.py` process (--trace 0). For every
end-to-end metric it prints the median, the first and third quartiles
(statistics.quantiles, n=4) and the spread, (q3 - q1) / median, which
BENCHMARK.json's bounds are compared with.
--json writes the runs and the summary to a file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarize(runs):
    names = sorted({name for run in runs for name in run["metrics"]})
    out = {}
    for name in names:
        values = [run["metrics"][name]["value"] for run in runs if name in run["metrics"]]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median, median, median)
        out[name] = {
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "unit": runs[0]["metrics"][name]["unit"],
            "n": len(values),
        }
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", required=True, help="seconds per run; BENCHMARK.json's run_seconds")
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
               "--seconds", args.seconds, "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        for key, label in (("fail_ratio", "  fail_ratio"), ("failing_ops", "  failing ops")):
            result[key] = next(line[len(label):].strip() for line in lines if line.startswith(label))
        runs.append(result)
        values = "  ".join(f"{k} {v['value']:.4f}" for k, v in sorted(result["metrics"].items()))
        print(f"seed {seed}: correct {result['correct']} failed {result['failed']}/{result['attempted']}  {values}"
              f"\n  fail_ratio {result['fail_ratio']}\n  failing ops {result['failing_ops']}", flush=True)

    summary = summarize(runs)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.4f} {s['unit']}  q1 {s['q1']:.4f}  q3 {s['q3']:.4f}"
              f"  spread {s['spread']:.4f}  (n={s['n']})")
    if args.json is not None:
        args.json.write_text(json.dumps({"workload": args.workload, "runs": runs, "summary": summary}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
