"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workload ladder --seeds 0-9 --seconds 30

For each metric it prints the median, the first and third quartiles
(`statistics.quantiles(values, n=4)`) and the spread, the distance between
the quartiles as a share of the median, next to the bound BENCHMARK.json
fixes for it. Runs are sequential, one process at a time, with `--trace 0`.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="0-9", help="inclusive range, e.g. 0-9")
    parser.add_argument("--seconds", type=float, default=30)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m.get("bound")
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}

    runs = []
    for seed in seed_list(args.seeds):
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=180)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        runs.append({"seed": seed, "info": info, "result": result})
        print(seed, info["fingerprint"][:19], "correct" if result["correct"] else "WRONG",
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"{'metric':28s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / median if median else float("nan")
        bound = bounds.get(name)
        print(f"{name:28s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} "
              f"{bound if bound is not None else '-':>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
