"""Median and quartile spread of each metric over the saved runs.

    python3 perfbench/summarize.py [--trace 0|1]

Reads ``perfbench/out/result-*.json`` and prints, per workload and metric,
the median over seeds and the distance between the first and third quartile
as a share of the median (``statistics.quantiles(values, n=4)``).
"""

import argparse
import json
import statistics
from collections import defaultdict
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    runs = defaultdict(list)
    for path in sorted(OUT.glob(f"result-*-t{args.trace}.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]].append(record)
    for workload, records in sorted(runs.items()):
        seeds = sorted(r["seed"] for r in records)
        failed = sum(r["failed"] for r in records)
        attempted = sum(r["attempted"] for r in records)
        print(f"## {workload}: {len(records)} runs, seeds {seeds}, failed {failed} of {attempted}")
        print("| metric | unit | median | IQR / median | min | max |")
        print("| --- | --- | --- | --- | --- | --- |")
        names = {**records[0]["metrics"], **records[0]["extra"]}
        for name, (_, unit) in names.items():
            values = [{**r["metrics"], **r["extra"]}[name][0] for r in records]
            med = statistics.median(values)
            spread = "n/a"
            if len(values) >= 2 and med:
                q = statistics.quantiles(values, n=4)
                spread = f"{(q[2] - q[0]) / med:.3f}"
            print(f"| `{name}` | {unit} | {med:.5g} | {spread} | {min(values):.5g} | {max(values):.5g} |")
        print()


if __name__ == "__main__":
    main()
