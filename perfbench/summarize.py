"""Medians and quartile spreads over the records in perfbench/out/.

    python3 perfbench/summarize.py [--json PATH]

Groups the records `run.py` wrote by workload and trace mode, keeping the
first record's machine block, and prints for each metric the median over
runs and the distance between the first and third quartile as a share of
the median.  Per-operation times and
widths from the records' detail block are summarised the same way.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summarize(records: list) -> dict:
    groups = {}
    for rec in records:
        key = f"{rec['workload']} trace{rec['trace']}"
        values = {k: v["value"] for k, v in rec["result"]["metrics"].items()}
        values.update({k: v for k, v in rec["detail"].items() if isinstance(v, (int, float))})
        group = groups.setdefault(key, {"runs": 0, "failed": 0, "seeds": [], "values": {}, "machine": rec["machine"]})
        group["runs"] += 1
        group["failed"] += rec["result"]["failed"]
        group["seeds"].append(rec["seed"])
        for name, value in values.items():
            group["values"].setdefault(name, []).append(value)
    summary = {}
    for key, group in sorted(groups.items()):
        rows = {}
        for name, vals in group["values"].items():
            med = statistics.median(vals)
            spread = None
            if len(vals) >= 2 and med:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / abs(med)
            rows[name] = {"median": med, "spread": spread, "min": min(vals), "max": max(vals)}
        summary[key] = {"runs": group["runs"], "failed": group["failed"], "seeds": sorted(group["seeds"]),
                        "machine": group["machine"], "metrics": rows}
    return summary


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--json", help="also write the summary here")
    args = parser.parse_args()
    records = [json.loads(p.read_text()) for p in sorted(OUT.glob("*-seed*-trace[01].json"))]
    summary = summarize(records)
    for key, group in summary.items():
        print(f"== {key}: {group['runs']} runs, {group['failed']} failed, seeds {group['seeds']}")
        for name, row in group["metrics"].items():
            spread = "" if row["spread"] is None else f"  spread {row['spread']:.4f}"
            print(f"  {name:34s} {row['median']:.6g}{spread}")
    if args.json:
        Path(args.json).write_text(json.dumps(summary, indent=1) + "\n")


if __name__ == "__main__":
    main()
