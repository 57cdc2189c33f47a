"""Fold benchmark result records into a baseline file.

    python3 perfbench/baseline.py OUT.json [RESULT.json ...]

With no result files it reads every record under `.bench_out/results/`.
For each workload it keeps, per end-to-end metric, the median and
quartiles over the untraced runs (and of the unadjusted CPU-time
figures), and the per-layer table of each traced run by seed, next to
the workload's reason from BENCHMARK.json and the environment of the
runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(values):
    values = sorted(values)
    q1, q2, q3 = (
        statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    )
    return {"median": q2, "q1": q1, "q3": q3, "runs": len(values),
            "iqr_over_median": (q3 - q1) / q2}


def build(records, bench):
    out = {"environment": records[0]["environment"], "workloads": {}}
    for spec in bench["workloads"]:
        mine = [r for r in records if r["workload"] == spec["name"]]
        timed = [r for r in mine if not r["trace"]]
        if not timed:
            continue
        out["workloads"][spec["name"]] = {
            "why": spec["why"],
            "seeds": sorted(r["seed"] for r in timed),
            "end_to_end": {
                m["name"]: {
                    "unit": m["unit"],
                    **summarize([r["metrics"][m["name"]]["value"] for r in timed]),
                }
                for m in bench["end_to_end"]
            },
            "unadjusted": {
                k: summarize([r["unadjusted"][k] for r in timed])
                for k in timed[0]["unadjusted"]
            },
            "per_layer": {
                str(r["seed"]): {k: v["value"] for k, v in r["metrics"].items()}
                for r in mine if r["trace"]
            },
            "checks_failed": sum(r["checks"]["failed"] for r in mine),
            "checks_attempted": sum(r["checks"]["attempted"] for r in mine),
        }
    return out


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    paths = [Path(p) for p in argv[1:]] or sorted(
        (ROOT / ".bench_out" / "results").glob("*.json")
    )
    records = [json.loads(p.read_text(encoding="utf-8")) for p in paths]
    if not records:
        print("error: no result records", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    with open(argv[0], "w", encoding="utf-8") as fh:
        json.dump(build(records, bench), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
