"""Alternating parent/change benchmark pairs, and their summary against the benchmark's bounds.

    python tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --pairs N --out BENCH.json
        [--first-seed 3001] [--claim METRIC]

PARENT_ROOT and CHANGE_ROOT are two checkouts.  Each is compiled once with
``compileall`` (``src/`` and ``perfbench/``) before the first pair, so that no
run pays for writing bytecode.  Pair i runs ``python3 perfbench/run.py
--workload W --seed S --seconds T --trace 0`` in each checkout, with S =
first seed + i and T the ``run_seconds`` of this checkout's
``BENCHMARK.json``: on an odd seed the parent runs first, on an even one the
change.  Each tree's ``perfbench/run.py`` runs as it is.

The summary of a workload gives, for each end-to-end metric of this
checkout's ``BENCHMARK.json``, both medians and quartiles
(``statistics.quantiles(method='inclusive')``), "better in k of n" (pairs
whose change run reads better than its parent run), ``median_worse_by`` (the
change median's relative shortfall, negative where it is better) against the
metric's bound, and a verdict: "unresolved" where the parent's interquartile
range over its median exceeds the bound and not every change run reads better
than every parent run, else "regression beyond bound" where
``median_worse_by`` exceeds the bound, else "no regression beyond bound".
With ``--claim METRIC``, the ``claim`` block says whether the change is better
in at least 9 of 10 pairs and its median better by more than the parent's
interquartile range.  A run that gave no value (a failed run) counts in no
median, and its pair is not a win.

``--out`` names a JSON file whose ``pairs`` of the workload and
``summary[W]`` (and ``claim``) are (re)written; its other keys are kept.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_SECONDS = SPEC["run_seconds"]
COMMAND = f"python3 perfbench/run.py --workload WORKLOAD --seed SEED --seconds {RUN_SECONDS:g} --trace 0"


def bounds() -> dict:
    """{metric: (better, bound)} for the benchmark's end-to-end metrics."""
    return {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}


def run_once(root: Path, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``root``: its end-to-end values, attempted, failed and correct."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                           "--seconds", str(RUN_SECONDS), "--trace", "0"], cwd=root, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"attempted": 0, "failed": 0, "correct": False, "exit_code": proc.returncode}
    out = {name: metric["value"] for name, metric in result.get("metrics", {}).items()}
    return out | {"attempted": result.get("attempted", 0), "failed": result.get("failed", 0),
                  "correct": bool(result.get("correct")) and proc.returncode == 0}


def _quartiles(values: list) -> list:
    return statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3


def _metric(pairs: list, name: str, better: str, bound: float) -> dict:
    higher = better == "higher"
    both = [(p["parent"][name], p["change"][name]) for p in pairs if name in p["parent"] and name in p["change"]]
    parent = [p["parent"][name] for p in pairs if name in p["parent"]]
    change = [p["change"][name] for p in pairs if name in p["change"]]
    failed = {side: sum(p[side].get("failed", 0) for p in pairs) for side in ("parent", "change")}
    if not (parent and change):  # every run of a side failed: nothing to compare
        return {"bound": bound, "verdict": "unresolved", "failed_runs": failed}
    pq, cq = _quartiles(parent), _quartiles(change)
    ratio = cq[1] / pq[1]
    worse_by = 1.0 - ratio if higher else ratio - 1.0
    iqr = (pq[2] - pq[0]) / pq[1]
    wins = sum((c > p) if higher else (c < p) for p, c in both)
    clear = min(change) > max(parent) if higher else max(change) < min(parent)
    if iqr > bound and not clear:
        verdict = "unresolved"
    elif worse_by > bound:
        verdict = "regression beyond bound"
    else:
        verdict = "no regression beyond bound"
    return {
        "parent_median": round(pq[1], 4), "change_median": round(cq[1], 4), "change_over_parent": round(ratio, 4),
        "change_better_in": f"{wins} of {len(pairs)}",
        "parent_quartiles": [round(q, 4) for q in pq], "change_quartiles": [round(q, 4) for q in cq],
        "parent_iqr_over_median": round(iqr, 4), "median_worse_by": round(worse_by, 4), "bound": bound,
        "verdict": verdict, "failed_runs": failed,
    }


def summarize(pairs: list, metric_bounds: dict) -> dict:
    """The summary block of one workload's pairs: {"pairs": n, metric: {...}, ..., "every_report_correct"}."""
    out = {"pairs": len(pairs)}
    for name, (better, bound) in metric_bounds.items():
        out[name] = _metric(pairs, name, better, bound)
    out["every_report_correct"] = all(p[side]["correct"] for p in pairs for side in ("parent", "change"))
    return out


def claim(pairs: list, workload: str, name: str, better: str) -> dict:
    """Whether the change is better on ``name`` in at least 9 of 10 pairs (the same share of more)
    and its median better than the parent's by more than the parent's interquartile range.
    A pair with a run that gave no value is not a win, and that run counts in no median."""
    higher = better == "higher"
    parent = [p["parent"][name] for p in pairs if name in p["parent"]]
    change = [p["change"][name] for p in pairs if name in p["change"]]
    wins = sum(name in p["parent"] and name in p["change"] and (
        p["change"][name] > p["parent"][name] if higher else p["change"][name] < p["parent"][name]) for p in pairs)
    out = {"workload": workload, "metric": name, "better": better}
    if not (parent and change):  # every run of a side failed
        return out | {"change_better_in": f"{wins} of {len(pairs)}", "met": False}
    pq, cq = _quartiles(parent), _quartiles(change)
    gain = cq[1] - pq[1] if higher else pq[1] - cq[1]
    return out | {"parent_median": round(pq[1], 4), "change_median": round(cq[1], 4),
                  "change_better_in": f"{wins} of {len(pairs)}", "parent_iqr": round(pq[2] - pq[0], 4),
                  "met": wins >= math.ceil(0.9 * len(pairs)) and gain > pq[2] - pq[0]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--first-seed", type=int, default=3001)
    parser.add_argument("--claim", metavar="METRIC", help="write the claim block for this metric and workload")
    args = parser.parse_args(argv)
    metric_bounds = bounds()
    roots = {"parent": args.parent_root.resolve(), "change": args.change_root.resolve()}
    for root in roots.values():
        for sub in ("src", "perfbench"):
            compileall.compile_dir(root / sub, quiet=1)
    pairs = []
    for seed in range(args.first_seed, args.first_seed + args.pairs):
        order = ("parent", "change") if seed % 2 else ("change", "parent")
        pair = {"workload": args.workload, "seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(roots[side], args.workload, seed)
        pairs.append(pair)
        print(json.dumps(pair), flush=True)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["command"] = COMMAND
    doc["pairs"] = [p for p in doc.get("pairs", []) if p["workload"] != args.workload] + pairs
    doc.setdefault("summary", {})[args.workload] = summary = summarize(pairs, metric_bounds)
    if args.claim:
        doc["claim"] = claim(pairs, args.workload, args.claim, metric_bounds[args.claim][0])
    args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
