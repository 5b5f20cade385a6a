"""Compare the reports of two source trees on the benchmark's workloads.

    python tools/report_parity.py PARENT_SRC CHANGE_SRC [--seeds 7 8] [--out BENCH.json]

PARENT_SRC and CHANGE_SRC are the ``src/`` directories of two checkouts.  Each
workload of ``perfbench/workloads.py`` (imported read-only, from this
checkout), ``spacetime-grid`` with ``emit_smoothed=true``, and the smoothed
mixed-tie stream of ``tests/test_report_digests.py`` (``mixed_tie_stream``:
blocks that mix tied time steps and runs of one-row time steps) is generated at
each seed and run through ``python -m seqgp.cli run`` under both trees, with
BLAS pinned to one thread as the benchmark pins it.  The two runs are
compared on the exit code, the CSV body, the summary without
``wall_time_s`` and stderr.  For each report that differs, the largest
absolute and relative difference of every numeric column (and summary field)
is printed.  With ``--out``, the result is written as the ``report_parity``
block of that JSON file, whose other keys are kept.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "tests")]

from test_report_digests import MIXED_TIES, mixed_tie_stream  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SMOOTHED = "spacetime-grid emit_smoothed=true"


def cases(workdir: str, seed: int):
    """(label, input path, overrides) for every report compared at ``seed``."""
    for name, make in {**WORKLOADS, MIXED_TIES: mixed_tie_stream}.items():
        subdir = os.path.join(workdir, f"{name}-{seed}")
        os.makedirs(subdir)
        w = make(seed, subdir)
        yield name, w.input_path, w.overrides
        if name == "spacetime-grid":
            yield SMOOTHED, w.input_path, w.overrides + ["emit_smoothed=true"]


def run(src: str, path: str, overrides: list[str]) -> dict:
    env = os.environ | ENV | {"PYTHONPATH": os.path.abspath(src)}
    proc = subprocess.run([sys.executable, "-m", "seqgp.cli", "run", "--input", path, *overrides],
                          env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    summary = json.loads(lines[-1]) if lines else {}
    summary.pop("wall_time_s", None)
    return {"code": proc.returncode, "body": lines[:-1], "summary": summary, "stderr": proc.stderr}


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _gap(a: float, b: float) -> tuple[float, float]:
    """(absolute, relative) difference; NaN where the two are not both finite and unequal."""
    if a == b:
        return 0.0, 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.nan, math.nan
    diff = abs(a - b)
    return diff, diff / max(abs(a), abs(b))


def differences(parent: dict, change: dict) -> dict:
    """Largest absolute and relative difference per CSV column and numeric summary field."""
    gaps: dict[str, list[float]] = {}

    def note(key: str, a: float, b: float) -> None:
        absolute, relative = _gap(a, b)
        worst = gaps.setdefault(key, [0.0, 0.0])
        worst[0] = absolute if math.isnan(absolute) else max(worst[0], absolute)
        worst[1] = relative if math.isnan(relative) else max(worst[1], relative)

    header = parent["body"][0].split(",") if parent["body"] else []
    for row_a, row_b in zip(parent["body"][1:], change["body"][1:]):
        for column, a, b in zip(header, row_a.split(","), row_b.split(",")):
            if a != b:
                x, y = _number(a), _number(b)
                if x is None or y is None:
                    gaps[column] = [math.nan, math.nan]
                else:
                    note(column, x, y)
    for key in sorted(set(parent["summary"]) | set(change["summary"])):
        a, b = parent["summary"].get(key), change["summary"].get(key)
        if isinstance(a, (int, float)) and isinstance(b, (int, float)):
            note(f"summary.{key}", float(a), float(b))
        elif a != b:
            gaps[f"summary.{key}"] = [math.nan, math.nan]
    return {k: {"max_abs": v[0], "max_rel": v[1]} for k, v in gaps.items() if v != [0.0, 0.0]}


def compare(parent_src: str, change_src: str, seeds) -> list[dict]:
    reports = []
    with tempfile.TemporaryDirectory(prefix="report-parity-") as workdir:
        for seed in seeds:
            for label, path, overrides in cases(workdir, seed):
                parent, change = run(parent_src, path, overrides), run(change_src, path, overrides)
                same = {part: parent[part] == change[part] for part in ("code", "body", "summary", "stderr")}
                entry = {"workload": label, "seed": seed, "identical": all(same.values())}
                if not entry["identical"]:
                    entry["same"] = same
                    entry["differences"] = differences(parent, change)
                reports.append(entry)
                print(f"{label} seed {seed}: {'identical' if entry['identical'] else 'differs'}", flush=True)
                for column, gap in entry.get("differences", {}).items():
                    print(f"    {column}: max abs {gap['max_abs']:.3g}, max rel {gap['max_rel']:.3g}")
    return reports


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("parent_src")
    parser.add_argument("change_src")
    parser.add_argument("--seeds", type=int, nargs="+", default=[7, 8])
    parser.add_argument("--out", help="JSON file whose report_parity block is (re)written")
    args = parser.parse_args(argv)
    reports = compare(args.parent_src, args.change_src, args.seeds)
    if args.out:
        out = Path(args.out)
        doc = json.loads(out.read_text(encoding="utf-8")) if out.exists() else {}
        doc["report_parity"] = {
            "method": "python -m seqgp.cli run --input STREAM OVERRIDES under each tree's src/, BLAS on one "
                      "thread, on each workload of perfbench/workloads.py, spacetime-grid with "
                      "emit_smoothed=true and the smoothed mixed-tie stream of tests/test_report_digests.py; "
                      "compared: exit code, CSV body, summary without wall_time_s "
                      "(flops included) and stderr; max_abs and max_rel per differing column",
            "seeds": args.seeds,
            "reports": reports,
        }
        out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
