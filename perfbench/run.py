"""seqgp streaming benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Generates the named workload from the seed, then, for S seconds, runs
``seqgp run`` on it through ``seqgp.cli.main`` in fresh child interpreters,
one at a time, and checks every report (exit code, strict JSON summary,
finite cells, row count, and the chain-rule oracle).  With ``--trace 0`` it
reports the end-to-end metrics (medians over the children, times scaled to
nominal machine speed by ``speed``); with
``--trace 1`` it alternates untraced and traced children and reports the
per-layer metrics.  The last line of stdout is the JSON result; the line
before it records the workload's input properties, the environment and
every child's raw numbers.  ``--workload all`` runs each workload in turn.

The package is imported from ``src/`` next to this directory; nothing is
installed.  Temporary files live under ``.perfbench_work/`` and are removed
on exit.  See LAYERS.md for what each metric is meant to move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

# Children run one at a time with BLAS pinned to one thread, so a run's
# numbers do not depend on the BLAS build's default thread count.  This
# process pins it too, before numpy loads, so that the reference work it
# times runs as it does in a child.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(CHILD_ENV)

from child import STEP_SPANS, reference_s  # noqa: E402
from workloads import WORKLOADS, properties  # noqa: E402
CHILD_TIMEOUT_S = 150
# Typical ``child.reference_s`` on the machine the benchmark was defined on
# (2-vCPU Xeon VM); ``rows_per_s`` and ``setup_s`` are scaled to this speed.
REFERENCE_NOMINAL_S = 0.25


def speed(record: dict) -> float:
    """How much slower than nominal the machine ran around one child.

    The speed of a shared VM drifts by up to 2x within minutes.  The same
    fixed reference work is timed just before the child starts (here) and
    just after ``cli.main`` returns (in the child); their mean, over the
    nominal time, measures that drift, and dividing it out keeps runs made
    at different moments comparable.
    """
    return (record["reference_before_s"] + record["reference_s"]) / (2.0 * REFERENCE_NOMINAL_S)


SELF_TIMED = (
    "cli.ingest_csv", "cli.validate_stream_for_model", "cli.write_report", "cli.summarize",
    "runners.build_runner", "runners.step", "runners.smooth",
    "markovian.discretize", "markovian.advance", "markovian.update", "markovian.predict_obs",
    "markovian.rts_smoother",
    "linear_filter.predict_step", "linear_filter.predict_f", "linear_filter.update_step", "features.featurize",
    "sparse.sparse_predict", "sparse.sparse_update", "sparse.vsgp_info_update",
    "ensemble.combine", "ensemble.mixture_predict", "ensemble.bma_update",
    "exact.posterior", "kernels.gram",
)
COUNTED = ("runners.step", "markovian.discretize", "exact.posterior", "kernels.gram")


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "child_env": CHILD_ENV,
    }


def run_child(workload, workdir: str, tag: str, traced: bool) -> dict:
    """Run one ``seqgp run`` child; returns its record plus the report text and spans."""
    out = {name: os.path.join(workdir, f"{tag}.{name}") for name in ("result.json", "report.csv", "spans.json")}
    cmd = [sys.executable, os.path.join(HERE, "child.py"), ROOT, out["result.json"],
           out["spans.json"] if traced else "-", "--",
           "--input", workload.input_path, "--output", out["report.csv"], *workload.overrides]
    before_s = reference_s()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"failure": f"child exceeded {CHILD_TIMEOUT_S} s"}
    if proc.returncode != 0 or not os.path.exists(out["result.json"]):
        return {"failure": f"child exited {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    with open(out["result.json"], encoding="utf-8") as fh:
        record = json.load(fh)
    record["reference_before_s"] = before_s
    if record["exit_code"] != 0:
        record["failure"] = f"seqgp run exited {record['exit_code']}: {proc.stderr.strip()[-500:]}"
        return record
    with open(out["report.csv"], encoding="utf-8") as fh:
        record["report"] = fh.read()
    if traced:
        with open(out["spans.json"], encoding="utf-8") as fh:
            record["spans"] = json.load(fh)
    for path in out.values():
        if os.path.exists(path):
            os.remove(path)
    return record


def layer_metrics(doc: dict) -> dict:
    """Per-layer counts and self times from one traced child's spans."""
    names, spans = doc["names"], doc["spans"]
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    row_us = []
    for i, (name_id, start, end, parent, _) in enumerate(spans):
        name = names[name_id]
        calls[name] += 1
        self_s[name] += end - start - child_time[i]
        if parent < 0 and name in STEP_SPANS:
            row_us.append((end - start) * 1e6)
    row_us.sort()
    out = {f"{name}.self_s": self_s[name] for name in SELF_TIMED}
    out.update({f"{name}.calls": calls[name] for name in COUNTED})
    out["runners.step.p50_us"] = _percentile(row_us, 0.50)
    out["runners.step.p99_us"] = _percentile(row_us, 0.99)
    advances = calls["markovian.advance"]
    out["markovian.cache_hit_ratio"] = 1.0 - calls["markovian.discretize"] / advances if advances else 0.0
    return out


def _percentile(sorted_values: list, q: float) -> float:
    if not sorted_values:
        return 0.0
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """(info, result) for one workload; raises RuntimeError if nothing could be measured."""
    import oracle
    import seqgp.cli  # noqa: F401  compiles the package once, before any child is timed

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        workload = WORKLOADS[name](seed, workdir)
        expected: dict = {}
        plain, traced, failures, checks = [], [], [], []
        reference_s()  # the first call pays numpy and BLAS start-up; keep that out of every child's scale
        start = time.perf_counter()
        # Start another round only if one more, at the mean round time so far,
        # still ends within the budget: the run then lasts at most ``seconds``
        # after its first round, however fast the machine is.
        while not plain or (time.perf_counter() - start) * (len(plain) + 1) / len(plain) <= seconds:
            for is_traced in (False, True) if trace else (False,):
                record = run_child(workload, workdir, f"c{len(plain) + len(traced)}", is_traced)
                if "failure" not in record:
                    check = oracle.check_report(workload, record.pop("report"), expected)
                    record["failure"] = check.pop("failure")
                    checks.append(check)
                if record["failure"] is not None:
                    failures.append(record["failure"])
                (traced if is_traced else plain).append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    timed = [r for r in plain if r.get("main_s") is not None and r.get("setup_s") is not None]
    if not timed:
        raise RuntimeError(f"{name}: no child completed a timed run: {failures[:3]}")
    props = properties(workload)
    rows = props["rows"]
    rows_per_s = statistics.median(rows / r["main_s"] * speed(r) for r in timed)
    unscaled = {"rows_per_s": statistics.median(rows / r["main_s"] for r in timed),
                "setup_s": statistics.median(r["setup_s"] for r in timed)}
    if trace:
        layers = [layer_metrics(r["spans"]) | {"cli.import_s": r["import_s"]} for r in traced if "spans" in r]
        if not layers:
            raise RuntimeError(f"{name}: no traced child completed: {failures[:3]}")
        metrics = {key: {"value": statistics.median(m[key] for m in layers), "unit": unit}
                   for key, unit in PER_LAYER_UNITS.items() if key != "trace.overhead_frac"}
        traced_rows_per_s = statistics.median(rows / r["main_s"] * speed(r) for r in traced if "spans" in r)
        metrics["trace.overhead_frac"] = {"value": 1.0 - traced_rows_per_s / rows_per_s, "unit": "ratio"}
    else:
        metrics = {
            "rows_per_s": {"value": rows_per_s, "unit": "rows/s"},
            "setup_s": {"value": statistics.median(r["setup_s"] / speed(r) for r in timed), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median((r["hwm_kib"] or r["maxrss_kib"]) / 1024.0 for r in timed),
                            "unit": "MiB"},
        }
    attempted = len(plain) + len(traced)
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}
    info = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "properties": props, "environment": environment(), "unscaled": unscaled,
        "fail_frac": len(failures) / attempted, "failures": failures, "checks": checks,
        "children": [{k: v for k, v in r.items() if k != "spans"} for r in plain + traced],
    }
    return info, result


PER_LAYER_UNITS = {
    "cli.import_s": "s",
    **{f"{name}.self_s": "s" for name in SELF_TIMED},
    **{f"{name}.calls": "count" for name in COUNTED},
    "runners.step.p50_us": "us",
    "runners.step.p99_us": "us",
    "markovian.cache_hit_ratio": "ratio",
    "trace.overhead_frac": "ratio",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "seqgp", "cli.py")):
        print(f"perfbench: no seqgp sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)  # the parent imports seqgp for the oracle, which also compiles it once

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        try:
            info, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(info))
        if len(names) == 1:
            print(json.dumps(result))
            return 0
        for key, metric in result["metrics"].items():
            print(f"{name:18s} {key:40s} {metric['value']:14.6g} {metric['unit']}")
            combined["metrics"][f"{name}/{key}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
