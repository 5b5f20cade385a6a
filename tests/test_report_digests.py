"""Report digests: short prefixes of the benchmark's workloads, run through ``cli.main``.

Each case runs the first rows of a workload of ``perfbench/workloads.py`` at
seed 7 through ``python -m seqgp.cli run`` (``cli.main``) in a child process
with BLAS pinned to one thread, as the benchmark runs it (the smoothed
space-time report reads the thread count: the smoother's d = 128 products
round differently on several threads), and compares the SHA-256 of its CSV
body and its summary without ``wall_time_s`` against a stored digest.  A change that moves any cell, by any
amount, moves the digest: one that means to must say so and store the new
digest.  The ``spacetime-grid`` and ``oracle-exact`` digests have held since
the Markov runner began conditioning runs of one-row time steps at once, and
since it began building a run's prior from O(n) state rows; each changed only
the ``markov-irregular`` and ``ensemble-mixed`` cells, by rounding.  One
more case, ``mixed-ties`` (``mixed_tie_stream``), runs the whole of a stream
generated here, whose blocks mix tied time steps and runs of one-row time
steps, which no workload's blocks do.  Digests depend on floating-point
rounding, so a different numpy, scipy or BLAS build may move them; the
failure message names the ones in use.
"""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS, Workload  # noqa: E402

ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SEED = 7

MIXED_TIES = "mixed-ties"
TIE_SIZES = (2, 3, 64, 65)  # a 65-row tie is a block of 64 and a one-row remainder, joined to the run after it


def mixed_tie_stream(seed: int, workdir: str) -> Workload:
    """1,200 rows under ``markov-irregular``'s model and overrides (smoothed): runs of 1 to 39
    one-row time steps, irregularly spaced, between tie groups of 2, 3, 64 and 65 rows in
    turn, a tenth of the rows predict-only.  The runner's blocks of 64 rows or more then mix
    ties and runs: a run after a tie at its clock, and a tie after a run."""
    rng = np.random.default_rng(seed)
    sizes = []
    for tie in itertools.cycle(TIE_SIZES):
        if sum(sizes) >= 1200:
            break
        sizes += [1] * int(rng.integers(1, 40)) + [tie]
    t = np.repeat(np.cumsum(rng.uniform(0.01, 0.05, len(sizes))), sizes)[:1200]
    y = np.sin(1.3 * t) + 0.5 * np.sin(0.4 * t + 1.0) + np.sqrt(0.1) * rng.standard_normal(t.size)
    y[rng.random(t.size) < 0.1] = np.nan
    path = Path(workdir) / f"{MIXED_TIES}.csv"
    path.write_text("t,y\n" + "".join(f"{ti!r},{'' if yi != yi else repr(yi)}\n"
                                       for ti, yi in zip(t.tolist(), y.tolist())), encoding="utf-8")
    overrides = WORKLOADS["markov-irregular"](seed, workdir).overrides
    return Workload(MIXED_TIES, str(path), overrides, t, None, y, oracle_rows=0)


STREAMS = {**WORKLOADS, MIXED_TIES: mixed_tie_stream}

# (workload, rows, emit_smoothed) -> SHA-256 of the body and the summary without wall_time_s
DIGESTS = {
    ("markov-irregular", 1000, False):
        "415dbf6ac6353812a3cfc9faf9011b8f4eacea429e1f42bc0478f022175cd374",
    ("spacetime-grid", 384, False): "73f6f85aeb785aaece3f26dee53c92cbf5aee486a70dd68dcc1e58113cfbe38f",
    ("spacetime-grid", 384, True): "6f128a995d502f879577eadf3d6b64898d67fe2b08bc50fb74407e4001ff62f0",
    ("ensemble-mixed", 400, False): "77fc12567b6f0751736198aff5c458cea69dffdb4b0ca9b579e1a95203287979",
    ("oracle-exact", 300, False): "f9c44e888964df6c61dc0f56b6828abaf40c19910472f52f8b57624bd56c2a2f",
    (MIXED_TIES, 1200, False): "fc7943ec698ba1ad1fab8c877cb2660bb066e7f4d715a340a3cdccdd3c6d7434",  # smoothed
}


def report_digest(tmp_path: Path, name: str, rows: int, smoothed: bool) -> str:
    """The digest of ``seqgp run`` on the first ``rows`` rows of stream ``name`` at ``SEED``."""
    w = STREAMS[name](SEED, str(tmp_path))
    lines = Path(w.input_path).read_text(encoding="utf-8").splitlines(keepends=True)
    overrides = w.overrides + (["emit_smoothed=true"] if smoothed else [])
    env = os.environ | ONE_THREAD | {"PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-m", "seqgp.cli", "run", *overrides], input="".join(lines[: rows + 1]),
                          env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    *body, last = proc.stdout.splitlines()
    summary = json.loads(last)
    summary.pop("wall_time_s")
    text = "\n".join(body) + "\n" + json.dumps(summary, sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def environment() -> str:
    """numpy, scipy and the BLAS each links, as their build configurations name them."""
    parts = [f"numpy {np.__version__}", f"scipy {scipy.__version__}"]
    for module in (np, scipy):
        blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        parts.append(f"{module.__name__} BLAS: {blas.get('openblas configuration', blas.get('name'))}")
    found = np.show_config(mode="dicts").get("SIMD Extensions", {}).get("found", [])
    parts.append(f"numpy SIMD found: {', '.join(found)}")
    return "; ".join(parts)


@pytest.mark.parametrize("name, rows, smoothed", list(DIGESTS), ids=[
    f"{name}-{rows}{'-smoothed' if smoothed else ''}" for name, rows, smoothed in DIGESTS])
def test_report_digest(tmp_path, name, rows, smoothed):
    got = report_digest(tmp_path, name, rows, smoothed)
    assert got == DIGESTS[name, rows, smoothed], (
        f"{name}, first {rows} rows{' smoothed' if smoothed else ''}: digest {got}; {environment()}")
