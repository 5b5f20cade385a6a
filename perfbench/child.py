"""One measured ``seqgp run`` in a fresh interpreter.

Usage: python3 child.py ROOT RESULT_JSON SPANS_JSON|- -- <seqgp run arguments>

Imports ``seqgp`` from ROOT/src, calls ``seqgp.cli.main(["run", ...])`` once
and writes a JSON record to RESULT_JSON: the exit code, the time from this
script's first statement until ``cli.build_runner`` returns (``setup_s``),
the wall time of ``cli.main`` (``main_s``), the import time, the peak
resident set, and the time of a fixed reference computation run afterwards.
With SPANS_JSON set, it first wraps the public functions and methods the
package's callers look up, keeps one span per call in memory, and writes the
spans out after ``cli.main`` returns.
"""

import time

T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

STEP_SPANS = ("runners.step", "ensemble.combine")


class Tracer:
    """Span recorder: each span is (name id, start, end, parent index, row)."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list = []
        self.stack: list[int] = []
        self.row = 0

    def wrap(self, fn, name: str):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        is_step = name in STEP_SPANS
        clock = time.perf_counter
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            prev_row = self.row
            if is_step:
                self.row = args[1].row  # (runner, record)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.row)
                self.row = prev_row

        return traced

    def install(self, targets) -> None:
        for owner, attr, name in targets:
            setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": self.names, "spans": self.spans}, fh)


def layer_targets():
    """(owner, attribute, span name) for every call the benchmark times.

    Each entry patches the name a caller looks up: ``cli`` binds
    ``build_runner`` and ``gram`` at import, ``sparse`` and ``markovian`` bind
    ``gram``, and ``runners`` reaches the rest through module attributes or
    class methods.
    """
    from seqgp import cli, ensemble, exact, features, kernels, linear_filter, markovian, runners, sparse

    targets = [(cli, fn, f"cli.{fn}") for fn in ("ingest_csv", "validate_stream_for_model", "summarize",
                                                 "write_report")]
    targets += [(cli, "build_runner", "runners.build_runner"), (runners, "build_runner", "runners.build_runner")]
    targets += [(cls, "step", "runners.step") for cls in (runners.ExactRunner, runners.LinearRunner,
                                                          runners.MarkovRunner, runners.SparseRunner)]
    targets += [(runners.EnsembleRunner, "step", "ensemble.combine"),
                (runners.MarkovRunner, "smooth", "runners.smooth"),
                (markovian, "discretize", "markovian.discretize"),
                (markovian, "rts_smoother", "markovian.rts_smoother")]
    targets += [(markovian.MarkovStepper, fn, f"markovian.{fn}") for fn in ("advance", "update", "predict_obs")]
    targets += [(linear_filter, fn, f"linear_filter.{fn}") for fn in ("predict_step", "predict_f", "update_step")]
    targets += [(features, "featurize", "features.featurize")]
    targets += [(sparse, fn, f"sparse.{fn}") for fn in ("sparse_predict", "sparse_update", "vsgp_info_update")]
    targets += [(ensemble, fn, f"ensemble.{fn}") for fn in ("mixture_predict", "bma_update")]
    targets += [(exact, "posterior", "exact.posterior")]
    targets += [(owner, "gram", "kernels.gram") for owner in (kernels.Kernel, sparse, markovian, cli)]
    return targets


def peak_rss_kib() -> int | None:
    """High-water resident set of this process image.

    Linux carries ``ru_maxrss`` across exec, so a child started from a large
    parent reports the parent's size; ``VmHWM`` belongs to the new image.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def reference_s() -> float:
    """Wall time of a fixed mix of numpy work that does not touch seqgp.

    Run right after ``cli.main`` in the same process, it measures how fast
    the machine is at that moment; the benchmark scales the child's times by
    it, so drift in machine speed between runs cancels.  The mix follows the
    program's: many small-matrix steps, whose cost is interpreter and numpy
    dispatch, and a share of 128-dim products, whose cost is BLAS.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    a, q, h = 0.3 * rng.standard_normal((8, 8)), 0.01 * np.eye(8), rng.standard_normal(8)
    big = rng.standard_normal((128, 128)) / 128.0
    start = time.perf_counter()
    p, m = np.eye(8), np.eye(128)
    for i in range(6000):
        p = a @ p @ a.T + q
        s = p @ h
        gain = s / (float(h @ s) + 0.1)
        p = 0.5 * (p - np.outer(gain, s) + (p - np.outer(gain, s)).T)
        if i % 8 == 0:
            m = big @ m @ big.T + np.eye(128)
    return time.perf_counter() - start


def main(argv: list[str]) -> int:
    root, result_path, spans_path, sep, *run_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py ROOT RESULT_JSON SPANS_JSON|- -- <seqgp run arguments>")
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    from seqgp import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"imported seqgp from {cli.__file__}, not from {src}")
    import_s = time.perf_counter() - T0

    tracer = None
    if spans_path != "-":
        tracer = Tracer()
        tracer.install(layer_targets())

    built_at = []
    build = cli.build_runner

    def stamped_build(*args, **kwargs):
        runner = build(*args, **kwargs)
        built_at.append(time.perf_counter())
        return runner

    cli.build_runner = stamped_build
    start = time.perf_counter()
    code = cli.main(["run", *run_args])
    main_s = time.perf_counter() - start
    record = {
        "exit_code": code,
        "setup_s": built_at[0] - T0 if built_at else None,
        "main_s": main_s,
        "import_s": import_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "hwm_kib": peak_rss_kib(),
        "reference_s": reference_s(),
    }
    if tracer is not None:
        tracer.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
