"""Shared helpers for driving the CLI in-process, and its runners over columns."""

import io
import json
import sys

import numpy as np
import pytest

from seqgp import cli
from seqgp.config import parse_overrides
from seqgp.errors import DataError, NumericalError
from seqgp.linalg import condition, observe
from seqgp.runners import Columns, build_runner, run_chunks


def run_cli(argv, stdin_text=None):
    """Invoke the entry point; returns (exit_code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    old = sys.stdout, sys.stderr, sys.stdin
    sys.stdout, sys.stderr = out, err
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr, sys.stdin = old
    return code, out.getvalue(), err.getvalue()


def parse_report(text):
    """Split CLI output into (header, data rows as dicts, summary dict)."""
    lines = [ln for ln in text.splitlines() if ln]
    summary = json.loads(lines[-1])
    header = lines[0].split(",")
    rows = []
    for ln in lines[1:-1]:
        cells = ln.split(",")
        rows.append({h: (float(c) if c != "" else None) for h, c in zip(header, cells)})
    return header, rows, summary


def stream_columns(y, t=None, x=None):
    """A stream as ``Columns`` numbered from row 1; a NaN in ``y`` marks a predict-only row."""
    y = np.asarray(y, dtype=float)
    t = None if t is None else np.asarray(t, dtype=float)
    x = None if x is None else np.asarray(x, dtype=float).reshape(y.size, -1)
    return Columns(1, t, x, y)


def runner_for(overrides, data):
    """The runner ``seqgp run`` builds from ``key=value`` overrides for the stream ``data``."""
    return build_runner(parse_overrides(overrides), data)


def run_runner(runner, data, chunk_rows=cli.CHUNK_ROWS):
    """Step ``runner`` over ``data`` in chunks, as ``seqgp run`` does; the StepResults in row order."""
    return [res for _, res in run_chunks(runner, data, chunk_rows)]


def rows_until_error(runner, data, chunk_rows=cli.CHUNK_ROWS):
    """The (mean, var, loglik) that ``run_chunks`` yields before it raises, and the error."""
    got = []
    with pytest.raises((DataError, NumericalError)) as caught:
        for _, res in run_chunks(runner, data, chunk_rows):
            got.append((res.mean, res.var, res.logdensity))
    return got, caught.value


def conditioned(mean, cov, h, y, noise_var):
    """``observe`` then ``condition`` on copies of the belief: (mean, cov, pred_mean, loglik)."""
    observed = observe(mean, cov, h)
    new_mean, new_cov = np.array(mean, dtype=float), np.array(cov, dtype=float, order="C")
    return new_mean, new_cov, observed[0], condition(new_mean, new_cov, observed, y, noise_var)
