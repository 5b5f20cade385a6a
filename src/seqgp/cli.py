"""Streaming command line: ``seqgp run``, ``seqgp fit-exact``, ``seqgp check``.

Input is CSV with a header naming either a time column ``t``, input columns
``x1..xD``, or both (spatiotemporal), plus a target column ``y``; an empty
``y`` cell marks a predict-only row.  ``run`` reads the rows into float
columns and runs them through the configured model in chunks of CHUNK_ROWS:
the model prepares a chunk's input-only work in one call, then each row goes
prequentially (predict, score, then update).  It writes CSV rows followed by
one line-delimited JSON summary record.  ``fit-exact``
fits the batch exact-GP oracle (optionally after a marginal-likelihood grid
search) on the y-bearing rows and predicts the rest.  ``check`` runs a
quick invariant battery against the configured model.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical error.
A data or numerical error raised while ``run`` steps a row names its 1-based
row.  An ``--input`` or ``--output`` path that cannot be opened, and an output
closed by its reader before the report is written (a broken pipe), are
configuration errors naming the option.  A warning is one ``seqgp:`` line.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys
import time
import warnings

import numpy as np
from scipy.linalg import expm

from . import exact, features, linear_filter, markovian
from .config import (
    build_kernel,
    get_bool,
    get_float,
    get_float_list,
    get_int,
    get_str,
    keyed,
    member_configs,
    parse_config_text,
    parse_overrides,
)
from .errors import ConfigurationError, DataError, NumericalError, SeqgpError
from .kernels import eval_kernel, eval_psd, gram
from .runners import Columns, build_runner, run_chunks

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4

# Rows per chunk: the CSV is parsed, runners prepare their input-only work, and
# the report is formatted this many rows at a time.  A runner's chunk ends at
# the first block start of its partition at or after this many rows
# (``runners.run_chunks``), so it may run up to 126 rows longer for the exact
# GP, whose blocks have 64 to 127 rows.  At F = 256 features the prepared
# feature block is 512 KiB.
CHUNK_ROWS = 256
# report columns left empty on a row without y
BLANK_WITHOUT_Y = ("y", "pred_logdensity")


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

def parse_header(line: str) -> list[str]:
    cols = [c.strip() for c in line.split(",")]
    seen = set()
    for c in cols:
        if c in seen:
            raise DataError(f"duplicate column {c!r} in header")
        seen.add(c)
    x_cols = [c for c in cols if c.startswith("x")]
    expected = [f"x{i}" for i in range(1, len(x_cols) + 1)]
    if sorted(x_cols) != sorted(expected):
        raise DataError(f"input columns must be named x1..xD, got {x_cols}")
    allowed = {"t", "y", *expected}
    unknown = [c for c in cols if c not in allowed]
    if unknown:
        raise DataError(f"unknown columns {unknown}; expected t, x1..xD, y")
    if "y" not in cols:
        raise DataError("header must name a y column")
    if "t" not in cols and not x_cols:
        raise DataError("header must name a t column or input columns x1..xD")
    return cols


def _parse_rows(lines: list[str], cols: list[str], first_row: int) -> np.ndarray:
    """Parse a block of non-blank lines row by row and cell by cell: raises the
    first bad row's error, naming its 1-based row and column; an empty ``y``
    cell reads as NaN."""
    vals = np.empty((len(lines), len(cols)))
    for row, line in enumerate(lines, start=first_row):
        cells = [c.strip() for c in line.rstrip("\n").split(",")]
        if len(cells) != len(cols):
            raise DataError(f"row {row}: expected {len(cols)} cells, got {len(cells)}")
        parsed = {}
        for name, cell in zip(cols, cells):
            if cell == "":
                parsed[name] = None
                continue
            try:
                parsed[name] = float(cell)
            except ValueError as exc:
                raise DataError(f"row {row}, column {name}: malformed number {cell!r}") from exc
            if not math.isfinite(parsed[name]):
                raise DataError(f"row {row}, column {name}: non-finite value {cell!r}")
        if "t" in parsed and parsed["t"] is None:
            raise DataError(f"row {row}: missing t value")
        if any(parsed[c] is None for c in cols if c.startswith("x")):
            raise DataError(f"row {row}: missing input coordinate")
        vals[row - first_row] = [math.nan if v is None else v for v in parsed.values()]
    return vals


def _parse_block(lines: list[str], cols: list[str], first_row: int) -> np.ndarray:
    """(len(lines), len(cols)) floats, read with ``float`` in one pass over the
    block's cells; an empty ``y`` cell reads as NaN.  A block with any bad cell
    is parsed again row by row (``_parse_rows``), which raises its error."""
    n_cols, y_col = len(cols), cols.index("y")
    if any(line.count(",") != n_cols - 1 for line in lines):
        return _parse_rows(lines, cols, first_row)
    cells = ",".join(lines).split(",")
    blank = [i for i, cell in enumerate(cells[y_col::n_cols]) if not cell.strip()]
    for i in blank:
        cells[i * n_cols + y_col] = "nan"
    try:
        vals = np.fromiter(map(float, cells), dtype=float, count=len(cells)).reshape(-1, n_cols)
    except ValueError:
        return _parse_rows(lines, cols, first_row)
    finite = np.isfinite(vals)
    finite[blank, y_col] = True
    return vals if finite.all() else _parse_rows(lines, cols, first_row)


def ingest_csv(stream) -> tuple[list[str], Columns]:
    """Parse a CSV stream into float columns, CHUNK_ROWS lines at a time;
    returns (column names, the rows as ``Columns``)."""
    header = stream.readline()
    if not header.strip():
        raise DataError("empty input: expected a header row naming t|x1..xD and y")
    cols = parse_header(header)
    blocks, n = [], 0
    while lines := list(itertools.islice(stream, CHUNK_ROWS)):
        lines = [line for line in lines if line.strip()]
        blocks.append(_parse_block(lines, cols, n + 1))
        n += len(lines)
    vals = np.concatenate(blocks) if blocks else np.empty((0, len(cols)))
    n_x = sum(c.startswith("x") for c in cols)
    t = vals[:, cols.index("t")] if "t" in cols else None
    x = vals[:, [cols.index(f"x{i}") for i in range(1, n_x + 1)]] if n_x else None
    return cols, Columns(1, t, x, vals[:, cols.index("y")])


def validate_stream_for_model(cfg: dict, cols: list[str]) -> None:
    """Check the input columns against the model, and each ensemble member's
    against the member, before any row is read by a runner."""
    model = get_str(cfg, "model", required=True)
    if model == "ensemble":
        for i, block in enumerate(member_configs(cfg), start=1):
            if block.get("model") == "ensemble":
                raise ConfigurationError(f"member.{i}.model: ensembles cannot nest")
            with keyed(prefix=f"member.{i}."):
                validate_stream_for_model(block, cols)
        return
    has_t = "t" in cols
    has_x = any(c.startswith("x") for c in cols)
    if model == "markov":
        if not has_t:
            raise ConfigurationError("model: markov needs a t column")
        if has_x and get_str(cfg, "spatial.locations") is None:
            raise ConfigurationError("spatial.locations: required for x columns; markov is time-only without it")
        if not has_x and get_str(cfg, "spatial.locations") is not None:
            raise ConfigurationError("spatial.locations: set, but the input has no x columns")
    elif has_t and has_x:
        raise ConfigurationError(f"model: {model} takes either t or x1..xD, not both")


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def summarize(y: np.ndarray, pred_mean: np.ndarray, pred_logdensity: np.ndarray) -> dict:
    """Summary statistics recomputable from the emitted rows: the scored rows
    are those with a ``y``, and each sum is the built-in ``sum`` in row order."""
    scored = ~np.isnan(y)
    summary = {"rows": int(y.size), "scored": int(scored.sum())}
    if summary["scored"]:
        with np.errstate(over="ignore"):
            sq = [e * e for e in (y[scored] - pred_mean[scored]).tolist()]  # e ** 2 raises OverflowError
        lls = pred_logdensity[scored].tolist()
        summary["rmse"] = math.sqrt(sum(sq) / len(sq))
        summary["mean_nlpd"] = -sum(lls) / len(lls)
        summary["total_loglik"] = sum(lls)
    else:
        summary["rmse"] = None
        summary["mean_nlpd"] = None
        summary["total_loglik"] = None
    return summary


def finite_or_null(value):
    """Replace every non-finite float in a JSON-bound structure with None."""
    if isinstance(value, dict):
        return {k: finite_or_null(v) for k, v in value.items()}
    if isinstance(value, list):
        return [finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_report(out, columns: dict, summary: dict, blank: np.ndarray | None = None) -> None:
    """Write the header, one CSV line per row and the summary line.  ``columns``
    maps each header name to a float column, written with ``repr``; the cells
    of rows marked in ``blank`` stay empty in the ``y`` and
    ``pred_logdensity`` columns.  Rows are formatted CHUNK_ROWS at a time."""
    out.write(",".join(columns) + "\n")
    n = len(next(iter(columns.values())))
    for start in range(0, n, CHUNK_ROWS):
        stop = min(start + CHUNK_ROWS, n)
        cells = []
        for name, values in columns.items():
            col = list(map(repr, values[start:stop].tolist()))
            if blank is not None and name in BLANK_WITHOUT_Y:
                for i in np.flatnonzero(blank[start:stop]).tolist():
                    col[i] = ""
            cells.append(col)
        out.write("".join([",".join(row) + "\n" for row in zip(*cells)]))
    out.write(json.dumps(finite_or_null(summary), allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _input_columns(cols: list[str], data: Columns) -> dict:
    """The report's ``t`` and ``x1..xD`` columns, in the input's header order."""
    return {c: data.t if c == "t" else data.x[:, int(c[1:]) - 1] for c in cols if c != "y"}


def cmd_run(cfg: dict, in_stream, out_stream) -> int:
    t0 = time.perf_counter()
    cols, data = ingest_csv(in_stream)
    validate_stream_for_model(cfg, cols)
    runner = build_runner(cfg, data)
    smooth = get_bool(cfg, "emit_smoothed", default=False)
    if smooth and not hasattr(runner, "smooth"):
        raise ConfigurationError("emit_smoothed: only markov models support smoothing")

    n = len(data)
    pred_mean, pred_var, pred_logdensity = np.empty(n), np.empty(n), np.full(n, np.nan)
    weights = None
    for rec, res in run_chunks(runner, data, CHUNK_ROWS):
        i = rec.row - 1
        pred_mean[i], pred_var[i] = res.mean, res.var
        if res.logdensity is not None:
            pred_logdensity[i] = res.logdensity
        if res.weights is not None:
            if weights is None:
                weights = np.empty((n, res.weights.size))
            weights[i] = res.weights

    columns = _input_columns(cols, data)
    columns.update(y=data.y, pred_mean=pred_mean, pred_var=pred_var, pred_logdensity=pred_logdensity)
    if weights is not None:  # an ensemble gives every row the same weight_1..weight_K cells
        columns.update((f"weight_{k}", weights[:, k - 1]) for k in range(1, weights.shape[1] + 1))
    if smooth:
        try:
            smoothed = runner.smooth()
        except NumericalError as exc:  # smooth names the 0-based input row at fault
            exc.args = (f"row {exc.detail['step'] + 1}: {exc}",)
            raise
        columns.update(smoothed_mean=smoothed[:, 0], smoothed_var=smoothed[:, 1])

    summary = summarize(data.y, pred_mean, pred_logdensity)
    summary["model"] = get_str(cfg, "model", required=True)
    summary["flops"] = int(runner.flops)
    if runner.approximate_loglik:
        summary["loglik_approximate"] = True
    summary["wall_time_s"] = time.perf_counter() - t0
    write_report(out_stream, columns, summary, blank=np.isnan(data.y))
    return 0


# the config key each Kernel field of a grid cell is read from
GRID_KEYS = {"sigma_f2": "grid.sigma_f2", "lengthscale": "grid.lengthscale"}


@keyed()
def cmd_fit_exact(cfg: dict, in_stream, out_stream) -> int:
    t0 = time.perf_counter()
    cols, data = ingest_csv(in_stream)
    observed = ~np.isnan(data.y)
    if not observed.any():
        raise DataError("fit-exact needs at least one row with a y value")
    noise_var = get_float(cfg, "noise_var", required=True)
    kernel = build_kernel(cfg)

    X = data.points[observed]
    y = data.y[observed]

    grids = {}
    for name, key in GRID_KEYS.items():
        values = get_float_list(cfg, key)
        if values is not None:
            grids[name] = values
    grid_table = None
    if grids:
        with keyed(GRID_KEYS):
            kernel, table = exact.grid_search(kernel, noise_var, X, y, grids)
        grid_table = [{"params": params, "log_marginal": score} for params, score in table]

    test = Columns(1, *(None if c is None else c[~observed] for c in (data.t, data.x, data.y)))
    weights = np.empty((0, X.shape[0]))
    columns = _input_columns(cols, test)
    columns.update(mean=np.empty(0), var=np.empty(0))
    if len(test):
        post = exact.posterior(kernel, noise_var, X, y, test.points)
        columns.update(mean=post.mean, var=np.diagonal(post.covariance))
        weights = post.weights
    if get_bool(cfg, "emit_weights", default=False):
        columns.update((f"w{j}", weights[:, j - 1]) for j in range(1, X.shape[0] + 1))

    summary = {
        "rows": len(test),
        "n_train": X.shape[0],
        # the posterior's log_marginal is the same formula on the same factor
        "log_marginal": post.log_marginal if len(test) else exact.log_marginal_likelihood(kernel, noise_var, X, y),
        "kernel": {"family": kernel.family, "sigma_f2": kernel.sigma_f2, "lengthscale": kernel.lengthscale},
    }
    if grid_table is not None:
        summary["grid_table"] = grid_table
    summary["wall_time_s"] = time.perf_counter() - t0
    write_report(out_stream, columns, summary)
    return 0


def _report(out, failures, name, ok, detail=""):
    """Write one check line; record the name of a failed check."""
    if ok:
        out.write(f"ok {name}\n")
    else:
        failures.append(name)
        out.write(f"FAIL {name} {detail}\n")


def _check_kernel(kernel, report):
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2.0, 2.0, size=12)

    sym = max(abs(eval_kernel(kernel, a, b) - eval_kernel(kernel, b, a)) for a in xs[:6] for b in xs[6:])
    report("kernel.symmetry", sym == 0.0, f"max asymmetry {sym:.3e}")
    diag = max(abs(eval_kernel(kernel, a, a) - kernel.total_variance) for a in xs)
    report("kernel.diagonal_variance", diag <= 1e-12 * kernel.total_variance, f"max deviation {diag:.3e}")
    G = gram(kernel, xs) + 1e-8 * kernel.total_variance * np.eye(xs.size)
    try:
        np.linalg.cholesky(G)
        report("kernel.gram_psd", True)
    except np.linalg.LinAlgError:
        report("kernel.gram_psd", False, "jittered Gram not positive definite")
    s = np.linspace(-30.0, 30.0, 5001)
    S = eval_psd(kernel, s)
    report("kernel.psd_nonnegative_even", bool(np.all(S >= 0.0) and np.allclose(S, S[::-1])))


@keyed()
def cmd_check(cfg: dict, out_stream) -> int:
    failures: list[str] = []
    report = functools.partial(_report, out_stream, failures)
    kernel = build_kernel(cfg)
    # every key is read before the first line is written
    kind = get_str(cfg, "features.kind", choices={"rff", "hsgp"})
    n_feat = get_int(cfg, "features.F", default=64)
    if kind == "rff":
        seed = get_int(cfg, "features.seed", default=get_int(cfg, "seed", default=0))
        fmap = features.sample_rff(kernel, n_feat, seed)
    elif kind == "hsgp":
        L = get_float(cfg, "features.L", default=1.0)
        fmap = features.build_hsgp(kernel, n_feat, L)
    _check_kernel(kernel, report)

    if kernel.family in ("matern12", "matern32", "hida_matern"):
        sde = markovian.build_lti(kernel)
        # each bound is relative to the size of what it compares, which scales with the hyperparameters
        source = sde.noise_loading @ sde.diffusion @ sde.noise_loading.T
        resid = np.abs(sde.drift @ sde.stationary + sde.stationary @ sde.drift.T + source).max()
        report("markov.lyapunov_residual", resid <= 1e-9 * np.abs(source).max(), f"residual {resid:.3e}")
        scale = max(kernel.lengthscale, max((c.lengthscale for c in kernel.hm_components), default=0.0))
        worst = closed = size = 0.0
        for delta in np.arange(11) * (0.5 * scale):  # 0, 0.5, ..., 5 lengthscales
            A = expm(sde.drift * delta)
            duality = float((sde.obs @ A @ sde.stationary @ sde.obs.T)[0, 0])
            worst = max(worst, abs(duality - eval_kernel(kernel, 0.0, delta)))
            closed = max(closed, float(np.abs(markovian.transition(sde, delta) - A).max()))
            size = max(size, float(np.abs(A).max()))
        report("markov.kernel_sde_duality", worst <= 1e-8 * kernel.total_variance,
               f"max |H e^(Fd) P H' - kappa| = {worst:.3e}")
        report("markov.transition_closed_form", closed <= 1e-12 * size, f"max |transition - expm| = {closed:.3e}")

    if kind == "rff":
        norms = [abs(float(features.featurize(fmap, x) @ features.featurize(fmap, x)) - 1.0)
                 for x in (-1.3, 0.0, 2.7)]
        report("features.rff_unit_norm", max(norms) < 1e-12, f"max |phi.phi - 1| = {max(norms):.3e}")
    if kind == "hsgp":
        edge = max(np.abs(features.featurize(fmap, -L)).max(), np.abs(features.featurize(fmap, L)).max())
        peak = fmap.spectral_weights.max() / math.sqrt(L)  # the largest basis function's amplitude
        report("features.hsgp_boundary", edge <= 1e-10 * peak, f"max |phi(+-L)| = {edge:.3e}")

    belief = linear_filter.GaussianBelief(np.array([0.4, -0.2]), np.array([[0.5, 0.1], [0.1, 0.7]]))
    prior_var = kernel.total_variance
    same = linear_filter.predict_step(belief, linear_filter.b2p(1.0, prior_var))
    report("dynamics.b2p_lambda1_is_static",
           np.allclose(same.mean, belief.mean, atol=1e-12) and np.allclose(same.cov, belief.cov, atol=1e-12))
    reset = linear_filter.predict_step(belief, linear_filter.b2p(0.0, prior_var))
    report("dynamics.b2p_lambda0_is_prior",
           np.allclose(reset.mean, 0.0, atol=1e-12) and np.allclose(reset.cov, prior_var * np.eye(2), atol=1e-12))
    rw = linear_filter.predict_step(belief, linear_filter.random_walk(0.03))
    gen = linear_filter.predict_step(belief, linear_filter.general(1.0, 0.0, 0.03))
    report("dynamics.general_matches_random_walk",
           np.allclose(rw.mean, gen.mean, atol=1e-12) and np.allclose(rw.cov, gen.cov, atol=1e-12))

    out_stream.write(("all checks passed" if not failures else f"{len(failures)} check(s) failed") + "\n")
    return 0 if not failures else EXIT_NUMERICAL


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _load_config(args) -> dict:
    cfg: dict[str, str] = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg.update(parse_config_text(fh.read()))
        except OSError as exc:
            raise ConfigurationError(f"cannot read config file {args.config!r}: {exc}") from exc
    cfg.update(parse_overrides(args.overrides))
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    return cfg


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="seqgp", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, needs_input in (("run", True), ("fit-exact", True), ("check", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", help="path to a key=value config file")
        p.add_argument("--seed", type=int, help="seed for stochastic components")
        p.add_argument("overrides", nargs="*", metavar="key=value", help="config overrides")
        p.add_argument("--output", default="-", help="output path (default stdout)")
        if needs_input:
            p.add_argument("--input", default="-", help="input CSV path (default stdin)")
    return parser


def _open(path: str, mode: str, option: str):
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as exc:
        raise ConfigurationError(f"{option}: cannot open {path!r}: {exc.strerror or exc}") from exc


def _stdout_to_devnull() -> None:
    """Point stdout's descriptor at devnull after a broken pipe, so that the
    interpreter's flush of stdout at exit cannot raise again."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):  # a stand-in stream without a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def _dispatch(args, cfg: dict, out) -> int:
    if args.command == "check":
        return cmd_check(cfg, out)
    ins = sys.stdin if args.input == "-" else _open(args.input, "r", "--input")
    try:
        if args.command == "run":
            return cmd_run(cfg, ins, out)
        return cmd_fit_exact(cfg, ins, out)
    finally:
        if ins is not sys.stdin:
            ins.close()


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    args.overrides = list(args.overrides) + list(extra)
    with warnings.catch_warnings():  # a warning is one seqgp: line; a caller's own hook is back on return
        warnings.showwarning = lambda message, *_: print(f"seqgp: warning: {message}", file=sys.stderr)
        for category in (UserWarning, RuntimeWarning):  # printed as by default, even under -W error
            warnings.filterwarnings("default", category=category)
        try:
            cfg = _load_config(args)
            out = sys.stdout if args.output == "-" else _open(args.output, "w", "--output")
            try:
                code = _dispatch(args, cfg, out)
                out.flush()  # a reader gone from a buffered stdout fails here, not in the flush at exit
                return code
            finally:
                if out is not sys.stdout:
                    out.close()
        except BrokenPipeError:
            if args.output == "-":
                _stdout_to_devnull()
            print("seqgp: configuration error: --output: closed by its reader before the report was written",
                  file=sys.stderr)
            return EXIT_CONFIG
        except ConfigurationError as exc:
            print(f"seqgp: configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except DataError as exc:
            print(f"seqgp: data error: {exc}", file=sys.stderr)
            return EXIT_DATA
        except (NumericalError, SeqgpError) as exc:
            print(f"seqgp: numerical error: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
