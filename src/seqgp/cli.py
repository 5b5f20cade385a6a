"""Streaming command line: ``seqgp run``, ``seqgp fit-exact``, ``seqgp check``.

Input is CSV with a header naming either a time column ``t``, input columns
``x1..xD``, or both (spatiotemporal), plus a target column ``y``; an empty
``y`` cell marks a predict-only row.  ``run`` streams the rows through the
configured model prequentially (predict, score, then update) and writes CSV
rows followed by one line-delimited JSON summary record.  ``fit-exact``
fits the batch exact-GP oracle (optionally after a marginal-likelihood grid
search) on the y-bearing rows and predicts the rest.  ``check`` runs a
quick invariant battery against the configured model.

Exit codes: 0 ok, 2 configuration error, 3 data error, 4 numerical error.
A data or numerical error raised while ``run`` steps a row names its 1-based
row.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time

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
from .runners import StreamRecord, build_runner

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


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
    return cols


def ingest_csv(stream) -> tuple[list[str], list[StreamRecord]]:
    """Parse a CSV stream of records; returns (column names, records)."""
    header = stream.readline()
    if not header.strip():
        raise DataError("empty input: expected a header row naming t|x1..xD and y")
    cols = parse_header(header)
    n_x = sum(1 for c in cols if c.startswith("x"))
    records = []
    row = 0
    for line in stream:
        if not line.strip():
            continue
        row += 1
        cells = [c.strip() for c in line.rstrip("\n").split(",")]
        if len(cells) != len(cols):
            raise DataError(f"row {row}: expected {len(cols)} cells, got {len(cells)}")
        vals = {}
        for name, cell in zip(cols, cells):
            if cell == "":
                vals[name] = None
                continue
            try:
                vals[name] = float(cell)
            except ValueError as exc:
                raise DataError(f"row {row}, column {name}: malformed number {cell!r}") from exc
            if not math.isfinite(vals[name]):
                raise DataError(f"row {row}, column {name}: non-finite value {cell!r}")
        t = vals.get("t")
        if "t" in cols and t is None:
            raise DataError(f"row {row}: missing t value")
        x = None
        if n_x:
            parts = [vals[f"x{i}"] for i in range(1, n_x + 1)]
            if any(p is None for p in parts):
                raise DataError(f"row {row}: missing input coordinate")
            x = np.array(parts)
        records.append(StreamRecord(row=row, t=t, x=x, y=vals.get("y")))
    return cols, records


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

def fmt(value) -> str:
    if value is None:
        return ""
    return repr(float(value))


def summarize(rows: list[dict]) -> dict:
    """Summary statistics recomputable from the emitted rows."""
    scored = [r for r in rows if r.get("y") is not None and r.get("pred_logdensity") is not None]
    summary = {"rows": len(rows), "scored": len(scored)}
    if scored:
        sq = [e * e for e in (r["y"] - r["pred_mean"] for r in scored)]  # e ** 2 raises OverflowError
        lls = [r["pred_logdensity"] for r in scored]
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


def write_report(out, columns: list[str], rows: list[dict], summary: dict) -> None:
    out.write(",".join(columns) + "\n")
    for r in rows:
        out.write(",".join(fmt(r.get(c)) for c in columns) + "\n")
    out.write(json.dumps(finite_or_null(summary), allow_nan=False) + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _input_cells(rec) -> dict:
    """A report row holding the record's ``t`` and ``x1..xD`` cells, as read."""
    row = {}
    if rec.t is not None:
        row["t"] = rec.t
    if rec.x is not None:
        for i, v in enumerate(rec.x, start=1):
            row[f"x{i}"] = v
    return row


def cmd_run(cfg: dict, in_stream, out_stream) -> int:
    t0 = time.perf_counter()
    cols, records = ingest_csv(in_stream)
    validate_stream_for_model(cfg, cols)
    runner = build_runner(cfg, records)
    smooth = get_bool(cfg, "emit_smoothed", default=False)
    if smooth and not hasattr(runner, "smooth"):
        raise ConfigurationError("emit_smoothed: only markov models support smoothing")

    rows = []
    for rec in records:
        try:
            res = runner.step(rec)
            if not (math.isfinite(res.mean) and math.isfinite(res.var)):
                raise NumericalError(f"non-finite prediction: mean {res.mean!r}, variance {res.var!r}")
        except (DataError, NumericalError) as exc:
            exc.args = (f"row {rec.row}: {exc}",)  # same class and detail, now naming the row
            raise
        row = _input_cells(rec)
        row["y"] = rec.y
        row["pred_mean"] = res.mean
        row["pred_var"] = res.var
        row["pred_logdensity"] = res.logdensity
        if res.weights is not None:
            for k, w in enumerate(res.weights, start=1):
                row[f"weight_{k}"] = w
        rows.append(row)

    out_cols = [c for c in cols if c != "y"] + ["y", "pred_mean", "pred_var", "pred_logdensity"]
    if rows:  # an ensemble gives every row the same weight_1..weight_K cells
        out_cols += [c for c in rows[0] if c.startswith("weight_")]

    if smooth:
        smoothed = runner.smooth()
        for row, (sm, sv) in zip(rows, smoothed):
            row["smoothed_mean"] = sm
            row["smoothed_var"] = sv
        out_cols += ["smoothed_mean", "smoothed_var"]

    summary = summarize(rows)
    summary["model"] = get_str(cfg, "model", required=True)
    summary["flops"] = int(runner.flops)
    if runner.approximate_loglik:
        summary["loglik_approximate"] = True
    summary["wall_time_s"] = time.perf_counter() - t0
    write_report(out_stream, out_cols, rows, summary)
    return 0


# the config key each Kernel field of a grid cell is read from
GRID_KEYS = {"sigma_f2": "grid.sigma_f2", "lengthscale": "grid.lengthscale"}


@keyed()
def cmd_fit_exact(cfg: dict, in_stream, out_stream) -> int:
    t0 = time.perf_counter()
    cols, records = ingest_csv(in_stream)
    train = [r for r in records if r.y is not None]
    test = [r for r in records if r.y is None]
    if not train:
        raise DataError("fit-exact needs at least one row with a y value")
    noise_var = get_float(cfg, "noise_var", required=True)
    kernel = build_kernel(cfg)

    X = np.array([r.point for r in train])
    y = np.array([r.y for r in train])

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

    rows = []
    weights = None
    if test:
        Xs = np.array([r.point for r in test])
        post = exact.posterior(kernel, noise_var, X, y, Xs)
        weights = post.weights
        for i, rec in enumerate(test):
            row = _input_cells(rec)
            row["mean"] = float(post.mean[i])
            row["var"] = float(post.covariance[i, i])
            if get_bool(cfg, "emit_weights", default=False):
                for j, w in enumerate(weights[i], start=1):
                    row[f"w{j}"] = float(w)
            rows.append(row)

    out_cols = [c for c in cols if c != "y"] + ["mean", "var"]
    if get_bool(cfg, "emit_weights", default=False):
        out_cols += [f"w{j}" for j in range(1, len(train) + 1)]

    summary = {
        "rows": len(rows),
        "n_train": len(train),
        # the posterior's log_marginal is the same formula on the same factor
        "log_marginal": post.log_marginal if test else exact.log_marginal_likelihood(kernel, noise_var, X, y),
        "kernel": {"family": kernel.family, "sigma_f2": kernel.sigma_f2, "lengthscale": kernel.lengthscale},
    }
    if grid_table is not None:
        summary["grid_table"] = grid_table
    summary["wall_time_s"] = time.perf_counter() - t0
    write_report(out_stream, out_cols, rows, summary)
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
        resid = sde.drift @ sde.stationary + sde.stationary @ sde.drift.T \
            + sde.noise_loading @ sde.diffusion @ sde.noise_loading.T
        report("markov.lyapunov_residual", float(np.abs(resid).max()) < 1e-9,
               f"residual {np.abs(resid).max():.3e}")
        scale = max(kernel.lengthscale, max((c.lengthscale for c in kernel.hm_components), default=0.0))
        worst = closed = 0.0
        for delta in np.arange(0.0, 5.0 * scale + 1e-12, 0.5 * scale):
            A = expm(sde.drift * delta)
            duality = float((sde.obs @ A @ sde.stationary @ sde.obs.T)[0, 0])
            worst = max(worst, abs(duality - eval_kernel(kernel, 0.0, delta)))
            closed = max(closed, float(np.abs(markovian.transition(sde, delta) - A).max()))
        report("markov.kernel_sde_duality", worst < 1e-8, f"max |H e^(Fd) P H' - kappa| = {worst:.3e}")
        report("markov.transition_closed_form", closed < 1e-12, f"max |transition - expm| = {closed:.3e}")

    if kind == "rff":
        norms = [abs(float(features.featurize(fmap, x) @ features.featurize(fmap, x)) - 1.0)
                 for x in (-1.3, 0.0, 2.7)]
        report("features.rff_unit_norm", max(norms) < 1e-12, f"max |phi.phi - 1| = {max(norms):.3e}")
    if kind == "hsgp":
        edge = max(np.abs(features.featurize(fmap, -L)).max(), np.abs(features.featurize(fmap, L)).max())
        report("features.hsgp_boundary", edge < 1e-10, f"max |phi(+-L)| = {edge:.3e}")

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


def main(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    args.overrides = list(args.overrides) + list(extra)
    try:
        cfg = _load_config(args)
        out = sys.stdout if args.output == "-" else open(args.output, "w", encoding="utf-8")
        try:
            if args.command == "check":
                return cmd_check(cfg, out)
            ins = sys.stdin if args.input == "-" else open(args.input, encoding="utf-8")
            try:
                if args.command == "run":
                    return cmd_run(cfg, ins, out)
                return cmd_fit_exact(cfg, ins, out)
            finally:
                if ins is not sys.stdin:
                    ins.close()
        finally:
            if out is not sys.stdout:
                out.close()
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
