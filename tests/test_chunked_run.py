"""``seqgp run`` in chunks: every chunk size gives the same report, a runner
stepped over columns in other chunks gives the same cells, and a runner
steps only the records of the chunk it last prepared, each once and in order.
A chunk ends at a block start of the runner's partition (``markovian.block_bounds``)."""

import io
import json

import numpy as np
import pytest

from conftest import parse_report, run_cli, runner_for
from seqgp import cli, markovian, sparse
from seqgp.markovian import block_bounds
from seqgp.runners import StreamRecord, run_chunks

ENSEMBLE = ["model=ensemble", "member.1.model=markov", "member.1.kernel.family=matern12",
            "member.2.model=linear", "member.2.kernel.family=matern32", "member.2.features.kind=rff",
            "member.2.features.F=16", "member.2.features.seed=1", "member.2.dynamics.mode=random_walk",
            "member.2.dynamics.sigma_rw2=0.001", "member.3.model=sparse", "member.3.kernel.family=matern32",
            "member.3.sparse.M=6", "member.4.model=vsgp", "member.4.kernel.family=matern32",
            "member.4.sparse.M=4"] + [f"member.{k}.noise_var=0.1" for k in range(1, 5)]

# name -> (input columns, config overrides); "LOCATIONS" is replaced by a locations file
MODELS = {
    "exact": ("t", ["model=exact", "kernel.family=matern32", "noise_var=0.1"]),
    "linear_rff": ("t", ["model=linear", "kernel.family=se", "features.kind=rff", "features.F=16",
                         "features.seed=3", "noise_var=0.1", "dynamics.mode=b2p", "dynamics.lambda=0.95"]),
    "linear_hsgp": ("t", ["model=linear", "kernel.family=matern32", "features.kind=hsgp", "features.F=12",
                          "noise_var=0.1", "dynamics.mode=general", "dynamics.a=0.99", "dynamics.u=0.01",
                          "dynamics.c=0.001"]),
    "markov": ("t", ["model=markov", "kernel.family=matern32", "noise_var=0.1", "emit_smoothed=true"]),
    "markov_spacetime": ("tx", ["model=markov", "kernel.family=matern32", "noise_var=0.1", "emit_smoothed=true",
                                "spatial.locations=LOCATIONS", "spatial.kernel.family=se"]),
    "sparse": ("t", ["model=sparse", "kernel.family=matern32", "sparse.M=7", "noise_var=0.1"]),
    "sparse_2d": ("x", ["model=sparse", "kernel.family=se", "sparse.M=5", "sparse.seed=2", "noise_var=0.1"]),
    "vsgp": ("t", ["model=vsgp", "kernel.family=matern32", "sparse.M=5", "noise_var=0.1"]),
    "ensemble": ("t", ENSEMBLE),
}

LOCATIONS = np.array([[0.0, 0.0], [0.5, 0.0], [0.0, 0.5]])


def stream(columns: str, n: int = 41, seed: int = 3) -> str:
    """A CSV of n rows: repeated timestamps (zero steps inside and across chunks),
    every seventh row predict-only."""
    rng = np.random.default_rng(seed)
    t = np.repeat(np.cumsum(rng.uniform(0.05, 0.4, n)), 2)[:n]
    x = LOCATIONS[rng.integers(0, len(LOCATIONS), n)] if columns == "tx" else rng.uniform(-1.0, 1.0, (n, 2))
    y = np.sin(3.0 * t) + 0.3 * rng.standard_normal(n)
    header = {"t": ["t"], "x": ["x1", "x2"], "tx": ["t", "x1", "x2"]}[columns] + ["y"]
    lines = [",".join(header)]
    for i in range(n):
        cells = [repr(float(t[i]))] if "t" in columns else []
        cells += [repr(float(v)) for v in x[i]] if "x" in columns else []
        lines.append(",".join(cells + ["" if i % 7 == 3 else repr(float(y[i]))]))
    return "\n".join(lines) + "\n"


def model_args(name, tmp_path):
    columns, args = MODELS[name]
    if "spatial.locations=LOCATIONS" in args:
        path = tmp_path / "locations.csv"
        path.write_text("x1,x2\n" + "".join(f"{a!r},{b!r}\n" for a, b in LOCATIONS.tolist()))
        args = [f"spatial.locations={path}" if a == "spatial.locations=LOCATIONS" else a for a in args]
    return columns, args


def without_wall_time(report: str):
    lines = report.splitlines()
    summary = json.loads(lines[-1])
    summary.pop("wall_time_s")
    return lines[:-1], summary


@pytest.mark.parametrize("name", sorted(MODELS))
def test_every_chunk_size_gives_the_same_report(name, tmp_path, monkeypatch):
    columns, args = model_args(name, tmp_path)
    csv = stream(columns)
    reports = []
    for rows in (1, 3, cli.CHUNK_ROWS):
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        code, out, err = run_cli(["run", *args], stdin_text=csv)
        assert code == 0, err
        reports.append(without_wall_time(out))
    assert reports[0] == reports[1] == reports[2]
    assert len(reports[0][0]) == 42


def test_each_member_projects_each_chunk_once(monkeypatch):
    sizes = []
    projections = sparse.projections
    monkeypatch.setattr(sparse, "projections", lambda state, X: sizes.append(len(X)) or projections(state, X))
    monkeypatch.setattr(cli, "CHUNK_ROWS", 16)
    code, _, err = run_cli(["run", *ENSEMBLE], stdin_text=stream("t", n=150))
    assert code == 0, err
    # chunk by chunk, the sparse member and then the vsgp member; a chunk of 16 rows ends at the
    # next block start of the members' partition, whose blocks have at least 64 rows
    assert sizes == [64, 64, 64, 64, 22, 22]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_runner_stepped_over_columns_gives_the_reported_cells(name, tmp_path, monkeypatch):
    columns, args = model_args(name, tmp_path)
    csv = stream(columns)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 16)
    code, out, err = run_cli(["run", *args], stdin_text=csv)
    assert code == 0, err
    _, rows, _ = parse_report(out)

    _, data = cli.ingest_csv(io.StringIO(csv))
    runner = runner_for(args, data)
    for (_, res), row in zip(run_chunks(runner, data, 5), rows, strict=True):
        assert (res.mean, res.var, res.logdensity) == (row["pred_mean"], row["pred_var"], row["pred_logdensity"])
        if res.weights is not None:
            assert res.weights.tolist() == [row[f"weight_{k}"] for k in range(1, res.weights.size + 1)]


@pytest.mark.parametrize("chunk_rows", [0, -3])
def test_a_chunk_of_no_rows_is_a_value_error(chunk_rows):
    # a chunk ends at the first block start at or after chunk_rows rows: below 1 it would never advance
    _, data = cli.ingest_csv(io.StringIO(stream("t")))
    runner = runner_for(MODELS["markov"][1], data)
    with pytest.raises(ValueError, match=f"chunk_rows must be at least 1, got {chunk_rows}"):
        next(run_chunks(runner, data, chunk_rows))


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_record_of_another_chunk_is_a_value_error(name, tmp_path):
    columns, args = model_args(name, tmp_path)
    _, data = cli.ingest_csv(io.StringIO(stream(columns)))
    runner = runner_for(args, data)
    first, second = data.rows(0, 8), data.rows(8, 16)
    runner.prepare(first)
    runner.step(next(first.records()))
    # a row of the next chunk, and the next row of an equal copy of the prepared chunk
    for rec in [next(second.records()), StreamRecord(2, data.rows(0, 8))]:
        with pytest.raises(ValueError, match=f"^row {rec.row} is not a record of the chunk last prepared$"):
            runner.step(rec)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_a_row_stepped_ahead_of_its_turn_or_twice_is_a_value_error(name, tmp_path):
    columns, args = model_args(name, tmp_path)
    _, data = cli.ingest_csv(io.StringIO(stream(columns)))
    chunk = data.rows(0, 8)
    first, second, third = list(chunk.records())[:3]
    undisturbed = runner_for(args, data)
    undisturbed.prepare(chunk)
    expected = [undisturbed.step(rec) for rec in (first, second, third)]

    runner = runner_for(args, data)
    runner.prepare(chunk)
    with pytest.raises(ValueError, match="^row 2 is stepped out of order: the next row is row 1$"):
        runner.step(second)
    got = [runner.step(first)]
    with pytest.raises(ValueError, match="^row 1 is stepped out of order: the next row is row 2$"):
        runner.step(first)
    with pytest.raises(ValueError, match="^row 3 is stepped out of order: the next row is row 2$"):
        runner.step(third)
    got += [runner.step(second), runner.step(third)]
    with pytest.raises(ValueError, match="^row 3 is stepped out of order: the next row is row 4$"):
        runner.step(third)
    # a rejected row runs nothing: the rows stepped in turn give the cells of an undisturbed run
    assert [(r.mean, r.var, r.logdensity) for r in got] == [(r.mean, r.var, r.logdensity) for r in expected]


@pytest.mark.parametrize("csv, stderr", [
    ("t,y\n0,1\n1,2,3\n", "row 2: expected 2 cells, got 3"),
    ("t,y\n0,1\n1\n", "row 2: expected 2 cells, got 1"),
    ("t,y\n0,1\n1,abc\n", "row 2, column y: malformed number 'abc'"),
    ("t,y\n0,nan\n", "row 1, column y: non-finite value 'nan'"),
    ("t,y\ninf,1\n", "row 1, column t: non-finite value 'inf'"),
    ("x1,y\n-inf,1\n", "row 1, column x1: non-finite value '-inf'"),
    ("t,y\n0,1\n,1\n", "row 2: missing t value"),
    ("x1,x2,y\n0.5,1,1\n0.5,,1\n", "row 2: missing input coordinate"),
    ("t,y\n\n0,1\n  \n1,oops\n", "row 2, column y: malformed number 'oops'"),
    ("t,y\n,abc\n", "row 1, column y: malformed number 'abc'"),
    ("t,y\n0x10,1\n", "row 1, column t: malformed number '0x10'"),
    ("t,y\n−1,1\n", "row 1, column t: malformed number '−1'"),
], ids=["extra_cell", "missing_cell", "malformed", "nan", "inf", "neg_inf_x", "missing_t", "missing_x",
        "blank_lines", "cell_order", "hex", "unicode_minus"])
def test_bad_cell_exits_3_with_the_row_parsers_message(csv, stderr):
    args = ["model=exact", "kernel.family=matern32", "noise_var=0.1"]
    code, out, err = run_cli(["run", *args], stdin_text=csv)
    assert (code, out, err) == (3, "", f"seqgp: data error: {stderr}\n")


@pytest.mark.parametrize("csv, cells", [
    ("t,y\n 0 , 1 \n\t1,\t2\r\n\n2 ,\n", [("0.0", "1.0"), ("1.0", "2.0"), ("2.0", "")]),
    ("t,y\n1_0,2_5\n+.5,-1e-3\n", [("10.0", "25.0"), ("0.5", "-0.001")]),
    ("t,y\n١٢,1\n", [("12.0", "1.0")]),
], ids=["whitespace_and_blank_lines", "underscores_and_signs", "unicode_digits"])
def test_cells_read_as_float_reads_them(csv, cells):
    code, out, err = run_cli(["run", "model=exact", "kernel.family=matern32", "noise_var=0.1"], stdin_text=csv)
    assert code == 0, err
    assert [tuple(line.split(",")[:2]) for line in out.splitlines()[1:-1]] == cells


def test_bad_cell_after_the_first_chunk_names_its_row(monkeypatch):
    lines = ["t,y"]
    for i in range(1, 41):
        lines.append(f"{i},{0.1 * i!r}" if i != 37 else f"{i},0.5.1")
        if i % 9 == 0:
            lines.append("")  # blank lines are not rows
    monkeypatch.setattr(cli, "CHUNK_ROWS", 8)
    code, out, err = run_cli(["run", "model=exact", "kernel.family=matern32", "noise_var=0.1"],
                             stdin_text="\n".join(lines) + "\n")
    assert (code, out) == (3, "")
    assert err == "seqgp: data error: row 37, column y: malformed number '0.5.1'\n"


def test_step_error_after_the_first_chunk_names_its_row(monkeypatch):
    csv = "t,y\n" + "".join(f"{36 - i if i == 35 else i},0.1\n" for i in range(40))
    monkeypatch.setattr(cli, "CHUNK_ROWS", 8)
    code, out, err = run_cli(["run", "model=markov", "kernel.family=matern32", "noise_var=0.1"], stdin_text=csv)
    assert (code, out) == (3, "")
    assert err == "seqgp: data error: row 36: timestamps decrease (34.0 -> 1.0)\n"


# Streams that span several blocks of 64 to 127 rows (exact, linear, sparse, vsgp):
# name -> (input columns, overrides)
MULTI_BLOCK = {
    "exact_tied": ("t", ["model=exact", "kernel.family=matern32", "noise_var=0.1"]),
    "exact_2d": ("x", ["model=exact", "kernel.family=se", "kernel.lengthscale=0.7", "noise_var=0.1"]),
    "ensemble_exact_markov_tied": ("t", ["model=ensemble", "member.1.model=exact", "member.1.kernel.family=matern32",
                                         "member.2.model=markov", "member.2.kernel.family=matern12",
                                         "member.1.noise_var=0.1", "member.2.noise_var=0.1"]),
    "linear_hsgp_tied": ("t", MODELS["linear_hsgp"][1]),
    "linear_rff_tied": ("t", ["model=linear", "kernel.family=se", "features.kind=rff", "features.F=16",
                              "features.seed=3", "noise_var=0.1", "dynamics.mode=random_walk",
                              "dynamics.sigma_rw2=0.001"]),
    "sparse_tied": ("t", ["model=sparse", "kernel.family=matern32", "sparse.inducing=0,4,8,12,16,20",
                          "noise_var=0.1"]),
    "vsgp_2d": ("x", ["model=vsgp", "kernel.family=se", "sparse.M=5", "sparse.seed=2", "noise_var=0.1"]),
    "ensemble_mixed_tied": ("t", [a.replace("sparse.M=6", "sparse.inducing=0,4,8,12,16,20").replace(
        "sparse.M=4", "sparse.inducing=0,7,14,21") for a in ENSEMBLE]),
}


def tied_times(n: int, seed: int) -> np.ndarray:
    """Timestamps in runs of 1 to 5 equal values, with one run of 70 (longer than a
    time-step block) from row 128 on."""
    rng = np.random.default_rng(seed)
    runs = rng.integers(1, 6, n)
    runs[np.searchsorted(np.cumsum(runs), 128)] = 70
    return np.repeat(np.cumsum(rng.uniform(0.05, 0.4, n)), runs)[:n]


def multi_block_stream(columns: str, n: int = 300, seed: int = 4) -> str:
    """A CSV of n rows, every seventh row predict-only: tied timestamps, or 2-D inputs."""
    rng = np.random.default_rng(seed)
    inputs = tied_times(n, seed)[:, None] if columns == "t" else rng.uniform(-2.0, 2.0, (n, 2))
    y = np.sin(3.0 * inputs.sum(axis=1)) + 0.3 * rng.standard_normal(n)
    header = ["t"] if columns == "t" else ["x1", "x2"]
    lines = [",".join(header + ["y"])]
    for i in range(n):
        lines.append(",".join([repr(float(v)) for v in inputs[i]] + ["" if i % 7 == 3 else repr(float(y[i]))]))
    return "\n".join(lines) + "\n"


def test_the_multi_block_streams_cross_block_edges():
    t = tied_times(300, 4)
    bounds = block_bounds(t, t.size, markovian.UPDATE_BLOCK_ROWS).tolist()
    assert len(bounds) - 1 >= 3
    assert any(t[b] == t[b - 1] for b in bounds[1:-1])  # a tied run goes on across an exact block's edge
    _, data = cli.ingest_csv(io.StringIO(multi_block_stream("x")))
    assert len(block_bounds(data.t, len(data), markovian.UPDATE_BLOCK_ROWS)) - 1 >= 3


@pytest.mark.parametrize("name", sorted(MULTI_BLOCK))
def test_every_chunk_size_gives_the_same_report_over_several_blocks(name, monkeypatch):
    columns, args = MULTI_BLOCK[name]
    csv = multi_block_stream(columns)
    reports = []
    for rows in (1, 3, 16, 256):
        monkeypatch.setattr(cli, "CHUNK_ROWS", rows)
        code, out, err = run_cli(["run", *args], stdin_text=csv)
        assert code == 0, err
        reports.append(without_wall_time(out))
    assert all(report == reports[0] for report in reports)
    assert len(reports[0][0]) == 301


@pytest.mark.parametrize("name", sorted(MULTI_BLOCK))
def test_runner_stepped_over_columns_gives_the_reported_cells_over_several_blocks(name, monkeypatch):
    columns, args = MULTI_BLOCK[name]
    csv = multi_block_stream(columns)
    monkeypatch.setattr(cli, "CHUNK_ROWS", 16)
    code, out, err = run_cli(["run", *args], stdin_text=csv)
    assert code == 0, err
    _, rows, _ = parse_report(out)
    _, data = cli.ingest_csv(io.StringIO(csv))
    runner = runner_for(args, data)
    assert runner.block_rows == markovian.UPDATE_BLOCK_ROWS  # an ensemble takes its members' largest
    for (_, res), row in zip(run_chunks(runner, data, 5), rows, strict=True):
        assert (res.mean, res.var, res.logdensity) == (row["pred_mean"], row["pred_var"], row["pred_logdensity"])


class TestBlockBounds:
    """``block_bounds``: the stream's blocks merged until each has at least ``min_rows`` rows."""

    def test_exact_blocks_have_64_to_127_rows_and_start_at_stream_blocks(self):
        t = tied_times(2000, 9)
        bounds = block_bounds(t, t.size, 64).tolist()
        sizes = np.diff(bounds)
        assert bounds[0] == 0 and bounds[-1] == t.size
        assert (sizes[:-1] >= 64).all() and (sizes <= 127).all()
        assert sizes.max() > 64  # a merge went past 64 rows
        stream, run = [], 0  # the stream's blocks, row by row: runs of equal t, split every 64 rows
        for i in range(t.size):
            run = run + 1 if i and t[i] == t[i - 1] else 0
            if run % markovian.UPDATE_BLOCK_ROWS == 0:
                stream.append(i)
        assert set(bounds[:-1]) <= set(stream)
        for a, b in zip(bounds, bounds[1:-1]):  # each block ends at the first stream block start 64 rows on
            assert not [s for s in stream if a + 64 <= s < b]
        assert block_bounds(t, t.size, 1).tolist() == stream + [t.size]

    def test_a_slice_from_a_block_start_has_the_streams_blocks(self):
        t = tied_times(1000, 10)
        bounds = block_bounds(t, t.size, 64).tolist()
        for start in bounds[1:-1]:
            assert block_bounds(t[start:], t.size - start, 64).tolist() == [b - start for b in bounds if b >= start]

    def test_without_timestamps_a_block_is_64_rows(self):
        assert block_bounds(None, 200, 64).tolist() == [0, 64, 128, 192, 200]
        assert block_bounds(None, 3, 1).tolist() == [0, 1, 2, 3]
        assert block_bounds(None, 0, 64).tolist() == block_bounds(np.zeros(0), 0, 64).tolist() == [0]
