"""End-to-end command-line behaviour: parsing, rendering, round trips."""

import functools
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import lgsim
from lgsim import cli, sweeps
from lgsim.cli import main, read_table, records_from_rows
from lgsim.sweeps import SWEEP_COLUMNS, CurveArrays, SweepBlock, SweepTable, sweep_records


def f17(v):
    return format(float(v), ".17g")


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def expect_error(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("lgsim: error: ")
    assert err.count("\n") == 1
    return err.strip()


# ---------------------------------------------------------------------------
# classic


def test_classic_csv(capsys):
    code, out, err = run(capsys, "classic")
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "# lgsim classic"
    assert "# config omega=1" in lines
    assert "# config format=csv" in lines
    assert "# no probe battery exists at this timing, so only the lenient reading applies" in lines
    assert f"# ideal value is 1-sqrt(2) = {f17(1.0 - math.sqrt(2.0))}" in lines
    header = [ln for ln in lines if not ln.startswith("#")][0]
    assert header == "c12,c23,c13_prime,lg_quantity,verdict"
    row = lines[-1].split(",")
    assert float(row[0]) == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-12)
    assert float(row[1]) == pytest.approx(-math.sqrt(2.0) / 2.0, abs=1e-12)
    assert float(row[3]) == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-12)
    assert row[4] == "violates_lenient"


@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (("classic",), "b6c68fd2a02681323fd85bc6d1bb57241e8089379adc11cb731082142b0b6238"),
        (
            ("classic", "--format", "jsonl"),
            "dadc1159046ef44a652400b091020825715c15e0de9b489e4ebb4efff5967ef3",
        ),
    ],
)
def test_classic_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the stdout tables written before correlator_exact and
    # joint_distribution shared one event walk (CSV), and before every table
    # went through one block renderer (JSONL)
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_classic_omega_rescales_nothing(capsys):
    _, base, _ = run(capsys, "classic")
    _, scaled, _ = run(capsys, "classic", "--omega", "2.5")
    assert base.splitlines()[-1] == scaled.splitlines()[-1]


# ---------------------------------------------------------------------------
# fig2 / fig3 summaries


def test_fig2_reports_the_onset(capsys):
    code, out, _ = run(capsys, "fig2", "--theta", "0:3.141592653589793:41", "--n", "1")
    assert code == 0
    assert "# onset[n=1] theta/pi=0.682973047 width/pi=0.317026563 (criterion=lenient)" in out


def test_fig2_forces_gamma_to_zero(capsys):
    code, out, _ = run(
        capsys, "fig2", "--theta", "0:1:3", "--n", "1", "--gamma", "0:0.01:2"
    )
    assert code == 0
    assert "# config note=gamma=0:0.01:2 ignored: fig2 fixes gamma=0" in out
    for line in out.splitlines():
        if line.startswith("#") or "," not in line or line.startswith("theta"):
            continue
        assert line.split(",")[1] == "0"


def test_fig3_pins_both_cutoffs(capsys):
    code, out, _ = run(
        capsys, "fig3", "--theta", "2:3:3", "--gamma", "0:0.01:2", "--n", "1"
    )
    assert code == 0
    assert "# gamma_cutoff[lenient]=0.0111937102" in out
    assert "# gamma_cutoff[strict]=0.00934983008" in out


def test_fig3_wants_exactly_one_n(capsys):
    err = expect_error(capsys, "fig3", "--n", "1,2")
    assert "fig3 evaluates exactly one n" in err


# ---------------------------------------------------------------------------
# configuration resolution


def test_config_file_beats_defaults_and_flags_beat_the_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_text("# comment\nomega = 2\nformat=csv\n")
    _, out, _ = run(capsys, "classic", "--config", str(cfgfile))
    assert "# config omega=2" in out.splitlines()
    _, out, _ = run(capsys, "classic", "--config", str(cfgfile), "--omega", "3")
    assert "# config omega=3" in out.splitlines()


def test_config_file_errors_carry_line_numbers(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("omega=1\nwibble=2\n")
    err = expect_error(capsys, "classic", "--config", str(bad))
    assert "config line 2: unknown key 'wibble'" in err

    bad.write_text("omega=1\n\nomega=2\n")
    err = expect_error(capsys, "classic", "--config", str(bad))
    assert "config line 3: duplicate key 'omega'" in err

    bad.write_text("just some text\n")
    err = expect_error(capsys, "classic", "--config", str(bad))
    assert "config line 1: expected key=value" in err


def test_missing_config_file(tmp_path, capsys):
    err = expect_error(capsys, "classic", "--config", str(tmp_path / "nope.cfg"))
    assert "cannot read" in err


@pytest.mark.parametrize(
    ("flag", "value", "fragment"),
    [
        ("--theta", "2:1:5", "range start must not exceed stop"),
        ("--theta", "1:2:1", "single-step range needs start == stop"),
        ("--theta", "0:1", "expected start:stop:steps"),
        ("--theta", "a:1:5", "not a number"),
        ("--gamma=-0.1:0.1:3", None, "gamma must be nonnegative"),
        ("--omega", "0", "omega must be positive"),
        ("--m", "0", "must be >= 1"),
        ("--criterion", "both", "must be one of lenient, strict"),
        ("--seed", "18446744073709551616", "seed must be below 2**64"),
        ("--workers", "0", "must be >= 1"),
        ("--format", "xml", "must be one of csv, jsonl"),
        ("--n", " ", "need at least one n"),
    ],
)
def test_flag_validation(capsys, flag, value, fragment):
    argv = ("sweep", flag) if value is None else ("sweep", flag, value)
    err = expect_error(capsys, *argv)
    assert fragment in err
    assert f"{flag.split('=')[0]}:" in err  # errors name the flag that caused them


def test_values_that_start_with_a_dash_reach_their_flag(capsys):
    # argparse reads "-1:1:3" as an option unless it is joined to its flag;
    # a plain negative number such as --omega -1 always reached it
    code, out, err = run(capsys, "sweep", "--theta", "-1:1:3")
    assert (code, err) == (0, "")
    assert out == run(capsys, "sweep", "--theta=-1:1:3")[1]
    rows = [ln.split(",") for ln in out.splitlines() if not ln.startswith("#")][1:]
    assert [r[0] for r in rows] == ["-1", "0", "1"]
    err = expect_error(capsys, "sweep", "--gamma", "-0.5:0:2")
    assert err == "lgsim: error: --gamma: gamma must be nonnegative, got -0.5"
    err = expect_error(capsys, "sweep", "--omega", "-1")
    assert err == "lgsim: error: --omega: omega must be positive, got -1"
    with pytest.raises(SystemExit):  # a "--" token is never taken for a value
        main(["sweep", "--theta", "--n", "1"])
    assert "--theta: expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["sweep", "fig3", "adroitness"])
@pytest.mark.parametrize("key", ["theta", "gamma"])
def test_overflowing_ranges_are_refused(tmp_path, capsys, command, key):
    # stop - start overflows, so np.linspace would warn and return nan points
    value = "-1e308:1e308:3"
    cfgfile = tmp_path / "wide.cfg"
    cfgfile.write_text(f"{key}={value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        err = expect_error(capsys, command, f"--{key}={value}")
        assert f"--{key}: range is too wide (stop - start overflows)" in err
        err = expect_error(capsys, command, "--config", str(cfgfile))
        assert f"config line 1 ({key}): range is too wide" in err


@pytest.mark.parametrize(
    ("argv", "limit", "message"),
    [
        (
            ("sweep", "--theta", "0:1:7", "--gamma", "0:0.01:3"),
            ("MAX_ROWS", 20),
            "--theta, --gamma: 21 rows (theta x gamma x len(n)) exceed the limit of 20",
        ),
        (  # fig2 forces gamma to 0:0:1 and defaults to four n
            ("fig2", "--theta", "0:1:6", "--gamma", "0:1:9"),
            ("MAX_ROWS", 23),
            "--theta: 24 rows (theta x gamma x len(n)) exceed the limit of 23",
        ),
        (  # 201 default thetas x 3 n
            ("sweep", "--n", "1,2,3"),
            ("MAX_ROWS", 602),
            "--n: 603 rows (theta x gamma x len(n)) exceed the limit of 602",
        ),
        (
            ("fig3", "--theta", "0:1:4", "--gamma", "0:0.01:2"),
            ("MAX_ROWS", 7),
            "--theta, --gamma: 8 rows (theta x gamma x len(n)) exceed the limit of 7",
        ),
        (
            ("adroitness", "--theta", "0:1:2", "--gamma", "0:0.01:3"),
            ("MAX_ROWS", 29),
            "--theta, --gamma: 30 rows (theta x gamma x 5) exceed the limit of 29",
        ),
        (
            ("adroitness", "--theta", "0:1:2", "--shots", "5"),
            ("MAX_SAMPLED_SHOTS", 239),
            "--shots, --theta: 240 sampled shots (shots x theta x gamma x 8) "
            "exceed the limit of 239",
        ),
    ],
)
def test_work_beyond_the_limits_is_refused_before_any_grid_is_built(
    monkeypatch, capsys, tmp_path, argv, limit, message
):
    built = []
    linspace = cli._linspace
    monkeypatch.setattr(cli, "_linspace", lambda grid: built.append(grid) or linspace(grid))
    name, value = limit
    monkeypatch.setattr(cli, name, value)
    assert expect_error(capsys, *argv) == f"lgsim: error: {message}"
    assert built == []
    # a config line is named as the flag is
    flag, text = argv[1:3]
    cfgfile = tmp_path / "grid.cfg"
    cfgfile.write_text(f"{flag[2:]}={text}\n")
    err = expect_error(capsys, argv[0], "--config", str(cfgfile), *argv[3:])
    assert err == f"lgsim: error: {message.replace(flag, f'config line 1 ({flag[2:]})', 1)}"
    assert built == []
    # at the limit the command runs
    monkeypatch.setattr(cli, name, value + 1)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(built) == 2


def test_classic_builds_neither_grid(monkeypatch, capsys):
    # classic writes one row whatever its (checked, unused) grids say
    monkeypatch.setattr(cli, "_linspace", None)
    monkeypatch.setattr(cli, "MAX_ROWS", 0)
    monkeypatch.setattr(cli, "MAX_SAMPLED_SHOTS", 0)
    code, _, err = run(capsys, "classic", "--theta", "0:1:50", "--shots", "9")
    assert (code, err) == (0, "")
    err = expect_error(capsys, "classic", "--gamma=-1:0:3")
    assert err == "lgsim: error: --gamma: gamma must be nonnegative, got -1.0"


@pytest.mark.parametrize("command", ["sweep", "adroitness"])
def test_overflowing_m_is_refused(capsys, command):
    # tau = pi * m / omega converts m to a float, which has no room for 10**400
    err = expect_error(capsys, command, "--m", "1" + "0" * 400)
    assert "--m: m is too large (tau = pi*m/omega overflows)" in err


# values whose last event time overflows: tau = pi*m/omega itself for
# omega=1e-310, and (2*max(n)+4)*tau or 3*tau for the others (pi*BIG_M fits)
BIG_M = "5" + "0" * 307
FAR_TIMES = [("omega", "1e-310"), ("omega", "2e-308"), ("m", BIG_M), ("n", "1" + "0" * 400)]


@pytest.mark.parametrize(
    ("command", "key", "value"),
    [
        (command, key, value)
        for command in ("sweep", "fig2", "fig3", "adroitness")
        for key, value in FAR_TIMES
        if (command, key) != ("adroitness", "n")  # adroitness takes no n
    ],
)
def test_overflowing_event_times_are_refused(tmp_path, capsys, command, key, value):
    expr = "3*tau" if command == "adroitness" else "(2*max(n)+4)*tau"
    cfgfile = tmp_path / "far.cfg"
    cfgfile.write_text(f"{key}={value}\n")
    err = expect_error(capsys, command, f"--{key}={value}")
    assert err == f"lgsim: error: --{key}: the last event time {expr} overflows (tau = pi*m/omega)"
    err = expect_error(capsys, command, "--config", str(cfgfile))
    assert f"config line 1 ({key}): the last event time {expr} overflows" in err


@pytest.mark.parametrize(("value", "tau"), [("1e-310", "inf"), ("1e308", "0.0")])
def test_classic_refuses_an_omega_whose_times_leave_the_floats(tmp_path, capsys, value, tau):
    # tau = 3*pi/(4*omega) overflows for a tiny omega; for a huge one 4*omega
    # overflows and tau becomes 0, so the three events would coincide
    rule = "the event times tau and 2*tau must be positive and finite (tau = 3*pi/(4*omega))"
    err = expect_error(capsys, "classic", f"--omega={value}")
    assert err == f"lgsim: error: --omega: {rule}, got tau = {tau}"
    cfgfile = tmp_path / "classic.cfg"
    cfgfile.write_text(f"omega={value}\n")
    err = expect_error(capsys, "classic", "--config", str(cfgfile))
    assert err == f"lgsim: error: config line 1 (omega): {rule}, got tau = {tau}"


@pytest.mark.parametrize("command", ["sweep", "fig2", "fig3", "adroitness"])
def test_an_omega_whose_rotation_rate_overflows_is_refused(tmp_path, capsys, command):
    # HamiltonianSpec's rotation rate 2*omega is inf, so the propagator's
    # rotation angle is not finite; the gamma > 0 grid takes the Lindblad path
    rule = "omega is too large (the rotation rate 2*omega overflows), got 1e+308"
    cfgfile = tmp_path / "fast.cfg"
    cfgfile.write_text("omega=1e308\n")
    for grid in (("--theta", "1:1:1"), ("--theta", "1:1:1", "--gamma", "0.1:0.1:1")):
        err = expect_error(capsys, command, "--omega", "1e308", *grid)
        assert err == f"lgsim: error: --omega: {rule}"
        err = expect_error(capsys, command, "--config", str(cfgfile), *grid)
        assert err == f"lgsim: error: config line 1 (omega): {rule}"


def test_unwritable_out_is_a_one_line_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    err = expect_error(capsys, "sweep", "--theta", "0:1:2", "--out", str(target))
    assert f"--out: cannot write {target}" in err
    err = expect_error(capsys, "classic", "--out", str(tmp_path))
    assert f"--out: cannot write {tmp_path}" in err


@pytest.mark.parametrize(
    ("column", "value", "fragment"),
    [
        ("lg", math.nan, "lg must be finite"),
        ("eps_total", -1e-3, "eps_total must be nonnegative and finite"),
        ("c12", 5.0, "inconsistent with correlators"),
    ],
)
def test_corrupt_curves_are_refused(monkeypatch, capsys, column, value, fragment):
    real = sweeps._curve  # sweep_records' per-block call

    def corrupt(*args):
        cur = real(*args)
        bad = getattr(cur, column).copy()
        bad[1] = value
        return cur._replace(**{column: bad})

    monkeypatch.setattr(sweeps, "_curve", corrupt)
    with pytest.raises(ValueError, match=fragment):
        sweep_records([0.5, 1.5, 2.5], [0.0], [1], tau=math.pi)
    err = expect_error(capsys, "sweep", "--theta", "0.5:2.5:3")
    assert fragment in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out, _ = capsys.readouterr()
    assert out.startswith("lgsim ")


# ---------------------------------------------------------------------------
# table round trips


SWEEP_ARGS = (
    "sweep",
    "--theta",
    "0.1:3.0:7",
    "--gamma",
    "0:0.01:2",
    "--n",
    "0,1",
)


def test_csv_round_trip_is_exact(tmp_path, capsys):
    table = tmp_path / "grid.csv"
    code, out, _ = run(capsys, *SWEEP_ARGS, "--out", str(table))
    assert code == 0
    assert out == ""  # --out means nothing on stdout
    meta, rows = read_table(table)
    assert meta["command"] == "sweep"
    assert meta["config"]["theta"] == "0.1:3.0:7"
    got = records_from_rows(rows)
    thetas = [0.1 + k * (2.9 / 6.0) for k in range(7)]
    want = sweep_records(thetas, [0.0, 0.01], [0, 1], tau=math.pi, omega=1.0).records()
    assert got == want  # %.17g round trips every float bit for bit


def test_jsonl_round_trip(tmp_path, capsys):
    table = tmp_path / "grid.jsonl"
    code, _, _ = run(capsys, *SWEEP_ARGS, "--format", "jsonl", "--out", str(table))
    assert code == 0
    first = table.read_text().splitlines()[0]
    meta_obj = json.loads(first)
    assert meta_obj["meta"]["command"] == "sweep"
    meta, rows = read_table(table)
    assert meta["config"]["gamma"] == "0:0.01:2"
    got = records_from_rows(rows)
    thetas = [0.1 + k * (2.9 / 6.0) for k in range(7)]
    assert got == sweep_records(thetas, [0.0, 0.01], [0, 1], tau=math.pi, omega=1.0).records()


def test_nan_correlator_in_a_table_is_refused(tmp_path, capsys):
    table = tmp_path / "grid.csv"
    code, _, _ = run(capsys, *SWEEP_ARGS, "--out", str(table))
    assert code == 0
    lines = table.read_text().splitlines(keepends=True)
    header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    col = lines[header].rstrip("\n").split(",").index("c12")
    cells = lines[header + 1].split(",")
    cells[col] = "nan"
    lines[header + 1] = ",".join(cells)
    table.write_text("".join(lines))
    _, rows = read_table(table)
    with pytest.raises(ValueError, match="inconsistent with correlators"):
        records_from_rows(rows)


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]
any_float = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
nonnegative = st.one_of(
    st.sampled_from([v for v in EDGE_FLOATS if v >= 0.0]), st.floats(0.0, 1.7e308)
)


@st.composite
def sweep_tables(draw):
    """Consistent tables: lg is 1 + c12 + c23 + c13_prime and finite, verdicts computed."""
    thetas = np.array(draw(st.lists(any_float, min_size=1, max_size=4)))
    blocks = []
    for _ in range(draw(st.integers(1, 3))):
        column = st.lists(any_float, min_size=len(thetas), max_size=len(thetas))
        c12, c23, c13p = (np.array(draw(column)) for _ in range(3))
        with np.errstate(over="ignore", invalid="ignore"):
            lg = 1.0 + c12 + c23 + c13p
        assume(np.isfinite(lg).all())
        eps = draw(st.lists(nonnegative, min_size=len(thetas), max_size=len(thetas)))
        cur = CurveArrays(c12, c23, c13p, lg, np.array(eps))
        n = draw(st.integers(0, 10**30))
        blocks.append(SweepBlock(n, draw(nonnegative), cur, sweeps._verdicts(cur)))
    return SweepTable(thetas, tuple(blocks))


@functools.cache
def sweep_config(fmt):
    return cli.resolve_config("sweep", cli.build_parser().parse_args(["sweep", "--format", fmt]))


@settings(max_examples=60, deadline=None)
@given(table=sweep_tables())
def test_random_tables_round_trip_bit_for_bit(table):
    want = table.records()
    with tempfile.TemporaryDirectory() as tmp:
        for fmt in ("csv", "jsonl"):
            path = Path(tmp) / f"table.{fmt}"
            blocks = cli._sweep_blocks(table, fmt)
            lines = cli._table_lines(sweep_config(fmt), SWEEP_COLUMNS, blocks, [])
            path.write_text("\n".join(lines) + "\n")
            got = records_from_rows(read_table(path)[1])
            assert got == want
            # == takes -0.0 for 0.0; repr tells them apart
            assert [list(map(repr, r)) for r in got] == [list(map(repr, r)) for r in want]


def oracle_cell(v):
    """A CSV cell as the dict-row renderer wrote it; an int is its digits, as n always was."""
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return str(v) if isinstance(v, int) else f17(v)


def oracle_lines(fmt, columns, rows):
    """The dict-row renderer: one dict per row, joined cells or ``json.dumps``."""
    if fmt == "csv":
        return [",".join(map(oracle_cell, row)) for row in rows]
    return [json.dumps(dict(zip(columns, row))) for row in rows]


IDENT = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)
CELL_VALUES = {
    "text": IDENT,
    "float": any_float,
    "int": st.integers(-(10**30), 10**30),
    "none": st.none(),
}


@st.composite
def column_blocks(draw):
    """Columns of one kind each; in each block a column is fixed, or varies by
    row if it holds text or floats.  Also returns every row in full."""
    columns = draw(st.lists(IDENT, min_size=1, max_size=6, unique=True))
    kinds = [draw(st.sampled_from(sorted(CELL_VALUES))) for _ in columns]
    blocks, rows = [], []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        cells, values = [], []
        for kind in kinds:
            if kind in ("text", "float") and draw(st.booleans()):
                cells.append(str if kind == "text" else float)
                values.append(draw(st.lists(CELL_VALUES[kind], min_size=size, max_size=size)))
            else:
                cells.append(draw(CELL_VALUES[kind]))
                values.append([cells[-1]] * size)
        varying = [v for c, v in zip(cells, values) if c is float or c is str]
        blocks.append((tuple(cells), list(zip(*varying)) if varying else [()] * size))
        rows += zip(*values)
    return columns, blocks, rows


@settings(max_examples=200, deadline=None)
@given(table=column_blocks())
def test_block_renderer_writes_the_dict_row_bytes(table):
    columns, blocks, rows = table
    for fmt in ("csv", "jsonl"):
        lines = list(cli._table_lines(sweep_config(fmt), columns, blocks, []))
        body = "\n".join(lines[-len(blocks) :])  # each block's rows come as one chunk
        assert body == "\n".join(oracle_lines(fmt, columns, rows))


small_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e307, 1e307)
)


@st.composite
def shared_eps_tables(draw):
    """Sweep tables whose blocks share one eps_total array object, hold equal
    copies with the sign of each zero flipped in every other block, or hold
    their own arrays; the blocks may all carry one gamma.  theta holds -0.0,
    5e-324 and 1e308."""
    extra = draw(st.lists(any_float, max_size=3))
    thetas = np.array(draw(st.permutations([-0.0, 5e-324, 1e308, *extra])))
    column = st.lists(small_float, min_size=len(thetas), max_size=len(thetas))
    eps_column = st.lists(nonnegative, min_size=len(thetas), max_size=len(thetas))
    mode = draw(st.sampled_from(["shared", "flipped", "own"]))
    gamma = draw(st.one_of(st.none(), nonnegative))  # None: a gamma per block
    first = np.array(draw(eps_column))
    blocks = []
    for k in range(draw(st.integers(1, 4))):
        c12, c23, c13p = (np.array(draw(column)) for _ in range(3))
        if mode == "shared":
            eps = first
        elif mode == "flipped":
            eps = np.where(first == 0.0, -first, first) if k % 2 else first.copy()
        else:
            eps = np.array(draw(eps_column))
        cur = CurveArrays(c12, c23, c13p, 1.0 + c12 + c23 + c13p, eps)
        g = draw(nonnegative) if gamma is None else gamma
        blocks.append(SweepBlock(draw(st.integers(0, 10**30)), g, cur, sweeps._verdicts(cur)))
    return SweepTable(thetas, tuple(blocks))


@settings(max_examples=150, deadline=None)
@given(table=shared_eps_tables())
def test_sweep_writer_matches_the_dict_row_oracle(table):
    # theta and each eps_total array are formatted once and pasted into rows
    rows = [(*r[:-1], r.verdict.value) for r in table.records()]
    for fmt in ("csv", "jsonl"):
        blocks = cli._sweep_blocks(table, fmt)
        lines = list(cli._table_lines(sweep_config(fmt), SWEEP_COLUMNS, blocks, []))
        body = "\n".join(lines[-len(table.blocks) :])
        assert body == "\n".join(oracle_lines(fmt, SWEEP_COLUMNS, rows))


SWEEP_THETAS = [0.1 + k * (2.9 / 6.0) for k in range(7)]  # SWEEP_ARGS' theta grid
CORRUPT_ROW = 9  # block 1 (n=0, gamma=0.01), theta index 2; its verdict is no_violation


def corrupt_table(path, fmt, column, value):
    """Rewrite one cell of data row CORRUPT_ROW, in the table's own format."""
    lines = path.read_text().splitlines()
    if fmt == "csv":
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        row = header + 1 + CORRUPT_ROW
        cells = lines[row].split(",")
        cells[lines[header].split(",").index(column)] = (
            f17(value) if isinstance(value, float) else str(value)
        )
        lines[row] = ",".join(cells)
    else:
        row = 1 + CORRUPT_ROW  # after the meta line
        obj = json.loads(lines[row])
        obj[column] = value
        lines[row] = json.dumps(obj)
    path.write_text("\n".join(lines) + "\n")


def sweep_records_error(monkeypatch, column, value):
    """What sweep_records raises when the same value sits at the same row."""
    thetas, gammas, ns = list(SWEEP_THETAS), [0.0, 0.01], [0, 1]
    block, k = divmod(CORRUPT_ROW, len(thetas))
    if column == "theta":
        thetas[k] = value
    elif column == "gamma":
        gammas[block % 2] = value
    elif column == "n":
        ns[block // 2] = value
    else:
        field = "lg" if column == "lg_quantity" else column
        real, calls = sweeps._curve, []  # sweep_records' per-block call, in block order

        def corrupt(*args):
            cur = real(*args)
            calls.append(args)
            if len(calls) - 1 == block:
                bad = getattr(cur, field).copy()
                bad[k] = value
                cur = cur._replace(**{field: bad})
            return cur

        monkeypatch.setattr(sweeps, "_curve", corrupt)
    with pytest.raises(ValueError) as exc:
        sweep_records(thetas, gammas, ns, tau=math.pi, omega=1.0)
    return str(exc.value)


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_back_leaves_the_gc_state_as_it_found_it(tmp_path, capsys, enabled):
    # expanding records pauses the cyclic collector, and must restore the
    # caller's setting on success and when a corrupt cell raises
    table = tmp_path / "grid.csv"
    assert run(capsys, *SWEEP_ARGS, "--out", str(table))[0] == 0
    _, rows = read_table(table)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        assert len(records_from_rows(rows)) == len(rows)
        assert gc.isenabled() is enabled
        assert len(sweep_records([0.5, 1.0], [0.0], [1], tau=math.pi).records()) == 2
        assert gc.isenabled() is enabled
        corrupt_table(table, "csv", "c23", 0.5)
        with pytest.raises(ValueError, match="inconsistent with correlators"):
            records_from_rows(read_table(table)[1])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize(
    ("column", "value"),
    [
        ("theta", math.nan),
        ("gamma", -5.0),
        ("n", -3),
        ("n", 1.5),
        ("c12", math.nan),
        ("c23", 0.5),
        ("c13_prime", math.inf),
        ("lg_quantity", -0.2),  # lg no longer matches its correlators
        ("eps_total", -1.0),
        ("verdict", "violates_strict"),
    ],
)
def test_corrupt_cells_are_refused_as_on_write(tmp_path, capsys, monkeypatch, fmt, column, value):
    table = tmp_path / f"grid.{fmt}"
    code, _, _ = run(capsys, *SWEEP_ARGS, "--format", fmt, "--out", str(table))
    assert code == 0
    _, rows = read_table(table)
    clean = records_from_rows(rows)[CORRUPT_ROW]
    corrupt_table(table, fmt, column, value)
    _, rows = read_table(table)
    with pytest.raises(ValueError) as exc:
        records_from_rows(rows)
    message = str(exc.value)
    assert "\n" not in message
    if column == "verdict":  # sweep_records computes verdicts, so none is ever wrong on write
        assert message == (
            f"verdict violates_strict inconsistent with lg={clean.lg_quantity!r}, "
            f"eps_total={clean.eps_total!r}"
        )
    else:
        assert message == sweep_records_error(monkeypatch, column, value)


@pytest.mark.parametrize(
    ("column", "value", "message"),
    [
        ("n", "x", "n must be a nonnegative integer, got x"),
        ("n", None, "n must be a nonnegative integer, got None"),
        ("theta", "x", "theta: could not convert string to float: 'x'"),
        ("eps_total", None, "eps_total: float() argument must be a string or a real number"),
    ],
)
def test_unparseable_cells_are_one_line_errors(tmp_path, capsys, column, value, message):
    table = tmp_path / "grid.jsonl"
    run(capsys, *SWEEP_ARGS, "--format", "jsonl", "--out", str(table))
    _, rows = read_table(table)
    rows[CORRUPT_ROW][column] = value
    with pytest.raises(ValueError) as exc:
        records_from_rows(rows)
    assert str(exc.value).startswith(message)
    assert "\n" not in str(exc.value)


PINNED_GRID = ("sweep", "--theta", "0:3.141592653589793:9", "--gamma", "0:0.01:3", "--n", "0,1,5")


@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (PINNED_GRID, "64decb267d8f6b4cd9cc2992ae3eef5b881f35dd9d91aa98b4df7604ff9ea3d3"),
        (
            PINNED_GRID + ("--format", "jsonl"),
            "945c7906d2e3287429ba0899dde8b29aff448b292c79db795acf11b1dedaf5a6",
        ),
        (("fig2",), "10357bcde748d6090c7bc3135a69589ce1de3f2e6fa14fb8494d9e03f5b2f4c6"),
    ],
)
def test_table_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the stdout tables written before sweep output became columnar;
    # the grid holds theta = 0 and pi, gamma = 0 and > 0, and the n = 0 control
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


ADROIT_GRID = ("adroitness", "--theta", "0:3.141592653589793:5", "--gamma", "0:0.01:3")


@pytest.mark.parametrize(
    ("argv", "digest"),
    [
        (ADROIT_GRID, "c250cc94d9db39ea5614da0319adceebcf5a6fad9bc37aec1669504456fd4bc1"),
        (
            ADROIT_GRID + ("--format", "jsonl"),
            "7169a0f77368779edc2f55c7aacbd484b219cce27a1d75877573329c0669174f",
        ),
        (
            ("adroitness", "--theta=-1:7:4", "--gamma", "0.003:0.003:1", "--m", "2")
            + ("--omega", "0.7"),
            "0a14767ee798756f9b76d287c51d74308a4d72232ab1101f78ce36a90387d9ee",
        ),
        (
            ("adroitness", "--theta", "0.785:2.5:2", "--gamma", "0:0.004:2")
            + ("--shots", "300", "--seed", "9"),
            "d78c9dc94e50f1cb2e86e74aa282a062fc15fb2a5cf0cc69a95400c3f6a66c42",
        ),
        (
            ("adroitness", "--shots", "300", "--seed", "3", "--format", "jsonl"),
            "8eaad90e07d58fde94c078e2a22fd63813005f49ee185ba7026fc129bd1c4e9d",
        ),
    ],
)
def test_adroitness_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the stdout tables written while the CLI still evaluated the
    # battery one (theta, gamma) cell at a time through joint_distribution,
    # and (the seeded JSONL one) before every table went through one block
    # renderer; the grids hold theta = 0, pi, negative and > 2*pi, gamma = 0
    # and > 0, m > 1 with omega != 1, and seeded Monte Carlo tables
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize(
    "argv",
    [
        ("classic", "--format", "jsonl"),
        ADROIT_GRID + ("--shots", "50"),
        PINNED_GRID + ("--format", "jsonl"),
    ],
)
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, argv):
    # the one difference is the echoed out= value in the config comments
    code, out, _ = run(capsys, *argv)
    assert code == 0
    target = tmp_path / "table.out"
    assert run(capsys, *argv, "--out", str(target)) == (0, "", "")
    if "jsonl" in argv:
        want = out.replace('"out": ""', f'"out": {json.dumps(str(target))}', 1)
    else:
        want = out.replace("\n# config out=\n", f"\n# config out={target}\n", 1)
    assert want != out
    assert target.read_bytes() == want.encode("utf-8")


def test_read_table_rejects_garbage(tmp_path):
    p = tmp_path / "broken.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty table"):
        read_table(p)
    p.write_text("# lgsim sweep\n")
    with pytest.raises(ValueError, match="no header"):
        read_table(p)
    p.write_text("a,b\n1,2,3\n")
    with pytest.raises(ValueError, match="row has 3 cells"):
        read_table(p)


# ---------------------------------------------------------------------------
# adroitness command


def test_adroitness_exact_only(capsys):
    code, out, _ = run(
        capsys, "adroitness", "--theta", "0.5:0.5:1", "--gamma", "0.002:0.002:1"
    )
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "experiment,theta,gamma,tau,omega,epsilon,epsilon_mc,epsilon_mc_se"
    body = [ln.split(",") for ln in lines[1:]]
    assert [r[0] for r in body] == ["a", "b", "c", "d", "total"]
    # no shots requested: Monte Carlo cells are empty
    assert all(r[6] == "" and r[7] == "" for r in body)
    total = float(body[-1][5])
    assert total == pytest.approx(sum(float(r[5]) for r in body[:4]), abs=1e-15)


def test_adroitness_with_shots_is_seeded(capsys):
    args = (
        "adroitness",
        "--theta",
        "0.785:0.785:1",
        "--gamma",
        "0:0:1",
        "--m",
        "1",
        "--shots",
        "400",
        "--seed",
        "9",
    )
    code, first, _ = run(capsys, *args)
    assert code == 0
    _, second, _ = run(capsys, *args)
    assert first == second
    _, reseeded, _ = run(capsys, *args[:-1], "10")
    assert first != reseeded
    rows = [ln.split(",") for ln in first.splitlines() if not ln.startswith("#")][1:]
    for r in rows:
        assert r[6] != "" and r[7] != ""
        assert float(r[7]) >= 0.0
    # total MC epsilon is the sum of the per-experiment estimates
    assert float(rows[-1][6]) == pytest.approx(sum(float(r[6]) for r in rows[:4]), abs=1e-12)


@pytest.mark.parametrize(
    ("flag", "message"),
    [
        (
            "--omega=1e-300",
            "propagator for gamma=0.002, omega=1e-300, t=3.141592653589793e+300 failed "
            "CPTP validation: transfer matrix contains non-finite entries",
        ),
        (
            "--gamma=0:1e308:3",
            "propagator for gamma=5e+307, omega=1.0, t=3.141592653589793 failed "
            "CPTP validation: transfer matrix contains non-finite entries",
        ),
    ],
)
def test_adroitness_propagator_failures_are_one_line_errors(capsys, flag, message):
    assert expect_error(capsys, "adroitness", flag) == f"lgsim: error: {message}"


# ---------------------------------------------------------------------------
# the lgsim program: scipy's BLAS on one thread

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

PROGRAM = """
import json, os, sys
from lgsim.cli import main

def threads():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None

before = threads()
sys.argv = ["lgsim", "fig3", "--theta", "0:3.14:5", "--gamma", "0:0.02:3", "--out", sys.argv[1]]
rc = main()
print(json.dumps({
    "rc": rc,
    "scipy": "scipy.linalg" in sys.modules,
    "threads": [before, threads()],
    "env": {k: os.environ.get(k) for k in %r},
}))
""" % (BLAS_THREAD_VARS,)


def run_program(tmp_path, preset):
    """``main()`` as the program runs it, in a fresh interpreter whose only
    BLAS thread variables are ``preset``."""
    src = str(Path(lgsim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", PROGRAM, str(tmp_path / "fig3.csv")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout)
    assert got["rc"] == 0 and got["scipy"]  # the command built damped propagators
    return got


@pytest.mark.parametrize("preset", [{}, dict.fromkeys(BLAS_THREAD_VARS, "")])
def test_the_program_runs_scipy_blas_on_one_thread(tmp_path, preset):
    # an empty value chooses nothing, so it is pinned as an unset one is
    got = run_program(tmp_path, preset)
    assert got["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), **preset, "OPENBLAS_NUM_THREADS": "1"}
    before, after = got["threads"]
    if before is None:
        pytest.skip("no /proc/self/task to count this process's threads")
    assert after == before  # loading scipy started no BLAS worker


@pytest.mark.parametrize("var", BLAS_THREAD_VARS)
def test_the_program_keeps_a_thread_count_the_user_set(tmp_path, var):
    got = run_program(tmp_path, {var: "2"})
    assert got["env"] == {k: "2" if k == var else None for k in BLAS_THREAD_VARS}


def test_main_with_arguments_leaves_the_environment_alone(monkeypatch, capsys, tmp_path):
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    argv = ["fig3", "--theta", "0:3.14:5", "--gamma", "0:0.02:3", "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 0
    assert dict(os.environ) == before
