"""End-to-end command-line behaviour: parsing, rendering, round trips."""

import functools
import gc
import hashlib
import json
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import unittest.mock
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import lgsim
from lgsim import _kernels, cli, sampling, sweeps, tables
from lgsim.cli import main, read_table, records_from_rows
from lgsim.sweeps import CurveArrays, SweepBlock, SweepTable, sweep_records

SWEEP = tables.SCHEMAS["sweep"]


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


def test_fig2_writes_an_onset_it_cannot_bracket_as_undefined(capsys):
    # at this m the n=1 window reaches theta=0; every row still computes
    code, out, _ = run(capsys, "fig2", "--theta", "0:1:3", "--m", "100000000000000000")
    assert code == 0
    assert [ln for ln in out.splitlines() if ln.startswith("# onset")] == [
        "# onset[n=1] undefined: violation extends to theta=0; no onset to bracket "
        "(criterion=lenient)",
        "# onset[n=2] none (criterion=lenient)",
        "# onset[n=5] none (criterion=lenient)",
        "# onset[n=10] none (criterion=lenient)",
    ]
    assert len(out.splitlines()) == 15 + 3 * 4  # comments and header, then theta x n rows


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
    # the search runs in units of pi/tau, so it finds both at a fast drive too
    for argv, lenient, strict in (
        (("--theta", "2:3:3", "--gamma", "0:0.01:2", "--n", "1"), "0.0111937102", "0.00934983008"),
        (("--omega", "120", "--theta", "0:3:3", "--gamma", "0:0:1"), "1.34324522", "1.12197961"),
    ):
        code, out, _ = run(capsys, "fig3", *argv)
        assert code == 0
        cutoffs = [ln for ln in out.splitlines() if ln.startswith("# gamma_cutoff")]
        assert cutoffs == [f"# gamma_cutoff[lenient]={lenient}", f"# gamma_cutoff[strict]={strict}"]


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


def test_a_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes(b"\xef\xbb\xbfomega=2\n")
    code, out, _ = run(capsys, "classic", "--config", str(cfgfile))
    assert code == 0
    assert "# config omega=2" in out.splitlines()


def test_a_config_file_that_is_not_utf8_is_refused_naming_the_flag_and_file(tmp_path, capsys):
    cfgfile = tmp_path / "run.cfg"
    cfgfile.write_bytes("omega=2 # \xb5s\n".encode("latin-1"))
    err = expect_error(capsys, "classic", "--config", str(cfgfile))
    assert err.startswith(f"lgsim: error: --config: cannot read {cfgfile}: 'utf-8' codec")


# a value of each key that runs on every command that reads the key
KEY_VALUES = {
    "theta": "0:1:3",
    "gamma": "0:0.1:2",
    "n": "2",
    "omega": "2",
    "m": "2",
    "criterion": "strict",
    "shots": "5",
    "seed": "3",
    "format": "jsonl",
    "out": "t.csv",
    "workers": "1",
}


@pytest.mark.parametrize("key", list(cli._KEYS))
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_a_command_takes_exactly_its_keys(capsys, tmp_path, command, key):
    keys = cli._COMMANDS[command].keys
    with pytest.raises(SystemExit) as info:
        main([command, "--help"])
    assert info.value.code == 0
    assert set(re.findall(r"--(\w+)", capsys.readouterr().out)) == {*keys, "config", "help"}
    flag, value = f"--{key}", KEY_VALUES[key]
    cfgfile, out = tmp_path / "run.cfg", tmp_path / "t.csv"
    cfgfile.write_text(f"{key}={value}\n")
    if key in keys:  # as a flag or a config line, the value reaches the table's echo
        echoed = {key: value}
        if (command, key) == ("fig2", "gamma"):
            echoed = {key: "0:0:1", "note": f"gamma={value} ignored: fig2 fixes gamma=0"}
        for argv in ([flag, value], ["--config", str(cfgfile)]):
            cfg = cli.resolve_config(command, cli.build_parser().parse_args([command, *argv]))
            assert echoed.items() <= dict(cfg.echo).items()
        return
    err = expect_error(capsys, command, flag, value, "--out", str(out))
    assert err == f"lgsim: error: unrecognized arguments: {flag} {value}"
    err = expect_error(capsys, command, "--config", str(cfgfile), "--out", str(out))
    assert err == f"lgsim: error: config line 1: {command} does not read the key {key!r}"
    assert not out.exists()


def argparse_refusals(command):
    """Each way argparse refuses a command line, given for ``command``: its
    argv and the start of argparse's message."""
    keys = cli._COMMANDS[command].keys
    first, unread = keys[0], next(k for k in cli._KEYS if k not in keys)
    return {
        "no command": (  # the command's first flag, without the command
            (f"--{first}={KEY_VALUES[first]}",),
            "the following arguments are required: command",
        ),
        "unknown command": (
            (command.upper(),),
            f"argument command: invalid choice: {command.upper()!r} (choose from ",
        ),
        "unread flag": (
            (command, f"--{unread}", KEY_VALUES[unread]),
            f"unrecognized arguments: --{unread} {KEY_VALUES[unread]}",
        ),
        "no value": ((command, f"--{first}"), f"argument --{first}: expected one argument"),
    }


@pytest.mark.parametrize("case", ["no command", "unknown command", "unread flag", "no value"])
@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_an_argparse_refusal_is_one_line(capsys, tmp_path, command, case):
    # main writes it as it writes every refusal, without argparse's usage
    # lines, and returns 2; a table is not written
    argv, message = argparse_refusals(command)[case]
    out = tmp_path / "t.csv"
    assert expect_error(capsys, *argv, f"--out={out}").startswith(f"lgsim: error: {message}")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("sweep", "--the", "0:1:2", "--gam", "0:0:1"),
        ("sweep", "--the", "-1:1:3"),
        ("sweep", "--the=0:1:2"),
        ("classic", "--conf", "{config}"),
    ],
    ids=["two-prefixes", "dash-value", "joined-value", "config-prefix"],
)
def test_a_flag_is_read_only_by_its_full_name(capsys, tmp_path, argv):
    # argparse would read a prefix as the flag it begins; here it is one of
    # the unrecognized arguments, with its value, and no table is written
    config = tmp_path / "run.cfg"
    config.write_text("omega=2\n")
    argv = [arg.format(config=config) for arg in argv]
    out = tmp_path / "t.csv"
    err = expect_error(capsys, *argv, f"--out={out}")
    assert err == f"lgsim: error: unrecognized arguments: {' '.join(argv[1:])}"
    assert not out.exists()


# a command that reads each flag that sweep does not read
NOT_SWEEPS = {"--shots": "adroitness", "--seed": "adroitness", "--criterion": "fig2"}


@pytest.mark.parametrize(
    ("flag", "value", "fragment"),
    [
        ("--theta", "2:1:5", "range start must not exceed stop"),
        ("--theta", "1:2:1", "single-step range needs start == stop"),
        ("--theta", "0:1", "expected start:stop:steps"),
        ("--theta", "a:1:5", "not a number"),
        ("--theta", "0:nan:3", "--theta: must be finite, got 'nan'"),
        ("--omega", "inf", "--omega: must be finite, got 'inf'"),
        ("--shots", "1.5", "--shots: not an integer: '1.5'"),
        ("--gamma=-0.1:0.1:3", None, "gamma must be nonnegative"),
        ("--omega", "0", "omega must be positive"),
        ("--m", "0", "must be >= 1"),
        ("--criterion", "both", "must be one of lenient, strict"),
        ("--seed", "18446744073709551616", "seed must be below 2**64"),
        ("--workers", "0", "must be one of 1, got '0'"),
        ("--workers", "2", "must be one of 1, got '2'"),
        ("--format", "xml", "must be one of csv, jsonl"),
        ("--n", " ", "need at least one n"),
    ],
)
def test_flag_validation(capsys, flag, value, fragment):
    command = NOT_SWEEPS.get(flag, "sweep")  # a command that reads the flag
    argv = (command, flag) if value is None else (command, flag, value)
    err = expect_error(capsys, *argv)
    assert fragment in err
    assert f"{flag.split('=')[0]}:" in err  # errors name the flag that caused them


@pytest.mark.parametrize("brk", ["\n", "\r", "\u2028", "\x85"], ids=["LF", "CR", "LS", "NEL"])
@pytest.mark.parametrize(
    "argv",
    [("sweep", "--n", "1,{}2"), ("sweep", "--out", "t{}.csv"), ("fig2", "--gamma", "x{}y")],
    ids=["n", "out", "fig2-gamma"],
)
def test_a_value_with_a_line_break_is_refused(capsys, monkeypatch, tmp_path, brk, argv):
    # each value is echoed into one table line, and fig2's ignored gamma into a
    # note, so a line break would write a table that does not read back
    monkeypatch.chdir(tmp_path)
    command, flag, value = argv[0], argv[1], argv[2].format(brk)
    out = () if flag == "--out" else ("--out", "t.csv")
    err = expect_error(capsys, command, flag, value, *out)
    assert err == f"lgsim: error: {flag}: must not contain a line break, got {value!r}"
    assert list(tmp_path.iterdir()) == []


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
    err = expect_error(capsys, "sweep", "--theta", "--n", "1")  # "--n" is never a value
    assert err == "lgsim: error: argument --theta: expected one argument"


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


# the parametrized refusals each charge one unit a second and the others
# nothing, so that a message counts that unit's work exactly
@pytest.mark.parametrize(
    ("argv", "limit", "message"),
    [
        (
            ("sweep", "--theta", "0:1:7", "--gamma", "0:0.01:3"),
            ("rows", 20),
            "--theta, --gamma: 21.0 s of work (rows 21.0 s) exceeds the 20 s budget",
        ),
        (  # fig2 forces gamma to 0:0:1 and defaults to four n
            ("fig2", "--theta", "0:1:6", "--gamma", "0:1:9"),
            ("rows", 23),
            "--theta: 24.0 s of work (rows 24.0 s) exceeds the 23 s budget",
        ),
        (  # 201 default thetas x 3 n
            ("sweep", "--n", "1,2,3"),
            ("rows", 602),
            "--n: 603.0 s of work (rows 603.0 s) exceeds the 602 s budget",
        ),
        (
            ("fig3", "--theta", "0:1:4", "--gamma", "0:0.01:2"),
            ("rows", 7),
            "--theta, --gamma: 8.0 s of work (rows 8.0 s) exceeds the 7 s budget",
        ),
        (
            ("adroitness", "--theta", "0:1:2", "--gamma", "0:0.01:3"),
            ("rows", 29),
            "--theta, --gamma: 30.0 s of work (rows 30.0 s) exceeds the 29 s budget",
        ),
        (  # shots x theta x 3 default gammas x 8
            ("adroitness", "--theta", "0:1:2", "--shots", "5"),
            ("sampled shots", 239),
            "--shots, --theta: 240.0 s of work (sampled shots 240.0 s) exceeds the 239 s budget",
        ),
        (  # 7 passes x (201 default thetas + 300 for a pass's fixed cost)
            ("sweep", "--n", "3"),
            ("box steps", 3506),
            "--n: 3507.0 s of work (box steps 3507.0 s) exceeds the 3506 s budget",
        ),
        (  # 5 passes x (21 x (3 + 300) for the table + 74 x (2001 + 300) for the cutoffs)
            ("fig3", "--n", "2", "--theta", "0:1:3"),
            ("box steps", 883184),
            "--theta, --n: 883185.0 s of work (box steps 883185.0 s) "
            "exceeds the 883184 s budget",
        ),
        (  # 3 gammas x (4 + one n)
            ("sweep", "--gamma", "0:0.01:3"),
            ("gamma passes", 14),
            "--gamma: 15.0 s of work (gamma passes 15.0 s) exceeds the 14 s budget",
        ),
        (  # 2 gammas x (4 + three n)
            ("sweep", "--n", "0,1,2", "--gamma", "0:0.01:2"),
            ("gamma passes", 13),
            "--gamma, --n: 14.0 s of work (gamma passes 14.0 s) exceeds the 13 s budget",
        ),
        (
            ("fig3", "--gamma", "0:0.01:2"),
            ("gamma passes", 9),
            "--gamma: 10.0 s of work (gamma passes 10.0 s) exceeds the 9 s budget",
        ),
        (  # adroitness has no n blocks
            ("adroitness", "--gamma", "0:0.01:3"),
            ("gamma passes", 11),
            "--gamma: 12.0 s of work (gamma passes 12.0 s) exceeds the 11 s budget",
        ),
        (  # 2 thetas x 3 default gammas, whatever the shots
            ("adroitness", "--theta", "0:1:2", "--shots", "5"),
            ("sampled cells", 5),
            "--shots, --theta: 6.0 s of work (sampled cells 6.0 s) exceeds the 5 s budget",
        ),
    ],
)
def test_work_beyond_the_limits_is_refused_before_any_grid_is_built(
    monkeypatch, capsys, tmp_path, argv, limit, message
):
    built = []
    linspace = cli._linspace
    monkeypatch.setattr(cli, "_linspace", lambda grid: built.append(grid) or linspace(grid))
    unit, seconds = limit
    monkeypatch.setattr(cli, "_UNIT_NS", {u: 10**9 * (u == unit) for u in cli._UNIT_NS})
    monkeypatch.setattr(cli, "_BUDGET_NS", seconds * 10**9)
    assert expect_error(capsys, *argv) == f"lgsim: error: {message}"
    assert built == []
    # a config line is named as the flag is
    flag, text = argv[1:3]
    cfgfile = tmp_path / "grid.cfg"
    cfgfile.write_text(f"{flag[2:]}={text}\n")
    err = expect_error(capsys, argv[0], "--config", str(cfgfile), *argv[3:])
    assert err == f"lgsim: error: {message.replace(flag, f'config line 1 ({flag[2:]})', 1)}"
    assert built == []
    # within the budget the command runs
    monkeypatch.setattr(cli, "_BUDGET_NS", (seconds + 1) * 10**9)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert len(built) == 2


def resolve(*argv):
    args = cli.build_parser().parse_args(list(argv))
    return cli.resolve_config(args.command, args)


BUDGET = "exceeds the 20 s budget"


# the largest n the budget admits: the box steps (the passes 2n + 1 times the
# points per pass, which are 301 for sweep's one theta and one gamma, 201 + 300
# for its default grid, 501 + 10301 + 14 x 301 for fig2 and 21 x 501 +
# 74 x 2301 for fig3) at 40 ns each, plus the rows and gamma passes
@pytest.mark.parametrize(
    ("argv", "largest_n", "refusal"),
    [
        (("sweep", "--theta", "0:0:1"), 830494, ("--theta, --n", "rows 0.0 s, box steps 20.0 s")),
        (("sweep",), 498859, ("--n", "rows 0.0 s, box steps 20.0 s")),
        (("fig2",), 16643, ("--n", "rows 0.0 s, box steps 20.0 s")),
        (("fig3",), 1374, ("--n", "rows 0.1 s, box steps 19.9 s")),
    ],
)
def test_the_box_work_limit_sits_between_two_values_of_n(argv, largest_n, refusal):
    assert (cli._BUDGET_NS, cli._UNIT_NS["box steps"]) == (20 * 10**9, 40)
    assert resolve(*argv, "--n", str(largest_n)).ns == (largest_n,)
    with pytest.raises(cli.ConfigError) as info:
        resolve(*argv, "--n", str(largest_n + 1))
    where, terms = refusal
    assert str(info.value) == f"{where}: 20.0 s of work ({terms}, gamma passes 0.0 s) {BUDGET}"


def test_the_row_limit_sits_at_the_slowest_table_per_row():
    # adroitness, five rows per (theta, gamma), is the slowest table per row:
    # its JSONL table of 10^6 rows took about 20 s on a 2-vCPU host
    assert (cli._BUDGET_NS, cli._UNIT_NS["rows"]) == (20 * 10**9, 20_000)
    assert len(resolve("adroitness", "--theta", "0:1:199986", "--gamma", "0:0:1").thetas) == 199986
    for argv, where in (
        (("--theta", "0:1:199987", "--gamma", "0:0:1"), "--theta, --gamma"),
        (("--theta", "0:1:66667"), "--theta"),  # and the 3 default gammas
    ):
        with pytest.raises(cli.ConfigError) as info:
            resolve("adroitness", *argv)
        terms = "rows 20.0 s, gamma passes 0.0 s"
        assert str(info.value) == f"{where}: 20.0 s of work ({terms}) {BUDGET}"


def test_a_resolved_grid_is_one_float64_array():
    # 900,000 thetas are 6.9 MiB as float64; as a tuple of Python floats
    # (a 24-byte object and an 8-byte pointer each) they held 27.5 MiB
    tracemalloc.start()
    try:
        cfg = resolve("sweep", "--theta", "0:1:900000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
    assert cfg.thetas.dtype == np.float64 and cfg.thetas.shape == (900000,)
    assert cfg.thetas[-1] == 1.0 and cfg.gammas.tolist() == [0.0]


def test_the_gamma_pass_limit_sits_at_the_slowest_work_per_gamma():
    # a one-theta fig3 of 12,000 gammas (five passes each) took about 19 s on
    # a 2-vCPU host; the theta count does not enter the passes
    assert (cli._BUDGET_NS, cli._UNIT_NS["gamma passes"]) == (20 * 10**9, 333_333)
    one_n = "--theta, --gamma: 20.0 s of work (rows 0.2 s, box steps 0.4 s, gamma passes 19.3 s)"
    for largest, beyond, message in (
        (("fig3", "--gamma", "0:1:11597"), ("--gamma", "0:1:11598"), one_n),
        (("sweep", "--gamma", "0:1:11609"), ("--gamma", "0:1:11610"), one_n),
        (
            ("sweep", "--gamma", "0:1:4961", "--n", "1,2,3,4,5,6"),
            ("--n", "1,2,3,4,5,6,7"),
            "--theta, --gamma, --n: 22.6 s of work "
            "(rows 0.7 s, box steps 3.8 s, gamma passes 18.2 s)",
        ),
        (
            ("adroitness", "--gamma", "0:1:13953"),
            ("--gamma", "0:1:13954"),
            "--theta, --gamma: 20.0 s of work (rows 1.4 s, gamma passes 18.6 s)",
        ),
    ):
        assert resolve(*largest, "--theta", "0:0:1").gammas[-1] == 1.0
        with pytest.raises(cli.ConfigError) as info:
            resolve(*largest, *beyond, "--theta", "0:0:1")
        assert str(info.value) == f"{message} {BUDGET}"


def retired_limits_refuse(command, thetas, gammas, ns, shots):
    """The four work limits the budget replaced, as ``resolve_config`` checked
    them: 10^6 rows, 10^9 sampled shots, 5 x 10^8 protocol kernel steps and
    6 x 10^4 gamma passes (the oracle for the budget)."""
    cells = thetas * gammas
    if command == "adroitness":
        return cells * 5 > 10**6 or shots * cells * 8 > 10**9 or gammas * 4 > 6 * 10**4
    if command == "classic":
        return False
    summary = {"fig2": 10001 + 300 + 14 * 301, "fig3": 2 * 36 * 2301, "sweep": 0}[command]
    box = sum(2 * n + 1 for n in ns) * (gammas * (thetas + 300) + summary)
    return cells * len(ns) > 10**6 or box > 5 * 10**8 or gammas * (4 + len(ns)) > 6 * 10**4


@functools.cache
def parser():
    return cli.build_parser()


def budget_refuses(command, thetas, gammas, ns, shots):
    sizes = {"n": ",".join(map(str, ns)), "shots": str(shots)}
    for key, steps in (("theta", thetas), ("gamma", gammas)):
        sizes[key] = f"0:{int(steps > 1)}:{steps}"
    argv = [command]  # the sizes that the command reads, which the oracle reads
    for key in cli._COMMANDS[command].keys:
        if key in sizes:
            argv += [f"--{key}", sizes[key]]
    try:
        cli.resolve_config(command, parser().parse_args(argv))
    except cli.ConfigError as exc:
        assert str(exc).endswith(BUDGET)
        return True
    return False


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(["fig2", "fig3", "sweep", "adroitness", "classic"]),
    thetas=st.one_of(st.integers(1, 300), st.integers(1, 3 * 10**6)),
    gammas=st.one_of(st.integers(1, 30), st.integers(1, 3 * 10**4)),
    ns=st.lists(st.one_of(st.integers(0, 30), st.integers(0, 10**6)), min_size=1, max_size=20),
    shots=st.one_of(st.just(0), st.integers(1, 10**4), st.integers(1, 10**9)),
)
# each retired limit's first refused value
@example("adroitness", 200001, 1, [1], 0)
@example("adroitness", 1, 1, [1], 125000001)
@example("adroitness", 1, 15001, [1], 0)
@example("sweep", 10**6 + 1, 1, [0], 0)
@example("sweep", 1, 1, [830565], 0)
@example("fig3", 201, 21, [1419], 0)
@example("fig2", 201, 1, [16649], 0)
@example("sweep", 1, 12001, [1], 0)
def test_the_budget_refuses_all_the_retired_limits_refused(command, thetas, gammas, ns, shots):
    if command == "fig3":
        ns = ns[:1]
    if command == "fig2":  # which fixes gamma=0
        gammas = 1
    with unittest.mock.patch.object(cli, "_linspace", lambda grid: ()):
        refused = budget_refuses(command, thetas, gammas, ns, shots)
    assert refused or not retired_limits_refuse(command, thetas, gammas, ns, shots)


TWENTY_N = ",".join(map(str, range(1, 21)))


# inputs within every retired limit whose costs added up: the sweep took
# 30.9 s, and the sampled cells would have run for about 10 min
@pytest.mark.parametrize(
    ("argv", "sizes"),
    [
        (
            ("sweep", "--theta", "0:0:1", "--gamma", "0:1:2500", "--n", TWENTY_N),
            ("sweep", 1, 2500, range(1, 21), 0),
        ),
        (
            ("adroitness", "--theta", "0:3.14:200000", "--gamma", "0:0:1", "--shots", "1"),
            ("adroitness", 200000, 1, (), 1),
        ),
    ],
)
def test_work_the_retired_limits_added_up_is_refused(monkeypatch, capsys, argv, sizes):
    assert not retired_limits_refuse(*sizes)
    monkeypatch.setattr(cli, "_linspace", None)
    assert expect_error(capsys, *argv).endswith(BUDGET)


def test_each_charged_sampled_cell_samples_eight_runs(monkeypatch, capsys):
    # the runs sample_battery walks, each with its shot count: four
    # experiments with and without the probe per (theta, gamma) cell
    runs = []
    count_runs = sampling._count_runs
    monkeypatch.setattr(
        sampling,
        "_count_runs",
        lambda keys, cut, shots: runs.extend([shots] * len(keys)) or count_runs(keys, cut, shots),
    )
    for shots, cells in ((0, 0), (5, 6)):
        argv = ("adroitness", "--theta", "0:1:3", "--gamma", "0:0.01:2", "--shots", str(shots))
        cfg = resolve(*argv)
        work = cli._work(cfg.command, len(cfg.thetas), len(cfg.gammas), cfg.ns, cfg.shots)
        assert work["sampled cells"] == cells
        runs.clear()
        assert run(capsys, *argv)[0] == 0
        assert runs == [shots] * 8 * cells


PI_TEXT = "3.141592653589793"


@pytest.mark.parametrize(
    "argv",
    [
        *((command,) for command in ("fig2", "fig3", "adroitness", "classic", "sweep")),
        # the benchmark's commands
        ("fig3", "--format", "jsonl"),
        ("sweep", "--theta", "0:3.14:2001", "--gamma", "0:0.02:41", "--n", "1,2,5"),
        ("adroitness", "--shots", "100000", "--seed", "0"),
        ("adroitness", "--theta", f"0:{PI_TEXT}:201", "--gamma", "0:0.004:11"),
    ],
)
def test_default_and_benchmark_grids_are_within_every_limit(argv):
    resolve(*argv)


@pytest.mark.parametrize(
    "argv",
    [
        ("fig2",),
        ("fig2", "--criterion", "strict", "--n", "0,3"),
        ("fig3",),
        ("fig3", "--n", "0", "--m", "2"),
        ("fig3", "--n", "4", "--omega", "1.3", "--gamma", "0:0.05:3"),
        ("sweep", "--theta", "0:3:7", "--gamma", "0:0.01:3", "--n", "0,2,5"),
        ("fig3", "--omega", "80"),  # the cutoffs scale with pi/tau = 80: the same search
    ],
)
def test_the_box_work_count_bounds_the_kernel_passes(monkeypatch, capsys, argv):
    # each protocol_lg call at n makes 2n + 1 passes over its thetas
    steps = []
    protocol_lg = sweeps._kernels.protocol_lg
    pass_points = cli._BOX_PASS_POINTS
    monkeypatch.setattr(
        sweeps._kernels,
        "protocol_lg",
        lambda thetas, n, *gaps: steps.append((2 * n + 1) * (len(thetas) + pass_points))
        or protocol_lg(thetas, n, *gaps),
    )
    cfg = resolve(*argv)
    work = cli._work(cfg.command, len(cfg.thetas), len(cfg.gammas), cfg.ns, cfg.shots)
    counted = work["box steps"]
    assert run(capsys, *argv)[0] == 0
    if cfg.command == "sweep":
        assert sum(steps) == counted
    else:
        assert 0 < sum(steps) <= counted


def test_classic_builds_neither_grid(monkeypatch, capsys, tmp_path):
    # classic writes one row and takes no grid: its work is nothing, and a
    # grid or shots flag or config line is refused before anything is built
    monkeypatch.setattr(cli, "_BUDGET_NS", 0)
    monkeypatch.setattr(cli, "_linspace", None)
    code, out, err = run(capsys, "classic")
    assert (code, err) == (0, "")
    assert out.splitlines()[-2] == "c12,c23,c13_prime,lg_quantity,verdict"
    cfgfile = tmp_path / "run.cfg"
    for flag in ("--theta=0:1:50", "--shots=9", "--gamma=-1:0:3"):
        err = expect_error(capsys, "classic", flag)
        assert err == f"lgsim: error: unrecognized arguments: {flag}"
        key, value = flag[2:].split("=")
        cfgfile.write_text(f"{key}={value}\n")
        err = expect_error(capsys, "classic", "--config", str(cfgfile))
        assert err == f"lgsim: error: config line 1: classic does not read the key {key!r}"
    # a command that reads gamma checks it before it builds a grid
    err = expect_error(capsys, "sweep", "--gamma=-1:0:3")
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


def corrupt_n1_blocks(monkeypatch):
    """Give every block of n = 1 a NaN lg; in SWEEP_ARGS' four 7-row blocks,
    (n, gamma) = (0, 0), (0, 0.01), (1, 0), (1, 0.01), the third fails first."""
    real = sweeps._curve

    def corrupt(thetas, n, *args):
        cur = real(thetas, n, *args)
        return cur._replace(lg=np.full_like(cur.lg, math.nan)) if n == 1 else cur

    monkeypatch.setattr(sweeps, "_curve", corrupt)


def out_echo(table, target):
    """A CSV table's stdout bytes as ``--out target`` writes them."""
    return table.replace("\n# config out=\n", f"\n# config out={target}\n", 1)


def test_a_block_that_fails_on_stdout_leaves_the_whole_rows_before_it(monkeypatch, capsys):
    # SWEEP_ARGS has four 7-row blocks; the third fails after two were written
    _, table, _ = run(capsys, *SWEEP_ARGS)
    corrupt_n1_blocks(monkeypatch)
    code, out, err = run(capsys, *SWEEP_ARGS)
    assert code == 2
    assert err.startswith("lgsim: error: lg must be finite") and err.count("\n") == 1
    lines = table.splitlines(keepends=True)
    header = lines.index(",".join(SWEEP) + "\n")
    assert out == "".join(lines[: header + 1 + 2 * 7])


def test_a_failed_out_table_leaves_no_file(monkeypatch, capsys, tmp_path):
    corrupt_n1_blocks(monkeypatch)
    target = tmp_path / "grid.csv"
    assert expect_error(capsys, *SWEEP_ARGS, "--out", str(target)).startswith(
        "lgsim: error: lg must be finite"
    )
    assert list(tmp_path.iterdir()) == []
    target.write_bytes(b"an earlier table\n")
    expect_error(capsys, *SWEEP_ARGS, "--out", str(target))
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_bytes() == b"an earlier table\n"


def test_an_out_file_replaces_its_target_only_when_whole(capsys, tmp_path):
    _, table, _ = run(capsys, *SWEEP_ARGS)
    target = tmp_path / "grid.csv"
    target.write_bytes(b"an earlier table that is longer than the new one\n" * 100)
    target.chmod(0o640)
    assert run(capsys, *SWEEP_ARGS, "--out", str(target)) == (0, "", "")
    assert list(tmp_path.iterdir()) == [target]
    assert target.read_text() == out_echo(table, target)
    assert target.stat().st_mode & 0o777 == 0o640
    fresh = tmp_path / "fresh.csv"
    umask = os.umask(0o022)
    try:
        assert run(capsys, *SWEEP_ARGS, "--out", str(fresh))[0] == 0
    finally:
        os.umask(umask)
    assert fresh.stat().st_mode & 0o777 == 0o644  # as open(path, "w") creates it


def test_a_fifo_out_is_written_in_place(capsys, tmp_path):
    _, table, _ = run(capsys, "fig2")
    fifo = tmp_path / "table.fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()), daemon=True)
    reader.start()
    try:
        code = main(["fig2", "--out", str(fifo)])
    finally:
        reader.join(timeout=10)
    assert code == 0 and got == [out_echo(table, fifo)]
    assert stat.S_ISFIFO(fifo.stat().st_mode)
    assert list(tmp_path.iterdir()) == [fifo]


def test_an_out_error_names_the_target_not_the_file_beside_it(capsys, tmp_path):
    target = tmp_path / "missing" / "x.csv"
    err = expect_error(capsys, "sweep", "--theta", "0:1:2", "--out", str(target))
    assert err == (
        f"lgsim: error: --out: cannot write {target}: "
        f"[Errno 2] No such file or directory: '{target}'"
    )


def test_a_sweep_holds_one_block_at_a_time(tmp_path):
    # eight n blocks of 1001 rows peak no higher than one does, give or take
    # a block: a block's five columns are 40 kB, and a table that kept all
    # eight would hold 280 kB more
    def argv(ns):
        return ["sweep", "--theta", "0:3.14:1001", "--n", ns, "--out", str(tmp_path / "t")]

    def peak(ns):
        tracemalloc.start()
        try:
            assert main(argv(ns)) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main(argv("1,2,3,4,5,6,7,8")) == 0  # the propagators are cached from here on
    block = 5 * 8 * 1001
    assert peak("1,2,3,4,5,6,7,8") - peak("1") < block


def test_a_sweep_renders_one_chunk_at_a_time(tmp_path):
    # a one-(n, gamma) sweep of five chunks peaks within one chunk's lines of
    # a one-chunk sweep: no chunk's text, and no block, outlives its writing.
    # What does grow is 16 bytes a theta (the grid and sweep_blocks' copy)
    out = tmp_path / "t.csv"

    def peak(chunks):
        argv = ["sweep", "--theta", f"0:3.14:{chunks * sweeps._CHUNK_ROWS}", "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert main(["sweep", "--theta", "0:3.14:2", "--out", str(out)]) == 0  # the propagators
    tables._g17_tables()
    one = peak(1)
    lines = len(out.read_text().partition("theta,gamma,")[2])
    assert peak(5) - one < lines
    # the five chunks reached the target whole, and nothing was left beside it
    assert len(read_table(out)[1]) == 5 * sweeps._CHUNK_ROWS
    assert list(tmp_path.iterdir()) == [out]


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
    assert out == f"lgsim {lgsim.__version__}\n"


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


@pytest.mark.parametrize(
    "argv",
    [
        ("fig2", "--theta", "0:3:4", "--n", "0,1"),
        ("fig3", "--theta", "2:3:3", "--gamma", "0:0.01:2"),
    ],
)
def test_csv_summary_lines_read_back_as_the_jsonl_meta_holds_them(tmp_path, capsys, argv):
    summaries = []
    for fmt in ("csv", "jsonl"):
        table = tmp_path / f"table.{fmt}"
        assert run(capsys, *argv, "--format", fmt, "--out", str(table))[0] == 0
        summaries.append(read_table(table)[0]["summary"])
    csv, jsonl = summaries
    assert csv == jsonl and len(csv) == 2
    if argv[0] == "fig3":
        assert csv == ["gamma_cutoff[lenient]=0.0111937102", "gamma_cutoff[strict]=0.00934983008"]


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
        blocks.append(SweepBlock(n, draw(nonnegative), thetas, cur, sweeps._verdicts(cur)))
    return SweepTable(tuple(blocks))


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
            blocks = tables._sweep_blocks(table.blocks)
            path.write_bytes(b"".join(tables._table_lines(sweep_config(fmt), SWEEP, blocks, [])))
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
    "text": (str, IDENT),
    "float": (float, any_float),
    "int": (int, st.integers(-(10**30), 10**30)),
    "none": (float, st.none()),  # a float column left empty
}


@st.composite
def column_blocks(draw):
    """A schema with columns of one kind each, at least one of them text or
    floats; in each block a column is fixed, or varies by row if it holds
    text or floats, and at least one column varies.  A varying column is an
    array, and the table's text ones hold str or object values.  Also
    returns every row in full."""
    columns = draw(st.lists(IDENT, min_size=1, max_size=6, unique=True))
    kinds = [draw(st.sampled_from(sorted(CELL_VALUES))) for _ in columns]
    kinds[draw(st.integers(0, len(columns) - 1))] = draw(st.sampled_from(["float", "text"]))
    can_vary = [name for name, kind in zip(columns, kinds) if kind in ("text", "float")]
    dtypes = {"text": draw(st.sampled_from([str, object])), "float": float}
    blocks, rows = [], []
    for _ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(1, 4))
        varies = {name for name in can_vary if draw(st.booleans())}
        varies = varies or {draw(st.sampled_from(can_vary))}
        fixed, varying, values = {}, [], []
        for name, kind in zip(columns, kinds):
            cells = CELL_VALUES[kind][1]
            if name in varies:
                values.append(draw(st.lists(cells, min_size=size, max_size=size)))
                varying.append(np.array(values[-1], dtype=dtypes[kind]))
            else:
                fixed[name] = draw(cells)
                values.append([fixed[name]] * size)
        blocks.append((fixed, tuple(varying)))
        rows += zip(*values)
    schema = {name: CELL_VALUES[kind][0] for name, kind in zip(columns, kinds)}
    return schema, blocks, rows


CHUNKS = st.sampled_from([1, 2, 7, 8192])  # rows the writer renders into one string
# the least CSV chunk that the column matrix writes: every chunk, or the real
# break-even, so that a table's chunks go the row template's way
MATRIX_ROWS = st.sampled_from([1, tables._G17_ROWS])


def table_body(fmt, schema, make_blocks, sizes, chunk, matrix_rows):
    """The rows' bytes that ``_table_lines`` writes for the blocks of
    ``make_blocks()`` (``sizes`` rows each) made and written with
    ``_CHUNK_ROWS = chunk`` and ``_G17_ROWS = matrix_rows``; checks that
    every piece ends in its newline and each block's rows come ``chunk`` to
    a piece."""
    with unittest.mock.patch.multiple(tables, _CHUNK_ROWS=chunk, _G17_ROWS=matrix_rows):
        pieces = list(tables._table_lines(sweep_config(fmt), schema, make_blocks(), []))
    assert all(piece.endswith(b"\n") for piece in pieces)
    body = pieces[len(list(tables._table_lines(sweep_config(fmt), schema, [], []))) :]
    assert [piece.count(b"\n") for piece in body] == [
        min(chunk, size - start) for size in sizes for start in range(0, size, chunk)
    ]
    return b"".join(body)


def oracle_bytes(fmt, columns, rows):
    return "".join(line + "\n" for line in oracle_lines(fmt, columns, rows)).encode()


@settings(max_examples=200, deadline=None)
@given(table=column_blocks(), chunk=CHUNKS, matrix_rows=MATRIX_ROWS)
def test_block_renderer_writes_the_dict_row_bytes(table, chunk, matrix_rows):
    schema, blocks, rows = table
    sizes = [len(columns[0]) for _, columns in blocks]
    for fmt in ("csv", "jsonl"):
        body = table_body(fmt, schema, lambda: blocks, sizes, chunk, matrix_rows)
        assert body == oracle_bytes(fmt, list(schema), rows)


small_float = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]), st.floats(-1e307, 1e307)
)


@st.composite
def shared_eps_tables(draw):
    """Sweep tables whose blocks share one eps_total array object, hold equal
    copies with the sign of each zero flipped in every other block, or hold
    their own arrays, so that a block whose values equal another's, or whose
    array is another's, must still write its own cells; the blocks may all
    carry one gamma.  theta holds -0.0, 5e-324 and 1e308."""
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
        blocks.append(
            SweepBlock(draw(st.integers(0, 10**30)), g, thetas, cur, sweeps._verdicts(cur))
        )
    return SweepTable(tuple(blocks))


@settings(max_examples=150, deadline=None)
@given(table=shared_eps_tables(), chunk=CHUNKS, matrix_rows=MATRIX_ROWS)
def test_sweep_writer_matches_the_dict_row_oracle(table, chunk, matrix_rows):
    # each block formats its own columns, on the row template or the column
    # matrix, whether or not its arrays are another block's
    rows = [(*r[:-1], r.verdict.value) for r in table.records()]
    make_blocks = functools.partial(tables._sweep_blocks, table.blocks)
    sizes = [len(b.thetas) for b in table.blocks]
    for fmt in ("csv", "jsonl"):
        body = table_body(fmt, SWEEP, make_blocks, sizes, chunk, matrix_rows)
        assert body == oracle_bytes(fmt, SWEEP, rows)


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
# gamma = 1 is critical damping at omega = 1, and n = 7 runs fifteen box steps
CRITICAL_GRID = ("sweep", "--theta", "0:3.141592653589793:7", "--gamma", "0:1:3", "--n", "0,2,7")
# at m = 200 the gamma = 1 gaps underflow G33 to 0: the correlators are zeros,
# and the theta = 3.2 rows write -0 cells
UNDERFLOW_GRID = ("sweep", "--theta", "0:3.2:9", "--gamma", "0:1:2", "--m", "200", "--n", "0,1")
# 8193 thetas: each (n, gamma) is a sweep block of 8192 rows and one of 1
CHUNK_EDGE_GRID = ("sweep", "--theta", "0:3.14:8193", "--gamma", "0:0.1:2", "--n", "0,2")
PINNED_TABLES = dict(
    [
        (PINNED_GRID, "64decb267d8f6b4cd9cc2992ae3eef5b881f35dd9d91aa98b4df7604ff9ea3d3"),
        (
            PINNED_GRID + ("--format", "jsonl"),
            "945c7906d2e3287429ba0899dde8b29aff448b292c79db795acf11b1dedaf5a6",
        ),
        (("fig2",), "10357bcde748d6090c7bc3135a69589ce1de3f2e6fa14fb8494d9e03f5b2f4c6"),
        (CRITICAL_GRID, "94e7e109b0ffdc443ffe4525bf41052aa31100395bc174a4c9fc8d16a81dbdac"),
        (
            CRITICAL_GRID + ("--format", "jsonl"),
            "e838b5fed75ef2a573213a40318bc23af30e426430690f9e9472815cc8f69abd",
        ),
        (UNDERFLOW_GRID, "80f8d64695da41c1ef630d9fb9d965eb1c8ef08c8045f5288687dd1a60cc1bab"),
        (
            UNDERFLOW_GRID + ("--format", "jsonl"),
            "51c06dc8adb4956b1e0516ed17f30c8ee886fbcc8a55e8ef9e1b70381a21ea26",
        ),
        (CHUNK_EDGE_GRID, "e4de5d220977fa1d03ffd39c32f3a09700f45c8ebd8a33c1781f0092bd74f668"),
        (
            CHUNK_EDGE_GRID + ("--format", "jsonl"),
            "613478aca7d016b7c6f07ce9a19bf595def296dfbcc5db3fdd6cf0ee997784e5",
        ),
    ]
)


@pytest.mark.parametrize(("argv", "digest"), PINNED_TABLES.items())
def test_table_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the stdout tables written before sweep output became columnar;
    # the grid holds theta = 0 and pi, gamma = 0 and > 0, and the n = 0 control.
    # The chunk-edge tables were written while each (n, gamma) block still
    # ran its kernels over the whole theta grid
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("chunk", [1, 3, 4099])
def test_table_bytes_do_not_depend_on_the_sweep_chunk(capsys, monkeypatch, chunk):
    monkeypatch.setattr(sweeps, "_CHUNK_ROWS", chunk)
    for grid in (PINNED_GRID, CRITICAL_GRID, UNDERFLOW_GRID):
        for argv in (grid, grid + ("--format", "jsonl")):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == PINNED_TABLES[argv]


def test_no_sweep_kernel_call_sees_more_than_a_chunk(monkeypatch, tmp_path):
    # each kernel call gets at most 8192 thetas, and the calls of each
    # (n, gamma), and each gamma's battery calls, cover the grid in order
    seen = {}
    for name in ("protocol_lg", "battery_eps"):

        def wrapped(thetas, *args, real=getattr(_kernels, name), name=name):
            n = args[0] if name == "protocol_lg" else None
            seen.setdefault((name, n, args[-2].tobytes()), []).append(thetas.copy())
            return real(thetas, *args)

        monkeypatch.setattr(_kernels, name, wrapped)
    argv = ["sweep", "--theta", "0:3.14:20001", "--gamma", "0:0.01:2", "--n", "0,1"]
    assert main([*argv, "--out", str(tmp_path / "t.csv")]) == 0
    grid = np.linspace(0.0, 3.14, 20001)
    assert sorted((name, n) for name, n, _ in seen) == [
        ("battery_eps", None), ("battery_eps", None), *[("protocol_lg", n) for n in (0, 0, 1, 1)]
    ]
    for calls in seen.values():
        assert [len(thetas) for thetas in calls] == [8192, 8192, 3617]
        assert np.concatenate(calls).tobytes() == grid.tobytes()


ADROIT_GRID = ("adroitness", "--theta", "0:3.141592653589793:5", "--gamma", "0:0.01:3")
MULTI_BLOCK = ("adroitness", "--theta", f"0:{PI_TEXT}:3", "--gamma", "0:0.01:2")
MULTI_BLOCK += ("--shots", "70000", "--seed", "5")
# exact blocks of 8500 rows, which cross the 8192-row chunk edge, and sampled
# blocks of 100 rows: (CSV, JSONL) sha256 of the tables written while each
# adroitness block was still made theta by theta as row tuples
ADROIT_LONG = ("adroitness", "--theta", "0:3.14:1700", "--gamma", "0:0.01:2")
ADROIT_SAMPLED = ("adroitness", "--theta", "0:3.14:20", "--gamma", "0:0.01:2")
ADROIT_SAMPLED += ("--shots", "50", "--seed", "4")
ADROIT_COLUMN_DIGESTS = {
    ADROIT_LONG: (
        "b9f2208e7236faa51eb0c7ccba52ae300f40cdacca75239561db2c16b9eb7c1b",
        "ce790338a579aa6099da709a12c5ea612dcda05c7c840bace62a3e257450aa65",
    ),
    ADROIT_SAMPLED: (
        "5acfc484186f036283d6fe87858b9c0f2be112ff4d81159ceb319a70f8dc19c1",
        "7d2b1a5f46422ac94c14ab1f81848f3524586568fe677c1958a64c1939b39b10",
    ),
}


ADROIT_TABLES = dict(
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
        *(
            (MULTI_BLOCK + fmt, digest)
            for fmt, digest in (
                ((), "860a99fe370a5ecd5208d6a956228019807a9a24e1bd9b57609f0c6d47eff8a1"),
                (
                    ("--format", "jsonl"),
                    "a416139c6ae39811ef3e7ffa8ed00b2b466bbb40d29259c0145ccb95fdde8d61",
                ),
            )
        ),
        *(
            (argv + fmt, digest)
            for argv, digests in ADROIT_COLUMN_DIGESTS.items()
            for fmt, digest in zip(((), ("--format", "jsonl")), digests)
        ),
    ]
)


@pytest.mark.parametrize(("argv", "digest"), ADROIT_TABLES.items())
def test_adroitness_bytes_are_pinned(capsys, argv, digest):
    # sha256 of the stdout tables written while the CLI still evaluated the
    # battery one (theta, gamma) cell at a time through joint_distribution,
    # and (the seeded JSONL one) before every table went through one block
    # renderer; the grids hold theta = 0, pi, negative and > 2*pi, gamma = 0
    # and > 0, m > 1 with omega != 1, and seeded Monte Carlo tables.  The
    # multi-block tables were written while each sampled run still drew its
    # own int8 records: 70000 shots cross the 2**16-shot block edge, and at
    # gamma = 0, theta = 0 and pi give p(+1) = 1 cut-offs
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def settle_nothing(values):
    """``_g17_fast`` with its fast path off: every cell is left to %."""
    return np.zeros((len(values), tables._G17_WIDTH), np.uint8), np.zeros(len(values), bool)


@pytest.mark.parametrize("path", ["columns", "percent"])
def test_csv_table_bytes_hold_on_both_formatter_paths(capsys, monkeypatch, path):
    # every chunk of a CSV sweep or adroitness block is formatted by columns,
    # even one row; with the fast path off, % writes every cell into the
    # column matrix
    monkeypatch.setattr(tables, "_G17_ROWS", 1)
    if path == "percent":
        monkeypatch.setattr(tables, "_g17_fast", settle_nothing)
    sizes = []
    real = tables._csv_lines
    monkeypatch.setattr(tables, "_csv_lines", lambda *a: sizes.append(len(a[2][0])) or real(*a))
    for argv, digest in [*PINNED_TABLES.items(), *ADROIT_TABLES.items()]:
        if "jsonl" not in argv:
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
    # sweep blocks of 1, 9 and 8192 rows, and adroitness chunks of 25, 100,
    # 8192 and 308 rows
    assert {1, 9, 8192, 25, 100, 308} <= set(sizes)


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


def test_read_table_names_a_file_that_is_not_utf8(tmp_path):
    p = tmp_path / "latin.csv"
    p.write_bytes("# lgsim classic\n# config omega=\xb5\n".encode("latin-1"))
    with pytest.raises(ValueError) as info:
        read_table(p)
    assert str(info.value).startswith(f"{p}: not UTF-8: 'utf-8' codec can't decode byte 0xb5")
    assert "\n" not in str(info.value)


@pytest.mark.parametrize(
    "argv",
    [("fig2",), ("fig3", "--theta", "2:3:3", "--gamma", "0:0.01:2", "--format", "jsonl")],
)
def test_read_table_skips_a_byte_order_mark(tmp_path, capsys, argv):
    # some editors save UTF-8 text with a leading BOM; it is not part of the
    # first line, so a CSV table keeps its command and a JSONL one its meta
    plain, marked = tmp_path / "plain.table", tmp_path / "marked.table"
    assert run(capsys, *argv, "--out", str(plain))[0] == 0
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    meta, rows = read_table(plain)
    assert meta["command"] == argv[0] and rows
    assert read_table(marked) == (meta, rows)


def test_read_table_rejects_garbage(tmp_path):
    p = tmp_path / "broken.csv"
    p.write_text("")
    with pytest.raises(ValueError, match="empty table"):
        read_table(p)
    p.write_text("# lgsim sweep\n")
    with pytest.raises(ValueError, match="no header"):
        read_table(p)
    p.write_text("a,b\n1,2\n")  # no "# lgsim COMMAND" line, so no schema
    with pytest.raises(ValueError, match="not an lgsim table \\(command None\\)"):
        read_table(p)
    p.write_text("# lgsim nothing\nc12\n")
    with pytest.raises(ValueError, match="not an lgsim table \\(command 'nothing'\\)"):
        read_table(p)
    p.write_text("# lgsim classic\nc12,c23,c13_prime,lg_quantity,verdict\n1,2,3\n")
    with pytest.raises(ValueError, match="row has 3 cells, header has 5"):
        read_table(p)
    p.write_text('{"c12": 1}\n')
    with pytest.raises(ValueError, match="the first line is not the meta object"):
        read_table(p)
    # a meta or a row of the wrong JSON type names its line, blank lines counted
    meta = "meta is not an object with a string command, object config, list summary"
    for first in (
        '{"meta": 5}',
        '{"meta": null}',
        '{"meta": {"command": ["x"]}}',
        '{"meta": {"command": "sweep", "config": []}}',
        '{"meta": {"command": "sweep", "summary": {}}}',
    ):
        p.write_text(f"\n{first}\n")
        with pytest.raises(ValueError) as exc:
            read_table(p)
        assert str(exc.value) == f"{p}: line 2: {meta}"
    header = json.dumps({"meta": {"command": "classic"}})
    row = json.dumps(dict.fromkeys(tables.SCHEMAS["classic"], 1.0))
    for bad in ("[1, 2]", "null", "5", '"row"'):
        p.write_text(f"{header}\n{row}\n\n{bad}\n")
        with pytest.raises(ValueError) as exc:
            read_table(p)
        assert str(exc.value) == f"{p}: line 4: a row is not a JSON object"
    # a truncated meta or row is not JSON: it names its line too
    for text, where in (
        (
            f'{header}\n{row}\n{{"theta": 1,\n',
            "line 3: not JSON at column 13 (Expecting property name enclosed in double quotes)",
        ),
        (
            '\n{"meta": {"command": "classic"\n',
            "line 2: not JSON at column 31 (Expecting ',' delimiter)",
        ),
    ):
        p.write_text(text)
        with pytest.raises(ValueError) as exc:
            read_table(p)
        assert str(exc.value) == f"{p}: {where}"


CLASSIC_HEAD = "# lgsim classic\n# config omega=1\n# a summary\n"
CLASSIC_ROWS = ",".join(tables.SCHEMAS["classic"]) + "\n1,2,3,4,no_violation\n"
META = '{"meta": {"command": "classic", "config": {"n": "1"}, "summary": []}}'
ROW = json.dumps(dict(zip(tables.SCHEMAS["classic"], (1.0, 2.0, 3.0, 4.0, "no_violation"))))


LATE = "a comment line after the header"
NOT_FIRST = "a '# lgsim' line that is not the first"
CUT = "no line break at its end, so the table is cut short"


@pytest.mark.parametrize(
    "text, where",
    [
        # a command line after the rows would name another command's schema
        (CLASSIC_HEAD + CLASSIC_ROWS + "# lgsim sweep\n", f"line 6: {LATE}"),
        (CLASSIC_HEAD + CLASSIC_ROWS + "\n# a summary\n", f"line 7: {LATE}"),
        ("\n# config omega=1\n# lgsim classic\n" + CLASSIC_ROWS, f"line 3: {NOT_FIRST}"),
        ("# lgsim classic\n# lgsim sweep\n" + CLASSIC_ROWS, f"line 2: {NOT_FIRST}"),
        ("# lgsim classic\n# config omega\n" + CLASSIC_ROWS, "line 2: a config line with no '='"),
        (
            "# lgsim classic\n# config omega=1\n\n# config omega=2\n" + CLASSIC_ROWS,
            "line 4: config key 'omega' given twice",
        ),
        (
            CLASSIC_HEAD + "# config out=\n" + CLASSIC_ROWS,
            "line 4: a config line after a summary line",
        ),
        (CLASSIC_HEAD + CLASSIC_ROWS[:-9], f"line 5: {CUT}"),
        (CLASSIC_HEAD + CLASSIC_ROWS + "  ", f"line 6: {CUT}"),
        # a JSONL row without its line break is as cut short as a CSV one
        (f"{META}\n\n{ROW}", f"line 3: {CUT}"),
        (
            META.replace('"classic"', '"classic", "command": "fig2"') + "\n",
            "line 1: meta repeats the key 'command'",
        ),
        ("\n" + META.replace('"1"', '"1", "n": "2"') + "\n", "line 2: meta repeats the key 'n'"),
        # a header line among the rows would read as a row of column names
        (CLASSIC_HEAD + CLASSIC_ROWS + "\n" + CLASSIC_ROWS, "line 7: a second header line"),
        # a repeated key would keep its last value, also in a row where a
        # space stands before one key's colon
        (f'{META}\n{ROW}\n{ROW[:-1]}, "c12": 5.0}}\n', "line 3: a row repeats the key 'c12'"),
        (
            META + "\n" + ROW.replace('"c23":', '"c23" :')[:-1] + ', "verdict": "x"}\n',
            "line 2: a row repeats the key 'verdict'",
        ),
    ],
)
def test_read_table_refuses_a_line_out_of_the_grammar(tmp_path, text, where):
    p = tmp_path / "table"
    p.write_bytes(text.encode("utf-8"))
    with pytest.raises(ValueError) as exc:
        read_table(p)
    assert str(exc.value) == f"{p}: {where}"


def test_jsonl_rows_padded_with_whitespace_read_back_as_unpadded(tmp_path, capsys):
    table = tmp_path / "grid.jsonl"
    assert run(capsys, *SWEEP_ARGS, "--format", "jsonl", "--out", str(table))[0] == 0
    want = read_table(table)
    lines = table.read_text().splitlines()
    padded = tmp_path / "padded.jsonl"
    pads = [(" ", ""), ("", "\t"), (" \t", "\t  ")]
    lines[1:] = [pads[k % 3][0] + ln + pads[k % 3][1] for k, ln in enumerate(lines[1:])]
    padded.write_text("\n".join(lines) + "\n")
    assert read_table(padded) == want
    assert records_from_rows(read_table(padded)[1]) == records_from_rows(want[1])


def test_an_empty_jsonl_string_reads_as_none(tmp_path, capsys):
    table = tmp_path / "grid.jsonl"
    assert run(capsys, *SWEEP_ARGS, "--format", "jsonl", "--out", str(table))[0] == 0
    meta, rows = read_table(table)
    lines = table.read_text().splitlines()
    obj = json.loads(lines[1 + CORRUPT_ROW])
    lines[1 + CORRUPT_ROW] = json.dumps({**obj, "verdict": "", "c12": ""})
    table.write_text("\n".join(lines) + "\n")
    rows[CORRUPT_ROW] = {**rows[CORRUPT_ROW], "verdict": None, "c12": None}
    assert read_table(table) == (meta, rows)


def test_the_first_faulty_jsonl_line_is_the_one_reported(tmp_path, capsys):
    table = tmp_path / "grid.jsonl"
    assert run(capsys, *SWEEP_ARGS, "--format", "jsonl", "--out", str(table))[0] == 0
    meta, first, second, *_ = table.read_text().splitlines()
    p = tmp_path / "bad.jsonl"
    # a second object on a row's line is extra data, as json.loads says
    p.write_text(f"{meta}\n{first}\n{first} {second}\n")
    with pytest.raises(ValueError) as exc:
        read_table(p)
    assert str(exc.value) == f"{p}: line 3: not JSON at column {len(first) + 2} (Extra data)"
    # a non-object row at line 3 is reported before a truncated row at line 5
    p.write_text(f"{meta}\n{first}\n[1, 2]\n{second}\n{second[:20]}\n")
    with pytest.raises(ValueError) as exc:
        read_table(p)
    assert str(exc.value) == f"{p}: line 3: a row is not a JSON object"
    # wrong keys at line 3 are reported before a truncated row at line 4
    p.write_text(f'{meta}\n{first}\n{{"theta": 1.0}}\n{second[:20]}\n')
    with pytest.raises(ValueError) as exc:
        read_table(p)
    assert str(exc.value) == f"{p}: sweep table has no column 'gamma'; expected {','.join(SWEEP)}"


def test_an_n_is_parsed_once_per_type_and_value(tmp_path, capsys):
    table = tmp_path / "grid.jsonl"
    assert run(capsys, *SWEEP_ARGS, "--format", "jsonl", "--out", str(table))[0] == 0
    _, rows = read_table(table)
    late = 20  # rows 14 to 27 are the n = 1 blocks
    assert rows[14]["n"] == rows[late]["n"] == 1
    assert records_from_rows([]) == []
    # 1.0 and True equal the 1 before them, but are no n; an n cell is read
    # only as the writer writes it, so no sign, padding, underscore, leading
    # zero or non-ASCII digit
    for value in (1.0, [1], "x", True, " 1", "+1", "01", "\u0661", "1_0"):
        bad = [dict(row) for row in rows]
        bad[late]["n"] = value
        with pytest.raises(ValueError) as exc:
            records_from_rows(bad)
        assert str(exc.value) == f"n must be a nonnegative integer, got {value}"
    # the first bad row raises first, whatever comes after it
    bad = [dict(row) for row in rows]
    for k in range(3, len(bad)):
        bad[k]["n"] = -k
    with pytest.raises(ValueError, match="got -3$"):
        records_from_rows(bad)
    bad[late]["n"] = [1]
    with pytest.raises(ValueError, match="got -3$"):
        records_from_rows(bad)
    mixed = [dict(row) for row in rows]
    for row in mixed[::2]:
        row["n"] = str(row["n"])  # decimal text is an n too
    assert records_from_rows(mixed) == records_from_rows(rows)


COLUMN_CHANGES = {
    "renamed": (lambda names: ["c24" if c == "c23" else c for c in names], "unknown column 'c24'"),
    "missing": (lambda names: [c for c in names if c != "c23"], "no column 'c23'"),
    "extra": (lambda names: [*names, "note"], "unknown column 'note'"),
}


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("change", sorted(COLUMN_CHANGES))
def test_read_table_refuses_columns_that_differ_from_the_schema(tmp_path, capsys, fmt, change):
    # a CSV header, or the keys of one JSONL row, renamed, cut short or extended
    table = tmp_path / f"grid.{fmt}"
    assert run(capsys, *SWEEP_ARGS, "--format", fmt, "--out", str(table))[0] == 0
    rename, problem = COLUMN_CHANGES[change]
    lines = table.read_text().splitlines()
    if fmt == "csv":
        header = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
        lines[header] = ",".join(rename(lines[header].split(",")))
    else:
        obj = json.loads(lines[1 + CORRUPT_ROW])
        lines[1 + CORRUPT_ROW] = json.dumps({k: obj.get(k, 0.0) for k in rename(list(obj))})
    table.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError) as exc:
        read_table(table)
    assert str(exc.value) == f"{table}: sweep table has {problem}; expected {','.join(SWEEP)}"


def test_read_table_checks_csv_column_order_and_reads_jsonl_keys_in_any_order(tmp_path, capsys):
    expected = ",".join(SWEEP)
    for header, problem in (
        (expected.replace("c12,c23", "c23,c12"), "column 'c23' where 'c12' belongs"),
        (expected.replace("c12,", "c23,"), "column 'c23' more than once"),
    ):
        p = tmp_path / "grid.csv"
        p.write_text(f"# lgsim fig2\n{header}\n")
        with pytest.raises(ValueError) as exc:
            read_table(p)
        assert str(exc.value) == f"{p}: fig2 table has {problem}; expected {expected}"
    table = tmp_path / "grid.jsonl"
    assert run(capsys, *SWEEP_ARGS, "--format", "jsonl", "--out", str(table))[0] == 0
    want = records_from_rows(read_table(table)[1])
    lines = table.read_text().splitlines()
    lines[1:] = [json.dumps(dict(reversed(json.loads(ln).items()))) for ln in lines[1:]]
    table.write_text("\n".join(lines) + "\n")
    assert records_from_rows(read_table(table)[1]) == want


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


def test_a_later_blocks_propagator_failure_writes_nothing(capsys):
    # the second block's 5*tau propagator fails; every propagator is built
    # before the header goes out
    err = expect_error(capsys, "sweep", "--theta", "1:1:1", "--gamma", "0:1e37:2", "--n", "1")
    assert err == (
        "lgsim: error: propagator for gamma=1e+37, omega=1.0, t=15.707963267948966 failed "
        "CPTP validation: transfer matrix contains non-finite entries"
    )


# ---------------------------------------------------------------------------
# the lgsim program: BLAS on one thread

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def start_program(tmp_path, preset, entry):
    """Start ``ENTRY_PROGRAM`` through ``entry``, in a fresh interpreter whose
    only BLAS thread variables are ``preset``; it writes a damped fig3 table."""
    src = str(Path(lgsim.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k not in BLAS_THREAD_VARS}
    env.update(preset, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.Popen(
        [sys.executable, "-c", ENTRY_PROGRAM, str(tmp_path / "fig3.csv"), entry],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def finish_program(proc):
    """Wait for a ``start_program`` interpreter and read what it reports."""
    out, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    got = json.loads(out)
    assert got["rc"] == 0 and got["scipy"]  # the command built damped propagators
    return got


# the program's entry points, each run as it runs: the console script calls
# lgsim.__main__:main, and python -m runs a module as __main__
ENTRY_PROGRAM = """
import json, os, runpy, sys
out, entry = sys.argv[1:]
sys.argv = ["lgsim", "fig3", "--theta", "0:3.14:5", "--gamma", "0:0.02:3", "--out", out]

def run():
    if entry == "lgsim.__main__:main":
        from lgsim.__main__ import main
        return main()
    try:
        runpy.run_module(entry, run_name="__main__")
    except SystemExit as exc:
        return exc.code

rc = run()
tasks = "/proc/self/task"
print(json.dumps({
    "rc": rc,
    "scipy": "scipy.linalg" in sys.modules,
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
    "env": {k: os.environ.get(k) for k in %r},
}))
""" % (BLAS_THREAD_VARS,)

ENTRIES = ("lgsim.cli", "lgsim", "lgsim.__main__:main")
ONE_THREAD = [
    *((entry, {}) for entry in ENTRIES),
    ("lgsim.cli", dict.fromkeys(BLAS_THREAD_VARS, "")),
]
USER_SET = [(entry, {var: "2"}) for entry, var in zip(ENTRIES, BLAS_THREAD_VARS)]


@pytest.fixture(scope="module")
def programs(tmp_path_factory):
    """Every case's interpreter, started at once; a case waits for its own.

    Each case needs a fresh interpreter, as OpenBLAS reads its thread count
    when it loads, but none needs another's to have finished.
    """
    procs = {
        (entry, *preset.items()): start_program(tmp_path_factory.mktemp("program"), preset, entry)
        for entry, preset in [*ONE_THREAD, *USER_SET]
    }
    yield lambda entry, preset: finish_program(procs[(entry, *preset.items())])
    for proc in procs.values():
        with proc:  # closes its pipes and reaps it
            proc.kill()  # a no-op once it has exited


@pytest.mark.parametrize(("entry", "preset"), ONE_THREAD, ids=[*ENTRIES, "lgsim.cli-empty-values"])
def test_every_program_entry_runs_blas_on_one_thread(programs, entry, preset):
    # pinned before numpy loads, so neither numpy's BLAS nor scipy's starts a
    # worker; an empty value chooses nothing, so it is pinned as an unset one is
    got = programs(entry, preset)
    assert got["env"] == {**dict.fromkeys(BLAS_THREAD_VARS), **preset, "OPENBLAS_NUM_THREADS": "1"}
    if got["threads"] is None:
        pytest.skip("no /proc/self/task to count this process's threads")
    assert got["threads"] == 1


@pytest.mark.parametrize(("entry", "var"), zip(ENTRIES, BLAS_THREAD_VARS))
def test_every_program_entry_keeps_a_thread_count_the_user_set(programs, entry, var):
    got = programs(entry, {var: "2"})
    assert got["env"] == {k: "2" if k == var else None for k in BLAS_THREAD_VARS}


@pytest.mark.parametrize(
    "launcher",  # each entry as an interpreter's arguments, before the command's
    [
        ("-m", "lgsim.cli"),
        ("-m", "lgsim"),
        ("-c", "import sys; from lgsim.__main__ import main; sys.exit(main())"),
    ],
    ids=ENTRIES,
)
def test_a_reader_that_leaves_early_ends_the_program_quietly(launcher):
    # as `lgsim sweep ... | head -1` does: the table is far larger than a pipe
    # holds, so a write meets the closed pipe; nothing reaches stderr
    src = str(Path(lgsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    argv = [sys.executable, *launcher, "sweep", "--theta", "0:3:20000"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"# lgsim sweep\n"
        proc.stdout.close()
        assert proc.wait(timeout=60) == 1
        assert proc.stderr.read() == b""


def test_a_broken_pipe_reaches_the_caller_of_main(monkeypatch):
    # main only runs a command; the program ends a run whose reader left
    # early, so a caller in process gets the error and keeps its fd 1
    read_end, write_end = os.pipe()
    os.close(read_end)
    pipe = open(write_end, "w", encoding="utf-8")
    monkeypatch.setattr(sys, "stdout", pipe)
    fd1 = os.fstat(1)
    try:
        with pytest.raises(BrokenPipeError):
            main(["sweep", "--theta", "0:3:20000"])
        assert stat.S_ISFIFO(os.fstat(write_end).st_mode)  # not swapped for devnull
        assert os.path.samestat(os.fstat(1), fd1)
    finally:
        try:
            pipe.close()  # closes the pipe, though its flush meets the closed end too
        except BrokenPipeError:
            pass


@pytest.mark.parametrize("encoding", ["latin-1", "ascii"])
def test_stdout_gets_the_out_file_bytes_whatever_its_encoding(tmp_path, encoding):
    # a numeric flag takes Unicode digits, and its config line echoes them as
    # given, so the table is not ASCII; stdout still gets its UTF-8 bytes
    src = str(Path(lgsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    env["PYTHONIOENCODING"] = encoding
    argv = [sys.executable, "-m", "lgsim.cli", "sweep", "--theta", "\uff10:\uff10:1"]
    target = tmp_path / "table.csv"
    piped = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert (piped.returncode, piped.stderr) == (0, b"")
    assert subprocess.run([*argv, "--out", str(target)], env=env, timeout=60).returncode == 0
    table = piped.stdout.decode("utf-8")
    assert "\n# config theta=\uff10:\uff10:1\n" in table
    assert target.read_bytes() == out_echo(table, target).encode("utf-8")


def test_main_with_arguments_leaves_the_environment_alone(monkeypatch, capsys, tmp_path):
    # so does main() on sys.argv: only the program's entry points pin
    for var in BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    before = dict(os.environ)
    argv = ["fig3", "--theta", "0:3.14:5", "--gamma", "0:0.02:3", "--out", str(tmp_path / "f.csv")]
    assert main(argv) == 0
    assert dict(os.environ) == before
    monkeypatch.setattr(sys, "argv", ["lgsim", *argv])
    assert main() == 0
    assert dict(os.environ) == before
