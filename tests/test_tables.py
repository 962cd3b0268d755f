"""The CSV column formatter: ``tables._g17`` writes what ``"%.17g" % v`` writes;
and the reader: ``read_table`` reads what the grammar oracles read, from
generated CSV text and from real tables with one line moved, repeated,
dropped or cut."""

import math
import random
import struct
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgsim import tables
from lgsim.cli import main
from oracles import read_csv_table, read_jsonl_table


def cells(values):
    """Each row of ``_g17``'s matrix as the text it holds."""
    out = tables._g17(np.array(values, dtype=np.float64))
    assert out.shape == (len(values), tables._G17_WIDTH) and out.dtype == np.uint8
    return [row.tobytes().translate(None, b"\0").decode("ascii") for row in out]


def percent(values):
    return ["%.17g" % v for v in np.array(values, dtype=np.float64).tolist()]


def powers_of_ten():
    """The double nearest each 10**k that a double can be near, and its two
    neighbours."""
    nearest = np.array([float(f"1e{k}") for k in range(-323, 309)])
    return np.concatenate([nearest, np.nextafter(nearest, 0.0), np.nextafter(nearest, np.inf)])


def rounding_up_to_a_power():
    """Doubles below 10**k whose 17 digits round up to 1.0000000000000000e(k)."""
    return [
        x
        for k in range(-307, 309)
        for x in (float(f"1e{k}"), float(np.nextafter(float(f"1e{k}"), 0.0)))
        if Fraction(10) ** k > x >= Fraction(2 * 10**17 - 1, 2) / Fraction(10) ** (17 - k)
    ]


TIE = 2251799813685247.75  # its 17 digits end in an exact half: 22517998136852477|5
EDGES = [
    0.0,
    -0.0,
    5e-324,
    2.225073858507201e-308,  # the largest subnormal
    sys.float_info.min,
    sys.float_info.max,
    # the %g switch points: 1e-5 and 1e17 are written with an exponent,
    # 1e-4 and 1e16 without
    1e-5,
    1e-4,
    1e16,
    1e17,
    TIE,
    0.5,
    123.456,
    1234567890123456.7,
    99999999999999.99,
    9.999999999999999e16,
]


def test_pinned_edge_values_are_written_as_percent_writes_them():
    values = np.concatenate([EDGES, powers_of_ten(), rounding_up_to_a_power()])
    values = np.concatenate([values, -values])
    assert cells(values) == percent(values)


def test_the_fast_path_and_the_percent_path_both_run():
    ups = rounding_up_to_a_power()
    # the fast range's: 1e-243, 1e-176, 1e-175, 1e-174, 1e-79, ..., 1e-14, ...
    inside = [x for x in ups if 1e-280 <= x < 1e280]
    assert len(inside) >= 5
    fast = [0.0, -0.0, 1.5, -0.1, 1e-5, 1e-4, 1e16, 1e17, 123.456, 1e-280, *inside]
    slow = [5e-324, sys.float_info.max, 1e-281, 1e280, TIE, -TIE, math.inf, -math.inf, math.nan]
    values = np.array(fast + slow)
    _, settled = tables._g17_fast(values)
    assert settled.tolist() == [True] * len(fast) + [False] * len(slow)
    assert cells(values) == percent(values)


def test_many_values_are_written_as_percent_writes_them():
    rng = np.random.default_rng(17)
    bits = rng.integers(0, 2**64, 10000, dtype=np.uint64).view(np.float64)
    mantissas = rng.integers(1, 10**6, 200).tolist()
    short = [float(f"{m}e{e}") for m in mantissas for e in range(-22, 22, 3)]
    values = np.concatenate([
        bits[np.isfinite(bits)],
        rng.random(5000) * 3.2,  # a theta grid's range
        rng.random(5000) * 10.0**rng.integers(-30, 30, 5000),
        short,
        rng.integers(-(2**53), 2**53, 2000).astype(float),
        rng.integers(1, 2**20, 2000) / 2.0 ** rng.integers(0, 70, 2000),  # dyadic, with ties
    ])
    values = np.concatenate([values, -values])
    assert cells(values) == percent(values)


finite_float = st.one_of(
    st.integers(0, 2**64 - 1)
    .map(lambda bits: struct.unpack("<d", bits.to_bytes(8, "little"))[0])
    .filter(math.isfinite),
    st.floats(allow_nan=False, allow_infinity=False),
)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(finite_float, min_size=1, max_size=50))
def test_any_finite_values_are_written_as_percent_writes_them(values):
    assert cells(values) == percent(values)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    """The one directory a test's tables are written to, example by example."""
    return tmp_path_factory.mktemp("tables")


# cells, none of them a comma or a line break; the last one is empty
CELLS = ["0", "-0", "1.5", "3.1415926535897931", "1e-300", "a", " x ", "é", ""]
# comment lines, each config line with its own key; "#  lgsim" and "#configure"
# are summary lines
CONFIGS = st.sampled_from(
    ["# config theta=0:1:2", "# config out=", "#config k=1=2", "#  config n=1,2 "]
)
SUMMARIES = st.sampled_from(["# a summary", "#", "#  lgsim", "#configure", "# gamma=0.5"])
# a comment line that some places refuse: a second command, a repeated or a
# bare config key, a summary line among rows
STRAYS = st.sampled_from(["# lgsim sweep", "# config theta=1", "# config omega", "# a summary"])
BLANKS = st.sampled_from(["", " ", "\t", "  \t "])


def row_of(seed: int, width: int) -> str:
    """The row that ``seed`` picks: ``width`` cells, or one fewer or more in 2
    rows of 20; either none of them empty or any of them."""
    rng = random.Random(seed)
    width += rng.choice([0] * 18 + [-1, 1])
    return ",".join(rng.choices(CELLS[: rng.choice([-1, None])], k=width))


@st.composite
def csv_tables(draw):
    """A CSV table's text by the grammar: the command line, config and summary
    lines, the header, rows with and without empty cells, blank and
    whitespace-only lines anywhere, and LF or CRLF ends.  Now and then it
    breaks a rule: a row one cell short or long, a header the schema refuses,
    a comment line out of its place, or no line break at the end.  A row, and
    the ends of all lines, are one draw each."""
    command = draw(st.sampled_from(sorted(tables.SCHEMAS)))
    header = list(tables.SCHEMAS[command])
    if draw(st.integers(0, 9)) == 0:
        header = header[::-1]
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), max_size=30))
    lines = [
        f"# lgsim {command}",
        *draw(st.lists(CONFIGS, max_size=3, unique=True)),
        *draw(st.lists(SUMMARIES, max_size=2)),
        ",".join(header),
        *(row_of(seed, len(header)) for seed in seeds),
    ]
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(STRAYS))
    for blank in draw(st.lists(BLANKS, max_size=3)):
        lines.insert(draw(st.integers(0, len(lines))), blank)
    crlf = draw(st.integers(0, 2 ** len(lines) - 1))
    text = "".join(ln + ("\r\n" if crlf >> k & 1 else "\n") for k, ln in enumerate(lines))
    return text.rstrip("\r\n") if draw(st.integers(0, 9)) == 0 else text


def parsed(read, path):
    """``read``'s (meta, rows) with every dict's key order, or its error."""
    try:
        meta, rows = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return meta, list(meta["config"].items()), [list(row.items()) for row in rows]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=csv_tables())
@example(
    text="# lgsim adroitness\r\n# config shots=0\n\n"
    "experiment,theta,gamma,tau,omega,epsilon,epsilon_mc,epsilon_mc_se\r\n"
    "a,0,0,3.1415926535897931,1,0,0.5,0.01\n \t\n"
    "total,0,0,3.1415926535897931,1,0,,\n# a summary line\n"
    ",0,0,3.1415926535897931,1,0,0.5,\r\n"
    "b,0,0,3.1415926535897931,1,0,0.5\n"
)
def test_read_table_reads_csv_as_the_one_comprehension_oracle_does(table_dir, text):
    path = table_dir / "generated.csv"
    path.write_bytes(text.encode("utf-8"))
    assert parsed(tables.read_table, path) == parsed(read_csv_table, path)


# small real tables of every command; both adroitness tables, so that one has
# empty Monte Carlo cells
REAL = {
    "fig2": ("fig2", "--theta", "0:3:3"),
    "fig3": ("fig3", "--theta", "0:3:2", "--gamma", "0:0.1:2"),
    "adroitness": ("adroitness", "--theta", "0:3:2", "--gamma", "0:0.1:2"),
    "adroitness_shots": ("adroitness", "--theta", "0:3:2", "--gamma", "0:0.1:2", "--shots", "100"),
    "classic": ("classic",),
    "sweep": ("sweep", "--theta", "0:3:3", "--gamma", "0:0.1:2", "--n", "0,1"),
}
ORACLES = {"csv": read_csv_table, "jsonl": read_jsonl_table}


@pytest.fixture(scope="module")
def real_tables(tmp_path_factory):
    """Each REAL table in each format, as its lines with their line breaks."""
    out = tmp_path_factory.mktemp("real")
    written = {}
    for name, argv in REAL.items():
        for fmt in ORACLES:
            path = out / f"{name}.{fmt}"
            assert main([*argv, "--format", fmt, "--out", str(path)]) == 0
            written[name, fmt] = path.read_text(encoding="utf-8").splitlines(keepends=True)
    return written


def test_real_tables_and_their_bom_and_crlf_copies_read_as_the_oracles_read_them(
    real_tables, table_dir
):
    for (name, fmt), lines in real_tables.items():
        path = table_dir / f"real.{fmt}"
        text = "".join(lines).encode("utf-8")
        path.write_bytes(text)
        want = parsed(ORACLES[fmt], path)
        assert want[0]["command"] == REAL[name][0] and want[2], (name, fmt)
        for copy in (text, b"\xef\xbb\xbf" + text, text.replace(b"\n", b"\r\n")):
            path.write_bytes(copy)
            assert parsed(tables.read_table, path) == want, (name, fmt)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    table=st.sampled_from([(name, fmt) for name in REAL for fmt in ORACLES]),
    how=st.sampled_from(["move", "duplicate", "drop", "cut"]),
    data=st.data(),
)
def test_a_mutated_table_is_refused_or_read_as_the_grammar_oracle_reads_it(
    real_tables, table_dir, table, how, data
):
    # a mutant may well be a table of the grammar, such as one with a summary
    # line dropped, so it is held to the oracle, not to the table it came from
    lines = list(real_tables[table])
    twice = False  # a second header or meta line, which both readers refuse
    if how == "cut":  # inside a line, which loses its line break at least
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k:] = [lines[k][: data.draw(st.integers(1, len(lines[k]) - 1))]]
    else:  # a comment line or the header of a CSV table, a JSONL table's meta
        head = next(k for k, ln in enumerate(lines) if ln[0] != "#")
        k = data.draw(st.integers(0, head))
        twice = how == "duplicate" and k == head
        line = lines[k] if how == "duplicate" else lines.pop(k)
        if how != "drop":
            lines.insert(data.draw(st.integers(0, len(lines))), line)
    fmt = table[1]
    path = table_dir / f"mutant.{fmt}"
    path.write_text("".join(lines), encoding="utf-8")
    got, want = parsed(tables.read_table, path), parsed(ORACLES[fmt], path)
    assert not twice or got[0] is want[0] is ValueError
    if got[0] is ValueError:
        assert got[1].startswith(f"{path}: ") and "\n" not in got[1]
        # the JSONL oracle refuses it too, but words its errors otherwise
        assert got == want if fmt == "csv" else isinstance(want[0], type)
        return
    assert got == want
    meta, _, rows = got
    schema = list(tables.SCHEMAS[meta["command"]])
    if fmt == "csv":  # the header the schema of meta's command checked
        assert next(ln for ln in lines if ln[0] != "#") == ",".join(schema) + "\n"
    assert all(sorted(k for k, _ in row) == sorted(schema) for row in rows)
