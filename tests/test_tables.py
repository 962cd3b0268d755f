"""The CSV column formatter: ``tables._g17`` writes what ``"%.17g" % v`` writes;
and the CSV reader: ``read_table`` reads what the one-comprehension oracle reads."""

import math
import struct
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lgsim import tables
from oracles import read_csv_table


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


# cells, none of them a comma or a line break; a FULL cell is never empty
FULL = st.sampled_from(["0", "-0", "1.5", "3.1415926535897931", "1e-300", "a", " x ", "é"])
CELLS = st.one_of(FULL, st.just(""))
COMMENTS = st.sampled_from(
    ["# config theta=0:1:2", "# config out=", "#config k=1=2", "# a summary", "#", "# lgsim sweep"]
)
BLANKS = st.sampled_from(["", " ", "\t", "  \t "])


def row_of(width):
    """A row of ``width`` cells, either none of them empty or any of them."""
    return st.one_of(
        st.lists(FULL, min_size=width, max_size=width),
        st.lists(CELLS, min_size=width, max_size=width),
    ).map(",".join)


@st.composite
def csv_tables(draw):
    """A CSV table's text: comment, blank and whitespace-only lines before and
    after the header, rows with and without empty cells, now and then a row one
    cell short or long or a header the schema refuses, and LF or CRLF ends."""
    command = draw(st.sampled_from(sorted(tables.SCHEMAS)))
    header = list(tables.SCHEMAS[command])
    if draw(st.integers(0, 9)) == 0:
        header = header[::-1]
    width = len(header)
    rows = st.sampled_from([width] * 18 + [width - 1, width + 1]).flatmap(row_of)
    lines = [
        *draw(st.lists(BLANKS, max_size=2)),
        f"# lgsim {command}",
        *draw(st.lists(st.one_of(COMMENTS, BLANKS), max_size=4)),
        ",".join(header),
        *draw(st.lists(st.one_of(rows, rows, rows, COMMENTS, BLANKS), max_size=30)),
    ]
    ends = st.lists(st.sampled_from(["\n", "\r\n"]), min_size=len(lines), max_size=len(lines))
    text = "".join(map(str.__add__, lines, draw(ends)))
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def parsed(read, path):
    """``read``'s (meta, rows) with every dict's key order, or its error."""
    try:
        meta, rows = read(path)
    except ValueError as exc:
        return type(exc), str(exc)
    return meta, list(meta["config"].items()), [list(row.items()) for row in rows]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(csv_tables())
@example(
    "# lgsim adroitness\r\n# config shots=0\n\n"
    "experiment,theta,gamma,tau,omega,epsilon,epsilon_mc,epsilon_mc_se\r\n"
    "a,0,0,3.1415926535897931,1,0,0.5,0.01\n \t\n"
    "total,0,0,3.1415926535897931,1,0,,\n# a summary line\n"
    ",0,0,3.1415926535897931,1,0,0.5,\r\n"
    "b,0,0,3.1415926535897931,1,0,0.5\n"
)
def test_read_table_reads_csv_as_the_one_comprehension_oracle_does(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_bytes(text.encode("utf-8"))
        assert parsed(tables.read_table, path) == parsed(read_csv_table, path)
