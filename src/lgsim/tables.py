"""The table format: one schema per command, the writer and the reader.

A schema maps each column name to its type, in column order, and both
directions use it; a sweep table's schema is ``SweepRecord``'s fields.  The
grammar of a table, in lines, each ending in its line break:

- CSV: ``# lgsim COMMAND``; one ``# config key=value`` per resolved key,
  each key once; the summary lines, which are any other ``#`` lines; the
  header; then one line per row, none of them equal to the header.
- JSONL: one ``{"meta": ...}`` object holding the same; then one object per
  row; no object repeats a key at any depth.

Blank lines may stand anywhere.

Every command hands the writer blocks of one shape: a block's fixed cells,
and its varying columns as equal-length arrays.  The writer pulls each
block from its iterable just before writing it, and renders it
``_CHUNK_ROWS`` rows at a time into one bytes object that ends in its
newline, so a table is held one block and one chunk at a time.  A sweep
block is one (n, gamma, theta chunk) of at most ``_CHUNK_ROWS`` rows, so it
renders as one.  A table is UTF-8 with ``\n`` line ends, the same bytes on
stdout and in an ``--out`` file whatever the locale.  CSV floats are %.17g,
so a float reads back bit for bit.  A CSV chunk of at least ``_G17_ROWS``
rows is rendered as one byte matrix whose float columns ``_g17`` formats
whole, in numpy, to the exact bytes % writes: a value it cannot settle (a
17-digit rounding within 1e-9 of a half, or outside 1e-280 <= |x| < 1e280
and not 0) is written by %.  Any other chunk is written by the block's row
%-template, with its fixed cells written in once.  JSONL floats are %r,
which is the text ``json.dumps`` writes for a finite float (and every
written float is checked to be finite).  Each block formats its own
columns, so no text outlives its chunk.  An ``--out`` file is written
beside its target and renamed over it only once the whole table is written.

``read_table`` reads a table as UTF-8 and skips a leading byte order mark,
as some editors save one.  It reads the grammar in one pass over the
numbered lines, and refuses a line out of it, naming the line: a ``# lgsim``
line that is not the first; a config line after a summary line, with no
``=``, or repeating a key; a ``#`` line after the header; a second header
line; a JSONL meta or row that repeats a key; and, before any of these, a
table whose last line has no line break, as a table cut short has none.  It
refuses a table whose columns differ from its command's schema.  A CSV row
with no empty cell is built as one ``dict(zip(header, cells))``; only a row
with an empty cell (an exact adroitness row's Monte Carlo cells) maps its
cells one at a time, the empty ones to None.  ``records_from_rows`` parses a
sweep's float cells, and ``sweeps._table_records`` checks every column.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import stat
import sys
from itertools import chain, starmap
from operator import itemgetter
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from .protocol import _CHUNK_ROWS, Verdict
from .sweeps import SweepRecord, _gc_paused, _table_records

__all__ = ["SCHEMAS", "read_table", "records_from_rows"]

# a sweep table's columns are SweepRecord's fields; a verdict is written as text
_SWEEP = {k: str if t is Verdict else t for k, t in get_type_hints(SweepRecord).items()}

# column name -> type, in column order, for each command's table
SCHEMAS = {
    "fig2": _SWEEP,
    "fig3": _SWEEP,
    "adroitness": {
        "experiment": str,
        "theta": float,
        "gamma": float,
        "tau": float,
        "omega": float,
        "epsilon": float,
        "epsilon_mc": float,
        "epsilon_mc_se": float,
    },
    "classic": {
        "c12": float,
        "c23": float,
        "c13_prime": float,
        "lg_quantity": float,
        "verdict": str,
    },
    "sweep": _SWEEP,
}

# ---------------------------------------------------------------------------
# writing.  A block is (fixed, columns): ``fixed`` maps a column to its value
# for the whole block (None is an empty cell).  Every other column varies by
# row, and ``columns`` holds them as equal-length arrays, in column order.
# Varying text cells are identifiers (experiment ids, verdicts), so they need
# no escaping.

# each type's %-conversion, and the text of None; "%.17g" % x is
# format(x, ".17g"), and "%r" % x is what json.dumps writes for a finite float
_CONVERSIONS = {
    "csv": {float: "%.17g", int: "%d", str: "%s", None: ""},
    "jsonl": {float: "%r", int: "%d", str: '"%s"', None: "null"},
}


def _row_template(fmt: str, schema: dict, fixed: dict) -> str:
    """The %-template of one block's rows: a varying column's conversion, or
    that conversion applied once to the block's fixed value."""
    conv = _CONVERSIONS[fmt]
    texts = []
    for name, kind in schema.items():
        value = fixed.get(name, kind)  # a varying column stands for its type
        texts.append(conv[value] if value in conv else conv[kind] % value)
    if fmt == "csv":
        return ",".join(texts)
    return "{" + ", ".join(f'"{k}": {t}' for k, t in zip(schema, texts)) + "}"


def _table_lines(cfg, schema: dict, blocks, summary) -> Iterator[bytes]:
    """The table's UTF-8 bytes, each piece ending in its newline: the header
    lines, or a block's rows ``_CHUNK_ROWS`` to a piece.  Each block is drawn
    from ``blocks`` only when its rows are due, once the last block's bytes
    are written and released."""
    if cfg.format == "csv":
        comments = [f"lgsim {cfg.command}", *(f"config {k}={v}" for k, v in cfg.echo), *summary]
        head = "".join(f"# {c}\n" for c in comments) + ",".join(schema) + "\n"
    else:
        meta = {"command": cfg.command, "config": dict(cfg.echo), "summary": list(summary)}
        head = json.dumps({"meta": meta}, sort_keys=True) + "\n"
    yield head.encode()
    block_lines = functools.partial(_block_lines, cfg.format, schema)
    yield from chain.from_iterable(starmap(block_lines, blocks))


def _block_lines(fmt: str, schema: dict, fixed: dict, columns) -> Iterator[bytes]:
    """One block's lines, ``_CHUNK_ROWS`` rows to a piece of bytes.  A CSV
    chunk of at least ``_G17_ROWS`` rows is written by ``_csv_lines``, and
    any other chunk by the row template."""
    render = (_row_template(fmt, schema, fixed) + "\n").__mod__
    for start in range(0, len(columns[0]), _CHUNK_ROWS):
        chunk = [col[start : start + _CHUNK_ROWS] for col in columns]
        if fmt == "csv" and len(chunk[0]) >= _G17_ROWS:
            yield _csv_lines(schema, fixed, chunk)
        else:
            yield "".join(map(render, zip(*(col.tolist() for col in chunk)))).encode()


def _csv_lines(schema: dict, fixed: dict, columns: list) -> bytes:
    """The CSV lines of one chunk of a block, each ending in its newline.

    The lines are laid out as one byte matrix, a row per line and a column
    span per cell: each fixed cell is written once, each text column is its
    values' bytes, and the float columns are formatted whole by ``_g17``,
    as many at once as make ``_CHUNK_ROWS`` values.  Cells are NUL-padded to
    their span, and the NULs are dropped as the matrix becomes bytes, so no
    cell's text is held apart from its chunk's lines.
    """
    size = len(columns[0])
    varying = iter(columns)
    cells = []  # per column: its cells' bytes, or its values if they are floats
    for name, kind in schema.items():
        if name in fixed:
            text = _row_template("csv", {name: kind}, fixed).encode()
            cells.append(np.frombuffer(text, np.uint8))
        elif kind is float:
            cells.append(next(varying))
        else:
            text = next(varying).astype("S")
            cells.append(text.view(np.uint8).reshape(size, text.itemsize))
    widths = [_G17_WIDTH if c.dtype == np.float64 else c.shape[-1] for c in cells]
    ends = np.cumsum(widths) + np.arange(1, len(widths) + 1)  # each cell's separator
    lines = np.empty((size, ends[-1]), np.uint8)
    lines[:, ends - 1] = ord(",")
    lines[:, -1] = ord("\n")
    spans = [lines[:, e - 1 - w : e - 1] for e, w in zip(ends, widths)]
    floats = []
    for cell, span in zip(cells, spans):
        if cell.dtype == np.float64:
            floats.append((cell, span))
        else:
            span[:] = cell
    batch = max(1, _CHUNK_ROWS // size)
    for i in range(0, len(floats), batch):
        values, targets = zip(*floats[i : i + batch])
        texts = _g17(np.concatenate(values)).reshape(len(values), size, _G17_WIDTH)
        for span, text in zip(targets, texts):
            span[:] = text
    return lines.tobytes().translate(None, b"\0")


@contextlib.contextmanager
def _out_file(target: str):
    """``target`` opened for writing a table.

    A regular file or a missing path is written to a new file beside it,
    which replaces it only when the table is complete and is removed on any
    failure, so the target never holds part of a table.  The new file is
    created as ``open(target, "wb")`` would create it (its mode follows the
    umask, or copies an existing target's).  Anything else, such as a FIFO
    or a device, is written in place.
    """
    try:
        mode = os.stat(target).st_mode
    except OSError:  # missing, or unreachable: creating the new file will say why
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "wb") as fh:
            yield fh
        return
    path = os.path.realpath(target)  # a symlink's file is replaced, not the link
    head, tail = os.path.split(path)
    part = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.part")
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        with open(fd, "wb") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


def _emit(cfg, blocks, summary) -> None:
    """Write ``cfg.command``'s table to ``cfg.out``, or to stdout if it is empty,
    as the same bytes whatever the locale.  A block that raises ends the
    table: stdout keeps the whole rows written before it, and ``cfg.out`` is
    left as it was.
    """
    chunks = _table_lines(cfg, SCHEMAS[cfg.command], blocks, summary)
    if not cfg.out:
        sys.stdout.flush()  # text written before the table goes out first
        sys.stdout.buffer.writelines(chunks)
        return
    try:
        with _out_file(cfg.out) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        if exc.filename is not None:  # name the target, not the file beside it
            exc = OSError(exc.errno, exc.strerror, cfg.out)
        raise ValueError(f"--out: cannot write {cfg.out}: {exc}") from None


def _sweep_blocks(blocks):
    """One table block per ``SweepBlock`` of ``blocks``, which is iterated only
    as the table is written; no block is kept once its rows are written."""
    return map(lambda b: ({"gamma": b.gamma, "n": b.n}, (b.thetas, *b.curve, b.verdict)), blocks)


# ---------------------------------------------------------------------------
# "%.17g" % x for each x of a float64 array, in numpy.  For 1e-280 <= |x| <
# 1e280, with k = floor(log10 |x|), x * 10**(16 - k) is formed as a
# double-double product (Dekker's split, and 10**(16 - k) as a pair of
# doubles) to within about 1e-14, and rounded to the 17-digit integer D.  A
# value whose product lies within 1e-9 of a half goes to Python's %, as does
# any value outside that range but +-0, so every cell is the text % writes.
# D's digits come from a 4-digit table, and each cell is laid out in a fixed
# row as %g lays it out, with NULs where it has no byte:
#
#   0     sign
#   1-5   "0.000" for -4 <= k < 0 ("0." and -k - 1 zeros)
#   6     the first digit
#   7     the point after it, for k = 0 and the e-form, when a digit follows
#   8-23  the other 16 digits, the trailing zeros of the fraction NUL
#   24-28 "e+XX" or "e-XXX", for k < -4 and k > 16
#
# A cell with 1 <= k <= 16 moves digits 1 to k left over byte 7, and puts
# the point after them.

_G17_ROWS = 64  # the measured break-even: a shorter chunk is cheaper by its row template
_G17_EXP = 280  # the fast range is 10**-_G17_EXP <= |x| < 10**_G17_EXP
_G17_KS = range(-_G17_EXP - 1, _G17_EXP + 1)  # every exponent k it meets
_K0 = _G17_EXP + 1  # the tables' row for k = 0
_G17_WIDTH = 32  # a % cell is at most 24 bytes, and fills its row from the left
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split into two 26-bit halves


def _product(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a * b as its rounded value and that value's exact error (Dekker)."""
    prod = a * b
    (a1, a2), (b1, b2) = (_halves(v) for v in (a, b))
    return prod, ((a1 * b1 - prod) + a1 * b2 + a2 * b1) + a2 * b2


def _halves(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = a * _SPLIT
    high = c - (c - a)
    return high, a - high


def _pow10(ps) -> tuple[np.ndarray, np.ndarray]:
    """10**p for each p of ``ps`` as (high, low): the nearest double to the
    exact value, and the nearest double to what is left."""
    high, low = [], []
    for p in ps:
        if p >= 0:
            exact = 10**p
            high.append(float(exact))
            low.append(float(exact - int(high[-1])))
        else:  # 1 / q = high + (1 - high * q) / q, with high = m / s
            q = 10**-p
            high.append(1 / q)
            m, s = high[-1].as_integer_ratio()
            low.append((s - m * q) / (s * q))
    return np.array(high), np.array(low)


@functools.cache
def _g17_tables():
    """Built on first use, in about 1 ms.  Per exponent k: 10**(16 - k)
    as (high, low), the product of 10**(32 i) and 10**j, to about 1e-31 of
    itself; the cell's bytes 0-7 and 24-31 as two uint64; and whether byte 7
    may hold the point.  Per 4-digit group, its bytes as a uint32, and in the
    second 10**4 entries with its trailing zeros as NULs."""
    ks = np.arange(_G17_KS.start, _G17_KS.stop)
    i, j = np.divmod(16 - ks, 32)
    wide, narrow = _pow10(range(32 * i.min(), 32 * i.max() + 1, 32)), _pow10(range(32))
    (ah, al), (bh, bl) = (t[i - i.min()] for t in wide), (t[j] for t in narrow)
    prod, err = _product(ah, bh)
    err += ah * bl + al * bh
    high = prod + err
    powers = high, err - (high - prod)
    d = np.arange(10000, dtype=np.int32)
    quad = np.empty((2, 10000, 4), np.uint8)
    for place in range(4):
        digit = d // 10 ** (3 - place) % 10 + ord("0")
        quad[:, :, place] = digit, digit * (d % 10 ** (4 - place) != 0)
    cells = np.zeros((len(ks), _G17_WIDTH), np.uint8)
    for k in range(-4, 0):
        cells[k + _K0, 1 : 2 - k] = list(b"0.000"[: 1 - k])
    e_form = np.flatnonzero((ks < -4) | (ks > 16))
    exponents = "".join([f"e{k:+03d}\0"[:5] for k in ks[e_form].tolist()]).encode()
    cells[e_form, 24:29] = np.frombuffer(exponents, np.uint8).reshape(-1, 5)
    ends = cells.view(np.uint64)[:, [0, 3]].T.copy()
    point = np.where((ks == 0) | (ends[1] != 0), ord("."), 0).astype(np.uint8)
    return powers, quad.view(np.uint32).ravel(), ends, point


def _scaled(a: np.ndarray, k: np.ndarray, powers) -> tuple[np.ndarray, np.ndarray]:
    """a * 10**(16 - k) as an integer and a fraction in [0, 1)."""
    high, low = (np.take(t, k) for t in powers)
    prod, err = _product(a, high)
    rest = err + a * low
    whole = np.floor(rest)
    return prod.astype(np.int64) + whole.astype(np.int64), rest - whole


def _g17_fast(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each value's %.17g cell as a NUL-padded uint8 row, and which rows
    hold their text; ``_g17`` writes the others by %."""
    powers, quad, ends, point = _g17_tables()
    n = len(x)
    a = np.abs(x)
    zero = a == 0.0
    fast = (a >= 10.0**-_G17_EXP) & (a < 10.0**_G17_EXP)
    a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp) + _K0  # the tables' row for k
    D, frac = _scaled(a, k, powers)
    off = np.flatnonzero((D < 10**16) | (D >= 10**17))  # log10 missed k by one
    if len(off):
        k[off] += np.where(D[off] < 10**16, -1, 1)
        D[off], frac[off] = _scaled(a[off], k[off], powers)
    settled = (fast & (D >= 10**16) & (D < 10**17) & (np.abs(frac - 0.5) >= 1e-9)) | zero
    D += frac > 0.5
    up = D == 10**17  # rounded up to 1.0000000000000000e(k + 1)
    D[up] = 10**16
    k += up
    D[zero] = 0
    k[zero] = _K0  # 0 is written as its one digit
    out = np.empty((n, _G17_WIDTH // 8), np.uint64)
    out[:, 0] = np.take(ends[0], k)
    out[:, 3] = np.take(ends[1], k)
    # D's digits: the first, then four groups of four, each looked up with
    # its trailing zeros as NULs when every later group is 0
    high8, low8 = np.divmod(D, 10**8)
    first, rest = np.divmod(high8.astype(np.int32), 10**8)
    groups = [*np.divmod(rest, 10**4), *np.divmod(low8.astype(np.int32), 10**4)]
    words = out.view(np.uint32)
    tail = np.ones(n, bool)
    for j in (3, 2, 1, 0):
        words[:, 2 + j] = np.take(quad, groups[j] + tail * 10**4)
        tail &= groups[j] == 0
    out = out.view(np.uint8)
    out[:, 0] = np.signbit(x) * ord("-")
    out[:, 6] = first + ord("0")
    out[:, 7] = (out[:, 8] != 0) * np.take(point, k)
    mid = np.flatnonzero((k > _K0) & (k <= _K0 + 16))
    if len(mid):
        out[mid] = _move_point(out[mid], k[mid] - _K0)
    return out, settled


def _move_point(cells: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Cells with 1 <= k <= 16, their digits 1 to k moved left over byte 7
    and the point put after them; an integer digit that was stripped as a
    trailing zero is a zero again."""
    digits = cells[:, 6:24]  # the first digit, byte 7, the other 16 digits
    follows = digits[np.arange(len(k)), np.minimum(k + 2, 17)] != 0
    digits[:, 1] = follows * (k < 16) * ord(".")
    i = np.arange(18)
    whole = i <= k[:, None]
    source = np.where(whole, i + 1, np.where(i == k[:, None] + 1, 1, i))
    source[:, 0] = 0
    digits[:] = np.maximum(np.take_along_axis(digits, source, axis=1), whole * ord("0"))
    return cells


def _g17(values: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float64 value, as a NUL-padded uint8 row of
    ``_G17_WIDTH`` bytes: the bytes of the text, with NULs anywhere between."""
    values = np.asarray(values, dtype=np.float64)
    out, settled = _g17_fast(values)
    rest = np.flatnonzero(~settled)
    if len(rest):
        texts = np.array(["%.17g" % v for v in values[rest].tolist()], f"S{_G17_WIDTH}")
        out[rest] = texts.view(np.uint8).reshape(len(rest), _G17_WIDTH)
    return out


# ---------------------------------------------------------------------------
# reading


def _schema(path, command) -> dict:
    if command not in SCHEMAS:
        raise ValueError(f"{path}: not an lgsim table (command {command!r})")
    return SCHEMAS[command]


def _column_error(path, command: str, names: list[str]) -> ValueError:
    """The first way ``names`` differ from ``command``'s schema, as one line."""
    expected = list(SCHEMAS[command])
    missing = [c for c in expected if c not in names]
    unknown = [c for c in names if c not in expected]
    twice = [c for c in names if names.count(c) > 1]
    if unknown:
        problem = f"unknown column {unknown[0]!r}"
    elif twice:
        problem = f"column {twice[0]!r} more than once"
    elif missing:
        problem = f"no column {missing[0]!r}"
    else:
        k = next(k for k, (a, b) in enumerate(zip(names, expected)) if a != b)
        problem = f"column {names[k]!r} where {expected[k]!r} belongs"
    return ValueError(f"{path}: {command} table has {problem}; expected {','.join(expected)}")


def _json_line(path, n: int, line: str, decode):
    """The JSON value of ``line``, the table's line ``n``."""
    try:
        return decode(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: line {n}: not JSON at column {exc.colno} ({exc.msg})") from None
    except ValueError as exc:  # such as a repeated key
        raise ValueError(f"{path}: line {n}: {exc}") from None


def _unique_keys(what: str, pairs: list) -> dict:
    """The JSON object of ``pairs``, refused if it repeats a key."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for i, (k, _) in enumerate(pairs) if k in dict(pairs[:i]))
        raise ValueError(f"{what} repeats the key {key!r}")
    return obj


# the meta line, and a row that may repeat a key, each refusing a repeated key
# at any depth; any other row, by the (value, end) scan json.loads runs,
# without its whitespace matches and Python frames
_meta_decode = json.JSONDecoder(object_pairs_hook=functools.partial(_unique_keys, "meta")).decode
_row_decode = json.JSONDecoder(object_pairs_hook=functools.partial(_unique_keys, "a row")).decode
_raw_decode = json.JSONDecoder().raw_decode


def read_table(path) -> tuple[dict, list[dict]]:
    """Parse a table written by any command back into (meta, rows).

    ``meta`` holds ``command``, ``config`` (dict) and ``summary`` (list).
    Row values come back as floats/ints/strings for JSONL and as strings for
    CSV (empty cells become None in both).  Numeric strings parse exactly
    because tables are written with %.17g.  The lines are read in one pass,
    by the module docstring's grammar.  Columns that differ from the
    command's schema raise a one-line ``ValueError`` naming a column, and a
    line out of the grammar, or a JSONL line that is not JSON of the right
    type, one naming the line.  Every such error starts with ``path``, as
    does the one for a file that is not UTF-8.  A leading BOM is skipped.
    """
    try:
        text = Path(path).read_text(encoding="utf-8-sig")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8: {exc}") from None
    lines = enumerate(text.splitlines(), 1)
    first, ln = next(((n, ln) for n, ln in lines if ln.strip()), (0, ""))
    if not first:
        raise ValueError(f"{path}: empty table")
    if not text.endswith(("\n", "\r")):
        problem = "no line break at its end, so the table is cut short"
        raise ValueError(f"{path}: line {len(text.splitlines())}: {problem}")
    meta = {"command": None, "config": {}, "summary": []}
    rows: list[dict] = []
    if ln.lstrip().startswith("{"):
        given = _json_line(path, first, ln, _meta_decode)
        if "meta" not in given:
            raise ValueError(f"{path}: the first line is not the meta object")
        given, kinds = given["meta"], {"command": str, "config": dict, "summary": list}
        if not isinstance(given, dict) or any(
            not isinstance(given.get(key, kind()), kind) for key, kind in kinds.items()
        ):
            problem = "meta is not an object with a string command, object config, list summary"
            raise ValueError(f"{path}: line {first}: {problem}")
        meta.update(given)
        keys = _schema(path, meta["command"]).keys()
        for n, ln in lines:
            # a line that is not one whole JSON value, such as a padded one,
            # or that may repeat a key, is left to _row_decode, which reads it
            # or names its fault: each key needs a colon, so a row of the
            # schema's keys with no other colon holds each of them once
            try:
                obj, end = _raw_decode(ln)
            except json.JSONDecodeError:
                end = -1
            if end != len(ln) or ln.count(":") != len(keys):
                if not ln.strip():
                    continue
                obj = _json_line(path, n, ln, _row_decode)
            if not isinstance(obj, dict):
                raise ValueError(f"{path}: line {n}: a row is not a JSON object")
            if obj.keys() != keys:
                raise _column_error(path, meta["command"], list(obj))
            if "" in obj.values():
                obj = {k: (None if v == "" else v) for k, v in obj.items()}
            rows.append(obj)
        return meta, rows
    for n, ln in chain([(first, ln)], lines):  # the comment lines, up to the header
        if not ln.strip():
            continue
        if ln[0] != "#":
            break
        body = ln[1:].strip()
        if body.startswith("lgsim "):
            if n != first:
                raise ValueError(f"{path}: line {n}: a '# lgsim' line that is not the first")
            meta["command"] = body[len("lgsim ") :]
        elif body.startswith("config "):
            key, eq, val = body[len("config ") :].partition("=")
            if meta["summary"]:
                raise ValueError(f"{path}: line {n}: a config line after a summary line")
            if not eq:
                raise ValueError(f"{path}: line {n}: a config line with no '='")
            if key in meta["config"]:
                raise ValueError(f"{path}: line {n}: config key {key!r} given twice")
            meta["config"][key] = val
        else:
            meta["summary"].append(body)
    else:
        raise ValueError(f"{path}: no header line found")
    head, header = ln, ln.split(",")
    if header != list(_schema(path, meta["command"])):
        raise _column_error(path, meta["command"], header)
    for n, ln in lines:
        cells = ln.split(",")  # a blank line is one cell: no row
        if len(cells) != len(header) or ln[0] == "#" or ln == head:
            if ln[0:1] == "#":
                raise ValueError(f"{path}: line {n}: a comment line after the header")
            if ln == head:
                raise ValueError(f"{path}: line {n}: a second header line")
            if ln.strip():
                problem = f"row has {len(cells)} cells, header has {len(header)}"
                raise ValueError(f"{path}: line {n}: {problem}")
        elif "" in cells:
            rows.append({k: (None if c == "" else c) for k, c in zip(header, cells)})
        else:
            rows.append(dict(zip(header, cells)))
    return meta, rows


@_gc_paused()
def records_from_rows(rows: list[dict]) -> list[SweepRecord]:
    """Rebuild sweep records from parsed rows (exact round trip).

    ``float`` reads ``%.17g`` text back bit for bit.  The cells, taken as
    one column each, are then checked by ``sweeps._table_records``, and
    the verdicts must match; the first bad row raises a one-line
    ``ValueError``.
    """
    # one column per field, by one transpose of the rows
    cells = dict(zip(_SWEEP, zip(*map(itemgetter(*_SWEEP), rows)))) or dict.fromkeys(_SWEEP, ())
    floats = {}
    for name, kind in _SWEEP.items():
        if kind is float:
            try:
                floats[name] = list(map(float, cells[name]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None
    theta, gamma, *numbers = floats.values()
    return _table_records(theta, gamma, cells["n"], numbers, cells["verdict"])
