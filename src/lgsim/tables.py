"""The table format: one schema per command, the writer and the reader.

A schema maps each column name to its type, in column order, and both
directions use it; a sweep table's schema is ``SweepRecord``'s fields.  A
CSV table is ``#`` comment lines (``# lgsim COMMAND``, then one ``# config
key=value`` per resolved key, then the summary lines), a header and one
line per row.  A JSONL table is one ``{"meta": ...}`` object holding the
same, then one object per row.

The writer takes column blocks: each block becomes one %-template, with its
fixed cells written in once, and each row is that template applied to the
row's varying values.  It pulls each block from its iterable just before
writing it, and renders a block ``_CHUNK_ROWS`` rows at a time, so a table
is held one block and one chunk at a time.  A sweep block is one (n,
gamma, theta chunk) of at most ``_CHUNK_ROWS`` rows, so it renders as one
string.  A sweep's repeated columns are formatted once too: each theta
chunk, which every block over it shares, and each ``eps_total`` array,
which the n blocks of one gamma share, once.  CSV floats are %.17g, so a
float reads back bit for bit.  JSONL floats are %r, which is the text
``json.dumps`` writes for a finite float (and every written float is
checked to be finite).  An ``--out`` file is written beside its target and
renamed over it only once the whole table is written.

``read_table`` refuses a table whose columns differ from its command's
schema, and ``records_from_rows`` checks a sweep's parsed columns as
``sweep_records`` checks what it writes.
"""

from __future__ import annotations

import contextlib
import json
import os
import stat
import sys
from itertools import islice
from pathlib import Path
from typing import Iterator, get_type_hints

import numpy as np

from .protocol import Verdict
from .sweeps import _CHUNK_ROWS, CurveArrays, SweepRecord, _coordinates, _expand
from .sweeps import _gc_paused, _verdicts

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
# writing.  A block is (fixed, rows): ``fixed`` maps a column to its value for
# the whole block (None is an empty cell), or to _TEXT for a column whose
# rows hold its values already written in the table's float conversion.
# Every other column varies by row; ``rows`` is an iterable of tuples of the
# varying values, in column order.  Varying text cells are identifiers
# (experiment ids, verdicts), so they need no escaping.

_TEXT = object()

# each type's %-conversion, and the text of None; "%.17g" % x is
# format(x, ".17g"), and "%r" % x is what json.dumps writes for a finite float
_CONVERSIONS = {
    "csv": {float: "%.17g", int: "%d", str: "%s", None: "", _TEXT: "%s"},
    "jsonl": {float: "%r", int: "%d", str: '"%s"', None: "null", _TEXT: "%s"},
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


def _table_lines(cfg, schema: dict, blocks, summary) -> Iterator[str]:
    """The table's lines without newlines; a block's rows come ``_CHUNK_ROWS``
    to a string, and each block is drawn from ``blocks`` only when its rows
    are due."""
    if cfg.format == "csv":
        yield f"# lgsim {cfg.command}"
        yield from (f"# config {k}={v}" for k, v in cfg.echo)
        yield from (f"# {s}" for s in summary)
        yield ",".join(schema)
    else:
        meta = {"command": cfg.command, "config": dict(cfg.echo), "summary": list(summary)}
        yield json.dumps({"meta": meta}, sort_keys=True)
    for fixed, rows in blocks:
        render = _row_template(cfg.format, schema, fixed).__mod__
        rows = iter(rows)
        while chunk := list(islice(rows, _CHUNK_ROWS)):
            yield "\n".join(map(render, chunk))


@contextlib.contextmanager
def _out_file(target: str):
    """``target`` opened for writing a table.

    A regular file or a missing path is written to a new file beside it,
    which replaces it only when the table is complete and is removed on any
    failure, so the target never holds part of a table.  The new file is
    created as ``open(target, "w")`` would create it (its mode follows the
    umask, or copies an existing target's).  Anything else, such as a FIFO
    or a device, is written in place.
    """
    try:
        mode = os.stat(target).st_mode
    except OSError:  # missing, or unreachable: creating the new file will say why
        mode = None
    if mode is not None and not stat.S_ISREG(mode):
        with open(target, "w", encoding="utf-8") as fh:
            yield fh
        return
    path = os.path.realpath(target)  # a symlink's file is replaced, not the link
    head, tail = os.path.split(path)
    part = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.part")
    fd = os.open(part, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        if mode is not None:
            os.fchmod(fd, stat.S_IMODE(mode))
        with open(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(part, path)
    except BaseException:
        os.unlink(part)
        raise


def _emit(cfg, blocks, summary) -> None:
    """Write ``cfg.command``'s table to ``cfg.out``, or to stdout if it is empty.

    A block that raises ends the table: stdout keeps the whole rows written
    before it, and ``cfg.out`` is left as it was.
    """
    lines = _table_lines(cfg, SCHEMAS[cfg.command], blocks, summary)
    chunks = map("%s\n".__mod__, lines)  # holds no line once it is written
    if not cfg.out:
        sys.stdout.writelines(chunks)
        return
    try:
        with _out_file(cfg.out) as fh:
            fh.writelines(chunks)
    except OSError as exc:
        if exc.filename is not None:  # name the target, not the file beside it
            exc = OSError(exc.errno, exc.strerror, cfg.out)
        raise ValueError(f"--out: cannot write {cfg.out}: {exc}") from None


def _sweep_blocks(blocks, fmt: str):
    """One table block per ``SweepBlock`` of ``blocks``, which is iterated only
    as the table is written.

    Columns that repeat across blocks are formatted once: each theta chunk,
    and each ``eps_total`` array (the n blocks of one gamma share one), once
    per array object.  The cache is keyed by identity, never by value:
    gamma does not determine eps in a table built by a caller, and equal
    arrays can differ in the sign of a zero, which the text shows.  It holds
    each array it has seen, so no later array can take over its identity.
    Each array's text is kept as one joined string, and split as its block
    is written.
    """
    conv = _CONVERSIONS[fmt][float]
    texts: dict[int, tuple[np.ndarray, str]] = {}  # id -> (array, its text)

    def cells(values: np.ndarray) -> list[str]:
        if id(values) not in texts:
            texts[id(values)] = values, "\n".join([conv % v for v in values.tolist()])
        return texts[id(values)][1].split("\n")

    def rows(b):  # made as the writer reaches them, once the last block's are gone
        *cols, eps = b.curve
        yield from zip(cells(b.thetas), *(c.tolist() for c in cols), cells(eps), b.verdict.tolist())

    def table_block(b):
        return {"theta": _TEXT, "gamma": b.gamma, "n": b.n, "eps_total": _TEXT}, rows(b)

    return map(table_block, blocks)  # keeps no block once its rows are written


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


def _json_error(path, text: str, k: int, problem: str) -> ValueError:
    """``problem`` at the ``k``-th (from 0) nonblank line of ``text``, as one line."""
    line = [i for i, ln in enumerate(text.splitlines(), 1) if ln.strip()][k]
    return ValueError(f"{path}: line {line}: {problem}")


def read_table(path) -> tuple[dict, list[dict]]:
    """Parse a table written by any command back into (meta, rows).

    ``meta`` holds ``command``, ``config`` (dict) and ``summary`` (list).
    Row values come back as floats/ints/strings for JSONL and as strings for
    CSV (empty cells become None in both).  Numeric strings parse exactly
    because tables are written with %.17g.  A CSV header, or the keys of a
    JSONL row, that differ from the command's schema raise a one-line
    ``ValueError`` naming a column; a JSONL meta or row of the wrong JSON
    type raises one naming its line.
    """
    text = Path(path).read_text(encoding="utf-8")
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError(f"{path}: empty table")
    meta = {"command": None, "config": {}, "summary": []}
    rows: list[dict] = []
    if lines[0].lstrip().startswith("{"):
        first = json.loads(lines[0])
        if "meta" not in first:
            raise ValueError(f"{path}: the first line is not the meta object")
        given, kinds = first["meta"], {"command": str, "config": dict, "summary": list}
        if not isinstance(given, dict) or any(
            not isinstance(given.get(key, kind()), kind) for key, kind in kinds.items()
        ):
            problem = "meta is not an object with a string command, object config, list summary"
            raise _json_error(path, text, 0, problem)
        meta.update(given)
        keys = _schema(path, meta["command"]).keys()
        for i, ln in enumerate(lines[1:], 1):
            obj = json.loads(ln)
            if not isinstance(obj, dict):
                raise _json_error(path, text, i, "a row is not a JSON object")
            if obj.keys() != keys:
                raise _column_error(path, meta["command"], list(obj))
            rows.append({k: (None if v == "" else v) for k, v in obj.items()})
        return meta, rows
    header: list[str] | None = None
    for ln in lines:
        if ln.startswith("#"):
            body = ln[1:].strip()
            if body.startswith("lgsim "):
                meta["command"] = body[len("lgsim ") :]
            elif body.startswith("config "):
                key, _, val = body[len("config ") :].partition("=")
                meta["config"][key] = val
            else:
                meta["summary"].append(body)
        elif header is None:
            header = ln.split(",")
            if header != list(_schema(path, meta["command"])):
                raise _column_error(path, meta["command"], header)
        else:
            cells = ln.split(",")
            if len(cells) != len(header):
                raise ValueError(f"{path}: row has {len(cells)} cells, header has {len(header)}")
            rows.append({k: (None if c == "" else c) for k, c in zip(header, cells)})
    if header is None:
        raise ValueError(f"{path}: no header line found")
    return meta, rows


@_gc_paused()
def records_from_rows(rows: list[dict]) -> list[SweepRecord]:
    """Rebuild sweep records from parsed rows (exact round trip).

    ``float`` reads ``%.17g`` text back bit for bit.  The cells, taken as
    one column each, then pass the checks ``sweep_records`` runs on write,
    and the verdicts must match; the first bad row raises a one-line
    ``ValueError``.
    """
    cells = {c: [row[c] for row in rows] for c in _SWEEP}
    floats = {}
    for name, kind in _SWEEP.items():
        if kind is float:
            try:
                floats[name] = list(map(float, cells[name]))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{name}: {exc}") from None
    theta, gamma, *numbers = floats.values()
    ns = _coordinates(np.array(theta), np.array(gamma), cells["n"])
    verdicts = _verdicts(
        CurveArrays(*(np.array(col, dtype=float) for col in numbers)),
        np.fromiter(cells["verdict"], dtype=object, count=len(rows)),
    )
    return _expand(theta, gamma, ns, numbers, verdicts.tolist())
