"""Channel algebra that only the tests use, kept as independent checks.

lgsim's engines act on transfer matrices and Pauli coefficient arrays; they
never build a channel from Kraus operators, compose two channels, build a
state from a Bloch vector or take an expectation value.
These helpers do, the textbook way, so the tests can compare the engines
against them: Lueders measurement channels against the walker's projection
step, Kraus families against ``Channel``'s Choi matrix, and the Heisenberg
picture against ``unitary_propagator``.

``dense_protocol_lg`` and ``dense_battery_eps`` are the sweep kernels as they
were before they skipped the exact zeros of the dynamics family: they walk
both branches of the box and multiply whole rows of each gap.  The kernels
must give their bits, zeros' signs included where a table shows them.

``read_csv_table`` and ``read_jsonl_table`` read a table by the grammar the
``tables`` docstring states, in two steps where the reader takes one pass:
once the text is known to end in its line break, they split the numbered
nonblank lines into the lines before the header or meta and those after it,
and check each part whole.  The CSV oracle builds every row by one
comprehension that maps each empty cell to None; the reader must return its
meta and rows, key order included, and raise its first error.  The JSONL
oracle decodes each line by ``json.loads``, with a hook that refuses a
repeated key; the reader must return what it returns, and refuse what it
refuses.
"""

import json
import math
from pathlib import Path

import numpy as np

from lgsim.dynamics import HamiltonianSpec, _check_duration
from lgsim.protocol import _BATTERY_LAYOUT
from lgsim.qubit import (
    ATOL,
    CHOI_ATOL,
    IDENTITY,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Channel,
    DensityOperator,
    Observable,
    pauli,
    pauli_coefficients,
    sigma_theta,
)
from lgsim.qubit import _BASIS, _as_operator
from lgsim.tables import _column_error, _schema


def anticommutator(a, b) -> np.ndarray:
    """``{a, b} = a @ b + b @ a``."""
    a = _as_operator(a, "a")
    b = _as_operator(b, "b")
    return a @ b + b @ a


def purity(rho: DensityOperator) -> float:
    """``Tr(rho^2)``."""
    return float(np.real(np.trace(rho.matrix @ rho.matrix)))


def expectation(q: Observable, rho: DensityOperator) -> float:
    """``Tr(Q rho)`` as a real number.

    Raises ``ValueError`` if the trace has an imaginary part above 1e-10,
    which would indicate non-Hermitian inputs slipped past validation.
    """
    val = np.trace(q.matrix @ rho.matrix)
    if abs(val.imag) > 1e-10:
        raise ValueError(f"expectation value has imaginary part {val.imag:.3g}")
    return float(val.real)


def identity_channel() -> Channel:
    return Channel(np.eye(4))


def from_kraus(operators) -> Channel:
    """Channel ``X -> sum_k K X K^dagger`` from a Kraus family."""
    ops = [_as_operator(k, "Kraus operator") for k in operators]
    if not ops:
        raise ValueError("need at least one Kraus operator")
    ptm = np.zeros((4, 4), dtype=complex)
    for j in range(4):
        mapped = np.zeros((2, 2), dtype=complex)
        for k in ops:
            mapped += k @ _BASIS[j] @ k.conj().T
        ptm[:, j] = pauli_coefficients(mapped)
    if np.max(np.abs(ptm.imag)) > ATOL:
        raise ValueError("Kraus family does not define a real transfer matrix")
    return Channel(ptm.real)


def kraus_operators(channel: Channel, atol: float = CHOI_ATOL) -> list[np.ndarray]:
    """A Kraus family from the Choi eigendecomposition.

    Eigenvalues within ``atol`` of zero are dropped; the family satisfies
    ``sum K^dagger K = I`` and reproduces the channel's action.
    """
    eigs, vecs = np.linalg.eigh(channel.choi_matrix())
    ops = []
    for lam, v in zip(eigs, vecs.T):
        if lam > atol:
            # Choi convention J = sum_ab E_ab (x) S(E_ab): column vector
            # blocks index the input, so the operator is the transposed
            # 2x2 reshape of the eigenvector.
            ops.append(math.sqrt(lam) * v.reshape(2, 2).T)
    return ops


def apply_to_state(channel: Channel, rho: DensityOperator) -> DensityOperator:
    return DensityOperator(channel(rho.matrix))


def is_unital(channel: Channel) -> bool:
    """The transfer matrix's first column is ``(1, 0, 0, 0)^T`` within ``ATOL``."""
    return bool(np.max(np.abs(channel.ptm[:, 0] - np.array([1.0, 0.0, 0.0, 0.0]))) <= ATOL)


def compose(first: Channel, then: Channel) -> Channel:
    """Apply ``first``, then ``then``: the transfer matrix ``then.ptm @ first.ptm``."""
    return Channel(then.ptm @ first.ptm)


def from_bloch(r) -> DensityOperator:
    """State ``(I + r . sigma)/2`` for a Bloch vector with ``|r| <= 1``."""
    r = np.asarray(r, dtype=float)
    if r.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    return DensityOperator((IDENTITY + r[0] * SIGMA_X + r[1] * SIGMA_Y + r[2] * SIGMA_Z) / 2.0)


def measure_channel(q: Observable) -> Channel:
    """Unconditioned measurement of ``q``: ``X -> P+ X P+ + P- X P-``.

    Built from the Lueders projectors; equal to complete dephasing along the
    measurement axis.
    """
    return from_kraus([q.projector(+1), q.projector(-1)])


def dephase_z() -> Channel:
    """Complete dephasing in the sz eigenbasis (kills sx and sy parts)."""
    return measure_channel(pauli("z"))


def dephase_theta(theta: float) -> Channel:
    """Complete dephasing in the ``sigma_theta(theta)`` eigenbasis."""
    return measure_channel(sigma_theta(theta))


def heisenberg_observable(hamiltonian: HamiltonianSpec, q: Observable, t: float) -> Observable:
    """Observable evolved to time ``t``: ``U^dagger Q U`` (adjoint of the state map).

    Measuring ``q`` after evolving for ``t`` is equivalent to measuring the
    returned observable on the initial state.  For the sx drive this sends
    sz to ``sin(W t) sy + cos(W t) sz`` with ``W`` the Bloch rotation rate.
    """
    t = _check_duration(t)
    angle = hamiltonian.omega * (0.5 if hamiltonian.half else 1.0) * t
    u = math.cos(angle) * IDENTITY - 1j * math.sin(angle) * SIGMA_X  # exp(-i angle sx)
    return Observable(u.conj().T @ q.matrix @ u, label=f"{q.label}@t={t:.12g}")


def _dense_project(s, c, v1, v3):
    """Overlap with the x-z axis ``(s, c)``, and the x and z coefficients
    ``v1``, ``v3`` projected onto it (the projected y coefficient is 0)."""
    pr = s * v1 + c * v3
    return pr, pr * s, pr * c


def _terms(m, v, rows, cols):
    """Rows ``rows`` of ``m @ v``, ``v`` holding components ``cols``, each row's
    terms added left to right (``@`` or ``einsum`` may order them otherwise)."""
    out = []
    for r in rows:
        acc = m[r, cols[0]] * v[0]
        for c, vc in zip(cols[1:], v[1:]):
            acc = acc + m[r, c] * vc
        out.append(acc)
    return out


def _dense_anti_z(m, v, st, ct):
    """``2 (m {sigma_theta, v}/2)_z`` for branch vectors ``v`` (y coefficient 0)."""
    pr = st * v[1] + ct * v[3]
    return 2.0 * _terms(m, (pr, v[0] * st, v[0] * ct), (3,), (0, 1, 3))[0]


def dense_protocol_lg(thetas, n, gap, gap13):
    """Boxed-protocol correlators over a theta grid: (c12, c23, c13_prime)."""
    thetas = np.asarray(thetas)
    st = np.sin(thetas)
    ct = np.cos(thetas)
    # xy[0] is the state after Q1's channel, xy[1] is {Q1, rho}/2
    xy = np.empty((2, 4, thetas.shape[0]))
    x, y = xy
    x[...] = 0.5 * gap[:, :1]
    y[0], x[1], x[3] = _dense_project(st, ct, x[1], x[3])
    y[1] = x[0] * st
    y[3] = x[0] * ct
    xy[:, 2] = 0.0
    for k in range(2 * n + 1):
        xy = gap @ xy
        if k % 2 == 0:
            xy[:, 1:3] = 0.0
        else:
            _, xy[:, 1], xy[:, 3] = _dense_project(st, ct, xy[:, 1], xy[:, 3])
            xy[:, 2] = 0.0
    x, y = gap @ xy
    c12 = 2.0 * (st * y[1] + ct * y[3])
    c23 = _dense_anti_z(gap, x, st, ct)
    c13p = _dense_anti_z(gap13, 0.5 * gap[:, 0], st, ct)
    return c12, c23, c13p


def dense_battery_eps(thetas, gap, gap2):
    """Per-experiment adroitness of the four-member battery, shape (B, 4)."""
    thetas = np.asarray(thetas)
    pair = ((0, 1), (np.sin(thetas), np.cos(thetas)))  # (x, z) of sz and sigma_theta
    xz = (0, 1, 3)
    x0, x1, x3 = 0.5 * gap[xz, 0]
    out = np.empty((thetas.shape[0], 4))
    for e, layout in enumerate(_BATTERY_LAYOUT):
        (q1x, q1z), (qpx, qpz), (q3x, q3z) = (pair[k] for k in layout)
        eps = np.zeros_like(thetas)
        for s1 in (1.0, -1.0):
            amp = x0 + s1 * (q1x * x1 + q1z * x3)
            w = (0.5 * amp, 0.5 * s1 * amp * q1x, 0.5 * s1 * amp * q1z)
            a0, a1, a3 = _terms(gap, w, xz, xz)
            _, a1, a3 = _dense_project(qpx, qpz, a1, a3)
            f0, f1, f3 = _terms(gap, (a0, a1, a3), xz, xz)
            g0, g1, g3 = _terms(gap2, w, xz, xz)
            for s3 in (1.0, -1.0):
                pw = f0 + s3 * (q3x * f1 + q3z * f3)
                pn = g0 + s3 * (q3x * g1 + q3z * g3)
                eps = eps + np.abs(pw - pn)
        out[:, e] = eps
    return out


def _numbered(path) -> list[tuple[int, str]]:
    """A table's nonblank lines, each with its number in the file, once the
    text is known to end in a line break, in either format."""
    text = Path(path).read_text(encoding="utf-8-sig")
    numbered = [(i, ln) for i, ln in enumerate(text.splitlines(), 1) if ln.strip()]
    if not numbered:
        raise ValueError(f"{path}: empty table")
    if text[-1] not in "\r\n":
        problem = "no line break at its end, so the table is cut short"
        raise ValueError(f"{path}: line {len(text.splitlines())}: {problem}")
    return numbered


# the order of a CSV table's comment lines, by the word after the "#"
_RANKS = {"lgsim": 0, "config": 1, "summary": 2}


def read_csv_table(path) -> tuple[dict, list[dict]]:
    """(meta, rows) of a CSV table, one comprehension per row."""
    numbered = _numbered(path)
    at = next((k for k, (_, ln) in enumerate(numbered) if not ln.startswith("#")), None)
    meta = {"command": None, "config": {}, "summary": []}
    rank = 0
    for k, (i, ln) in enumerate(numbered[:at]):
        word, space, rest = ln[1:].strip().partition(" ")
        kind = word if space and word in ("lgsim", "config") else "summary"
        key, eq, value = rest.partition("=")
        problems = {
            "a '# lgsim' line that is not the first": kind == "lgsim" and k > 0,
            "a config line after a summary line": _RANKS[kind] < rank,
            "a config line with no '='": kind == "config" and not eq,
            f"config key {key!r} given twice": kind == "config" and key in meta["config"],
        }
        problem = next((problem for problem, found in problems.items() if found), None)
        if problem:
            raise ValueError(f"{path}: line {i}: {problem}")
        rank = _RANKS[kind]
        if kind == "lgsim":
            meta["command"] = rest
        elif kind == "config":
            meta["config"][key] = value
        else:
            meta["summary"].append(ln[1:].strip())
    if at is None:
        raise ValueError(f"{path}: no header line found")
    header = numbered[at][1].split(",")
    if header != list(_schema(path, meta["command"])):
        raise _column_error(path, meta["command"], header)
    rows: list[dict] = []
    for i, ln in numbered[at + 1 :]:
        if ln.startswith("#"):
            raise ValueError(f"{path}: line {i}: a comment line after the header")
        if ln == numbered[at][1]:
            raise ValueError(f"{path}: line {i}: a second header line")
        cells = ln.split(",")
        if len(cells) != len(header):
            problem = f"row has {len(cells)} cells, header has {len(header)}"
            raise ValueError(f"{path}: line {i}: {problem}")
        rows.append({k: (None if c == "" else c) for k, c in zip(header, cells)})
    return meta, rows


def _no_repeats(pairs: list) -> dict:
    keys = [k for k, _ in pairs]
    if len(set(keys)) != len(keys):
        raise ValueError("a repeated key")
    return dict(pairs)


def read_jsonl_table(path) -> tuple[dict, list[dict]]:
    """(meta, rows) of a JSONL table, each line by ``json.loads``."""
    (_, first), *numbered = _numbered(path)
    first = json.loads(first, object_pairs_hook=_no_repeats)
    given = first.get("meta") if type(first) is dict else None
    kinds = {"command": str, "config": dict, "summary": list}
    if type(given) is not dict or any(type(given.get(k, t())) is not t for k, t in kinds.items()):
        raise ValueError(f"{path}: no meta object of a string command, object config, list summary")
    meta = {"command": None, "config": {}, "summary": [], **given}
    keys = set(_schema(path, meta["command"]))
    rows = [json.loads(ln, object_pairs_hook=_no_repeats) for _, ln in numbered]
    if any(type(row) is not dict or set(row) != keys for row in rows):
        raise ValueError(f"{path}: a row that is not an object of the schema's keys")
    return meta, [{k: (None if v == "" else v) for k, v in row.items()} for row in rows]
