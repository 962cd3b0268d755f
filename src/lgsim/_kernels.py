"""Hot numeric paths, vectorized with numpy over the theta grid or shot axis.

These functions trust their callers: inputs are validated by the public
wrappers in ``sampling`` and ``sweeps``, not here (apart from the shape and
``n`` checks below).  The protocol kernels hard-code the measurement family
(sz and the tilted axis in the x-z plane) because that is what makes them
cheap; anything more general goes through the exact engine in ``protocol``.
Dephasing along an x-z axis leaves the y component of a branch vector exactly
zero, so the one-shot matvecs below skip the terms that are structurally
zero; the in-loop matvecs stay dense because the zero pattern alternates with
the event kind.

The sampler relies on the collapse: after event ``j`` the conditional Bloch
vector is exactly ``+/- axes[j]``, so ``p(+1)`` at event ``j + 1`` takes one
of two values.  Both are computed once per schedule, term by term in the
order of the per-shot recurrence ``p = (1 + q.(aff + lin r))/2``, and turned
into integer cut-offs on raw 64-bit Philox words (``word_cutoffs``): the
uniform numpy would make of a word ``w`` is ``(w >> 11) * 2**-53``, and it is
below ``p`` exactly when ``w`` is below the cut-off.  Each shot then walks a
two-value lookup of cut-offs, with no doubles drawn or compared.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "protocol_lg",
    "battery_eps",
    "p_plus_table",
    "word_cutoffs",
    "outcome_columns",
    "sample_paths",
]


def _grid(thetas):
    arr = np.ascontiguousarray(thetas, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"theta grid must be one dimensional, got shape {arr.shape}")
    return arr


def _ptm_arg(m, name):
    arr = np.ascontiguousarray(m, dtype=np.float64)
    if arr.shape != (4, 4):
        raise ValueError(f"{name} must be a 4x4 transfer matrix, got shape {arr.shape}")
    return arr


def protocol_lg(thetas, n, gap, gap13):
    """Boxed-protocol correlators over a theta grid: (c12, c23, c13_prime)."""
    thetas = _grid(thetas)
    if n != int(n) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n}")
    n = int(n)
    gap = _ptm_arg(gap, "gap")
    gap13 = _ptm_arg(gap13, "gap13")
    st = np.sin(thetas)
    ct = np.cos(thetas)
    x = 0.5 * np.repeat(gap[:, :1], thetas.shape[0], axis=1)  # (4, B)
    pr = st * x[1] + ct * x[3]
    y = np.empty_like(x)
    y[0] = pr
    y[1] = x[0] * st
    y[2] = 0.0
    y[3] = x[0] * ct
    x[1] = pr * st
    x[2] = 0.0
    x[3] = pr * ct
    for k in range(2 * n + 1):
        x = gap @ x
        y = gap @ y
        if k % 2 == 0:
            x[1] = 0.0
            x[2] = 0.0
            y[1] = 0.0
            y[2] = 0.0
        else:
            pr = st * x[1] + ct * x[3]
            x[1] = pr * st
            x[2] = 0.0
            x[3] = pr * ct
            pr = st * y[1] + ct * y[3]
            y[1] = pr * st
            y[2] = 0.0
            y[3] = pr * ct
    x = gap @ x
    y = gap @ y
    c12 = 2.0 * (st * y[1] + ct * y[3])
    pr = st * x[1] + ct * x[3]
    z0 = pr
    z1 = x[0] * st
    z3 = x[0] * ct
    c23 = 2.0 * (gap[3, 0] * z0 + gap[3, 1] * z1 + gap[3, 3] * z3)
    w = 0.5 * gap[:, 0]
    pr = st * w[1] + ct * w[3]
    b0 = pr
    b1 = w[0] * st
    b3 = w[0] * ct
    c13p = 2.0 * (gap13[3, 0] * b0 + gap13[3, 1] * b1 + gap13[3, 3] * b3)
    return c12, c23, c13p


def battery_eps(thetas, gap, gap2):
    """Per-experiment adroitness of the four-member battery, shape (B, 4)."""
    thetas = _grid(thetas)
    gap = _ptm_arg(gap, "gap")
    gap2 = _ptm_arg(gap2, "gap2")
    st = np.sin(thetas)
    ct = np.cos(thetas)
    zero = np.zeros_like(st)
    one = np.ones_like(st)
    x0 = 0.5 * gap[0, 0]
    x1 = 0.5 * gap[1, 0]
    x3 = 0.5 * gap[3, 0]
    combos = (
        (st, ct, st, ct, zero, one),
        (st, ct, zero, one, zero, one),
        (zero, one, zero, one, st, ct),
        (zero, one, st, ct, st, ct),
    )
    out = np.empty((thetas.shape[0], 4))
    for e, (q1x, q1z, qpx, qpz, q3x, q3z) in enumerate(combos):
        eps = np.zeros_like(st)
        for s1 in (1.0, -1.0):
            amp = x0 + s1 * (q1x * x1 + q1z * x3)
            w0 = 0.5 * amp
            w1 = 0.5 * s1 * amp * q1x
            w3 = 0.5 * s1 * amp * q1z
            a0 = gap[0, 0] * w0 + gap[0, 1] * w1 + gap[0, 3] * w3
            a1 = gap[1, 0] * w0 + gap[1, 1] * w1 + gap[1, 3] * w3
            a3 = gap[3, 0] * w0 + gap[3, 1] * w1 + gap[3, 3] * w3
            pr = qpx * a1 + qpz * a3
            a1 = pr * qpx
            a3 = pr * qpz
            f0 = gap[0, 0] * a0 + gap[0, 1] * a1 + gap[0, 3] * a3
            f1 = gap[1, 0] * a0 + gap[1, 1] * a1 + gap[1, 3] * a3
            f3 = gap[3, 0] * a0 + gap[3, 1] * a1 + gap[3, 3] * a3
            g0 = gap2[0, 0] * w0 + gap2[0, 1] * w1 + gap2[0, 3] * w3
            g1 = gap2[1, 0] * w0 + gap2[1, 1] * w1 + gap2[1, 3] * w3
            g3 = gap2[3, 0] * w0 + gap2[3, 1] * w1 + gap2[3, 3] * w3
            for s3 in (1.0, -1.0):
                pw = f0 + s3 * (q3x * f1 + q3z * f3)
                pn = g0 + s3 * (q3x * g1 + q3z * g3)
                eps = eps + np.abs(pw - pn)
        out[:, e] = eps
    return out


def _p_plus(lin, aff, axes, r):
    """``p(+1) = (1 + q.(aff + lin r))/2`` written out term by term.

    The explicit sums fix the evaluation order (``@``/``einsum`` may reorder
    them or fuse multiply-adds), so these values match a per-shot recurrence
    bit for bit.  Arguments broadcast elementwise over leading axes.
    """
    rx, ry, rz = r[..., 0], r[..., 1], r[..., 2]
    nx = aff[..., 0] + (lin[..., 0, 0] * rx + lin[..., 0, 1] * ry + lin[..., 0, 2] * rz)
    ny = aff[..., 1] + (lin[..., 1, 0] * rx + lin[..., 1, 1] * ry + lin[..., 1, 2] * rz)
    nz = aff[..., 2] + (lin[..., 2, 0] * rx + lin[..., 2, 1] * ry + lin[..., 2, 2] * rz)
    return 0.5 * (1.0 + (axes[..., 0] * nx + axes[..., 1] * ny + axes[..., 2] * nz))


def word_cutoffs(p):
    """Integer cut-offs equivalent to ``u < p`` for the uniform a word maps to.

    numpy turns a Philox word ``w`` into ``u = (w >> 11) * 2**-53``, so
    ``u < p`` holds exactly when ``w >> 11 < c`` with ``c = ceil(p * 2**53)``
    (the scaling by a power of two and the ``ceil`` are exact), that is when
    ``w < c << 11``.  ``p`` is clipped to [0, 1] first, NaN counting as 0
    (``u < nan`` is never true).  ``c = 2**53`` needs the cut-off 2**64, which
    no uint64 holds; those entries get cut-off 0 and ``always`` True.  So for
    every uint64 ``w``, ``(w < cut) | always`` equals ``u < p``.
    """
    # fmax/fmin return the number when the other argument is NaN
    c = np.ceil(np.fmin(np.fmax(np.asarray(p, dtype=np.float64), 0.0), 1.0) * 2.0**53)
    always = c == 2.0**53
    cut = np.where(always, 0.0, c).astype(np.uint64) << np.uint64(11)
    return cut, always


def p_plus_table(lin, aff, axes, r0):
    """``p(+1)`` of each event after a +1 / -1 at the event before, shape (..., k, 2).

    Event 0 starts from ``r0`` on both sides.  ``axes`` is (k, 3), or has
    leading axes of runs that share ``lin``, ``aff`` and ``r0``.
    """
    # prev[..., j, 0] / prev[..., j, 1]: Bloch vector entering event j's gap
    # after a +1 / -1 at event j - 1
    prev = np.empty(axes.shape[:-1] + (2, 3))
    prev[..., 0, :, :] = r0
    prev[..., 1:, 0, :] = axes[..., :-1, :]
    prev[..., 1:, 1, :] = -axes[..., :-1, :]
    return _p_plus(lin[:, None], aff[:, None], axes[..., None, :], prev)


def _hits(words, cut, always):
    """Which ``words`` decide +1: below ``cut``, or any word where ``always``."""
    hit = words < cut
    if always.any():
        hit |= always
    return hit


def outcome_columns(words, cut, always):
    """Yield, event by event, which shots of ``words`` give +1 (a bool each).

    ``words`` is (..., shots, k), leading axes holding runs side by side.
    ``cut[j, side]`` and ``always[j, side]`` are ``word_cutoffs`` of event
    ``j`` after a +1 (side 0) or -1 (side 1) at the event before: scalars,
    or (runs, 1) arrays for runs with their own cut-offs.  Event 0 reads
    side 0.  Each yielded array is new.
    """
    # after event 0, each shot compares against both sides' cut-offs and keeps
    # its own side's hit: (pos & a) | (~pos & b), built in place
    pos = _hits(words[..., 0], cut[0, 0], always[0, 0])
    yield pos
    for j in range(1, words.shape[-1]):
        a = _hits(words[..., j], cut[j, 0], always[j, 0])
        b = _hits(words[..., j], cut[j, 1], always[j, 1])
        a &= pos
        pos = ~pos
        pos &= b
        pos |= a
        yield pos


def sample_paths(words, lin, aff, axes, r0, out):
    """Fill ``out`` with +1/-1 outcomes for pre-drawn Philox ``words``.

    ``words[s, j]`` is the raw uint64 that decides event ``j`` of shot ``s``:
    the outcome is +1 exactly when ``(words[s, j] >> 11) * 2**-53 < p(+1)``.
    """
    cut, always = word_cutoffs(p_plus_table(lin, aff, axes, r0))
    for j, pos in enumerate(outcome_columns(words, cut, always)):
        out[:, j] = pos
    out *= 2
    out -= 1
