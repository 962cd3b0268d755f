"""Hot numeric paths, vectorized with numpy over the theta grid or shot axis.

These functions trust their callers: inputs are validated by the public
wrappers in ``sampling`` and ``sweeps``, never here.  The protocol kernels
hard-code the measurement family (sz and the tilted axis in the x-z plane)
because that is what makes them cheap; anything more general goes through
the exact engine in ``protocol``.

They also rely on the dynamics family: every gap that
``dynamics.lindblad_propagator`` returns has ``G[0, 0] == 1`` and exact zeros
off its x and y-z blocks (the tests check this), and ``sweeps`` passes no
other gap.  Every gap and measurement channel is then unital, so the state
stays I/2 through the box and ``protocol_lg`` walks only ``{Q1, rho}/2``;
its matvecs stay dense, as the branch's zero pattern alternates with the
event kind.  ``_anti_z`` keeps its zero terms because c23 and c13' reach the
tables with the sign of a zero.  ``battery_eps`` reads only G11 and G33 of
each gap: a product it drops is an exact zero times a finite number, which
can flip only the sign of a zero, and epsilon sums absolute values.  It
takes the battery's layout from ``protocol._BATTERY_LAYOUT``; sz enters as
the numbers (0, 1), whose products equal those of arrays of zeros and ones.

The sampler relies on the collapse: after event ``j`` the conditional Bloch
vector is exactly ``+/- axes[j]``, so ``p(+1)`` at event ``j + 1`` takes one
of two values.  ``p_plus_table`` computes both, term by term in the order of
the per-shot recurrence ``p = (1 + q.(aff + lin r))/2``, and ``word_cutoffs``
turns them into cut-offs ``ceil(p * 2**53)`` in [0, 2**53]: numpy makes the
uniform ``d * 2**-53`` of a Philox word's draw ``d = w >> 11``, and it is below
``p`` exactly when ``d`` is below the cut-off, a certain outcome included.
``sampling._cutoffs`` composes the two once per run; ``outcome_columns`` then
walks each shot through the two-value lookup, one compare per side.
"""

from __future__ import annotations

import numpy as np

from .protocol import _BATTERY_LAYOUT

__all__ = [
    "protocol_lg",
    "battery_eps",
    "p_plus_table",
    "word_cutoffs",
    "outcome_columns",
]


def _project(s, c, v1, v3):
    """The x and z coefficients ``v1``, ``v3`` projected onto the x-z axis
    ``(s, c)`` (the projected y coefficient is 0)."""
    pr = s * v1 + c * v3
    return pr * s, pr * c


def _anti_z(m, v, st, ct):
    """``2 (m {sigma_theta, v}/2)_z`` for branch vectors ``v`` (y coefficient 0)."""
    pr = st * v[1] + ct * v[3]
    return 2.0 * (m[3, 0] * pr + m[3, 1] * (v[0] * st) + m[3, 3] * (v[0] * ct))


def protocol_lg(thetas, n, gap, gap13):
    """Boxed-protocol correlators over a theta grid: (c12, c23, c13_prime)."""
    thetas = np.asarray(thetas)
    st = np.sin(thetas)
    ct = np.cos(thetas)
    x = 0.5 * gap[:, 0]  # the state after the first gap, and after every later one
    y = np.empty((4, thetas.shape[0]))  # {Q1, rho}/2
    y[0] = st * x[1] + ct * x[3]
    y[1] = x[0] * st
    y[2] = 0.0
    y[3] = x[0] * ct
    for k in range(2 * n + 1):
        y = gap @ y
        if k % 2 == 0:
            y[1:3] = 0.0
        else:
            y[1], y[3] = _project(st, ct, y[1], y[3])
            y[2] = 0.0
    y = gap @ y
    c12 = 2.0 * (st * y[1] + ct * y[3])
    return c12, _anti_z(gap, x, st, ct), _anti_z(gap13, x, st, ct)


def battery_eps(thetas, gap, gap2):
    """Per-experiment adroitness of the four-member battery, shape (B, 4)."""
    thetas = np.asarray(thetas)
    pair = ((0, 1), (np.sin(thetas), np.cos(thetas)))  # (x, z) of sz and sigma_theta
    out = np.empty((thetas.shape[0], 4))
    for e, layout in enumerate(_BATTERY_LAYOUT):
        (q1x, q1z), (qpx, qpz), (q3x, q3z) = (pair[k] for k in layout)
        eps = np.zeros_like(thetas)
        for s1 in (1.0, -1.0):
            # P_s1 (I/2) P_s1 = (1/4, s1 q1x/4, 0, s1 q1z/4), whose 1/4 no step changes
            w1, w3 = 0.25 * s1 * q1x, 0.25 * s1 * q1z
            a1, a3 = _project(qpx, qpz, gap[1, 1] * w1, gap[3, 3] * w3)
            # q3's Bloch coefficient with and without the probe
            tw = q3x * (gap[1, 1] * a1) + q3z * (gap[3, 3] * a3)
            tn = q3x * (gap2[1, 1] * w1) + q3z * (gap2[3, 3] * w3)
            for s3 in (1.0, -1.0):
                eps = eps + np.abs((0.25 + s3 * tw) - (0.25 + s3 * tn))
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
    """Integer cut-offs on 53-bit draws equivalent to ``u < p``, as uint64.

    numpy turns a Philox word ``w`` into ``u = d * 2**-53`` with the draw
    ``d = w >> 11``, so ``u < p`` holds exactly when ``d < c = ceil(p * 2**53)``
    (the scaling by a power of two and the ``ceil`` are exact).  ``p`` is
    clipped to [0, 1] first, NaN counting as 0 (``u < nan`` is never true), so
    ``c`` lies in [0, 2**53]: p = 1 is 2**53, above every draw.
    """
    # fmax/fmin return the number when the other argument is NaN
    c = np.ceil(np.fmin(np.fmax(np.asarray(p, dtype=np.float64), 0.0), 1.0) * 2.0**53)
    return c.astype(np.uint64)


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


def outcome_columns(draws, cut):
    """Yield, event by event, which shots of ``draws`` give +1 (a bool each).

    ``draws`` is (..., shots, k) draws ``w >> 11``, leading axes holding runs
    side by side.  A shot gives +1 when its draw is below ``cut[j, side]``,
    the ``word_cutoffs`` of event ``j`` after a +1 (side 0) or -1 (side 1)
    at the event before: scalars, or (runs, 1) arrays for runs with their
    own cut-offs.  Event 0 reads side 0.  Each yielded array is new.
    """
    # after event 0, each shot compares against both sides' cut-offs and keeps
    # its own side's hit: (pos & a) | (~pos & b), built in place
    pos = draws[..., 0] < cut[0, 0]
    yield pos
    for j in range(1, draws.shape[-1]):
        a = draws[..., j] < cut[j, 0]
        b = draws[..., j] < cut[j, 1]
        a &= pos
        pos = ~pos
        pos &= b
        pos |= a
        yield pos
