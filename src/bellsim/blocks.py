"""Every op kind as a dense block, restated from the optics for the oracle.

The sparse engine runs column functions (``elements.ACTIONS``, the
canonical gates among them).  This module states each kind a second
time, from the physics and not from that code, as numpy index arithmetic over a
space's whole dense basis, so the dense oracle checks the engine instead
of copying it.  Mode j is (path, l, pol) with j = (path * n + l + lmax) * 2
+ pol, n = 2 lmax + 1 and pol 0 = H, 1 = V (``ModeSpace.modes`` order).

``block(spec, axis)`` gives one op's matrix as its entries in
source-column order, and the columns it can take.  A spec is a placed
element, a canonical gate included.  Off the placed paths a column is
the unit one.  A domain limit is an index mask: a
column whose image would leave |l| <= lmax, or that a sign-sorting device
receives outside l = +1/-1, is invalid and has no entries.

The physics, in the (H, V) basis:

* QWP at -pi/4: [[1, i], [i, 1]] / sqrt 2.  HWP(theta): [[cos 2theta,
  sin 2theta], [sin 2theta, -cos 2theta]].
* q-plate (Marrucci et al., PRL 96, 163905, 2006): |L,l> -> |R,l+2q> and
  |R,l> -> |L,l-2q>, i.e. |R><L| on l + 2q plus |L><R| on l - 2q, with
  sqrt 2 |L> = (1, i) and sqrt 2 |R> = (1, -i) as in ``state``.
* spiral plate: l -> l + l0.  Dove prism at alpha: image inversion
  l -> -l with phase i e^{i 2 alpha l}; the mirror is alpha = 0.
  Phase plate: e^{i phi} on the selected pol and l only.
* BS on (x, y): the path matrix [[1, i], [i, 1]] / sqrt 2.  PBS: H keeps
  its path, V crosses.  OAM sorter (Leach et al., PRL 88, 257901, 2002):
  a path permutation on l = +/-1, +1 keeping its path.
* canonical gates: ``p_cos`` shifts H by +2q and V by -2q; ``oh`` is the
  Hadamard [[1, 1], [1, -1]] / sqrt 2 on l = +/-1; ``dp_stage`` is the
  phase-free l -> -l.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .state import _INV_SQRT2, POLARIZATIONS, ModeSpace


class Axis(NamedTuple):
    """A space's dense basis as index arrays over its modes j."""

    lmax: int
    paths: tuple[str, ...]
    j: np.ndarray
    pol: np.ndarray
    oam: np.ndarray
    path: np.ndarray

    def to_path(self, target: int) -> np.ndarray:
        """Each mode's index moved to path ``target``, same l and pol."""
        return self.j + (target - self.path) * 2 * (2 * self.lmax + 1)

    def outside(self, oam: np.ndarray) -> np.ndarray:
        """Where an image's l would leave |l| <= lmax."""
        return np.abs(oam) > self.lmax

    def unsortable(self) -> np.ndarray:
        """Where a sign-sorting device receives l outside +1/-1."""
        return np.abs(self.oam) != 1


def axis(space: ModeSpace) -> Axis:
    n = 2 * space.lmax + 1
    j = np.arange(space.dimension)
    return Axis(space.lmax, space.paths, j, j % 2, (j // 2) % n - space.lmax, j // (2 * n))


_SQRT2_L = np.array([1, 1j])
_SQRT2_R = np.array([1, -1j])
_QWP = np.array([[1, 1j], [1j, 1]]) * _INV_SQRT2
_R_FROM_L = np.outer(_SQRT2_R, _SQRT2_L.conj()) / 2
_L_FROM_R = np.outer(_SQRT2_L, _SQRT2_R.conj()) / 2


def _jones(ax: Axis, jones: np.ndarray, shift: int = 0) -> list:
    """Jones matrix ``jones[out, in]`` on the polarization, landing on l + shift."""
    h = ax.j - ax.pol + 2 * shift
    return [(h, jones[0, ax.pol]), (h + 1, jones[1, ax.pol])]


def _hwp(ax: Axis, theta: float) -> tuple:
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    return _jones(ax, np.array([[c2, s2], [s2, -c2]], dtype=complex)), False


def _qp(ax: Axis, q) -> tuple:
    s = round(2 * q)
    terms = _jones(ax, _R_FROM_L, s) + _jones(ax, _L_FROM_R, -s)
    return terms, ax.outside(ax.oam + s) | ax.outside(ax.oam - s)


def _spp(ax: Axis, l: int) -> tuple:
    return [(ax.j + 2 * l, 1.0)], ax.outside(ax.oam + l)


def _dove(ax: Axis, alpha: float) -> tuple:
    phase = [1j * complex(math.cos(2 * alpha * l), math.sin(2 * alpha * l)) for l in range(-ax.lmax, ax.lmax + 1)]
    return [(ax.j - 4 * ax.oam, np.array(phase)[ax.oam + ax.lmax])], False


def _pp(ax: Axis, phi: float, pol: str | None = None, oam: int | None = None) -> tuple:
    selected = np.ones(len(ax.j), dtype=bool)
    if pol is not None:
        selected &= ax.pol == POLARIZATIONS.index(pol)
    if oam is not None:
        selected &= ax.oam == oam
    return [(ax.j, np.where(selected, complex(math.cos(phi), math.sin(phi)), 1.0))], False


def _bs(ax: Axis, x: int, y: int) -> tuple:
    # column x of the path matrix, then column y: reflection picks up i
    return [(ax.to_path(p), np.where(ax.path == p, _INV_SQRT2, 1j * _INV_SQRT2)) for p in (x, y)], False


def _swap(ax: Axis, x: int, y: int, keep: np.ndarray) -> list:
    """Unit path permutation on (x, y): ``keep`` modes stay, the others cross."""
    return [(np.where(keep, ax.j, ax.to_path(x + y - ax.path)), 1.0)]


def _p_cos(ax: Axis, q) -> tuple:
    shift = round(2 * q) * (1 - 2 * ax.pol)  # +2q on H, -2q on V
    return [(ax.j + 2 * shift, 1.0)], ax.outside(ax.oam + shift)


def _oh(ax: Axis) -> tuple:
    to_plus, to_minus = ax.j + 2 * (1 - ax.oam), ax.j - 2 * (1 + ax.oam)
    return [(to_plus, _INV_SQRT2), (to_minus, np.where(ax.oam == 1, _INV_SQRT2, -_INV_SQRT2))], ax.unsortable()


#: kind -> (axis, paths as indices, params) -> (terms, columns outside its domain);
#: a term is (target index, coefficient) per source mode, read on placed paths only
BLOCKS = {
    "qwp": lambda ax, paths, p: (_jones(ax, _QWP), False),
    "hwp": lambda ax, paths, p: _hwp(ax, float(p["theta"])),
    "qp": lambda ax, paths, p: _qp(ax, p["q"]),
    "spp": lambda ax, paths, p: _spp(ax, int(p["l"])),
    "dp": lambda ax, paths, p: _dove(ax, float(p["alpha"])),
    "pp": lambda ax, paths, p: _pp(ax, float(p["phi"]), p.get("pol"), p.get("oam")),
    "mirror": lambda ax, paths, p: _dove(ax, 0.0),
    "bs": lambda ax, paths, p: _bs(ax, *paths),
    "pbs": lambda ax, paths, p: (_swap(ax, *paths, ax.pol == 0), False),
    "oam_sorter": lambda ax, paths, p: (_swap(ax, *paths, ax.oam == 1), ax.unsortable()),
    "dl": lambda ax, paths, p: ([(ax.j, 1.0)], False),
    "p_cos": lambda ax, paths, p: _p_cos(ax, p["q"]),
    "oh": lambda ax, paths, p: _oh(ax),
    "dp_stage": lambda ax, paths, p: ([(ax.j - 4 * ax.oam, 1.0)], False),
}


def block(spec, ax: Axis) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One op's (rows, cols, coeffs) in source-column order, and its valid columns."""
    placed = [ax.paths.index(p) for p in spec.paths]
    terms, outside = BLOCKS[spec.kind](ax, placed, spec.params)
    on = np.zeros(len(ax.paths), dtype=bool)
    on[placed] = True
    on = on[ax.path]
    rows = np.empty((len(ax.j), len(terms)), dtype=np.intp)
    coeffs = np.empty(rows.shape, dtype=np.complex128)
    for k, (target, coeff) in enumerate(terms):
        rows[:, k], coeffs[:, k] = target, coeff
    rows[~on, 0], coeffs[~on, 0] = ax.j[~on], 1.0  # a unit column off the placed paths
    valid = ~(on & outside)
    keep = valid[:, None] & (on[:, None] | (np.arange(len(terms)) == 0))  # one term off the placed paths
    cols = np.broadcast_to(ax.j[:, None], rows.shape)
    return rows[keep], cols[keep], coeffs[keep], valid
