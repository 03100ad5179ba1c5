"""Optical elements and the canonical gates as sparse column maps.

Each element is described by an :class:`Element` record (kind + placement +
parameters) and compiled into a *column function*

    column(mode) -> [(mode_out, coefficient), ...]

giving the image of one basis mode. ``ACTIONS`` maps each kind to a
builder ``(element, space) -> action``, where the action says only what
the element does to a mode on one of its placed paths. ``element_column``
checks the placement against the space and wraps the action so that
modes on other paths pass through unchanged, so every column function is
total on the mode space. Two helpers hold the limits shared by several
devices: ``_check_lmax`` raises ``OamOverflow`` when a shift would leave
+-lmax, and ``_check_sign`` raises ``UnsortableOam`` outside ``SIGN_DOMAIN``
(l=+1/-1, the domain the detectors and the validator read too). The
table also holds the canonical truth tables of three composite gates
(their decompositions live in :mod:`bellsim.gates`), so every op the
engine runs is a placed element. All elements are single-photon; lifting
to the two-photon state lives in the engine.

Pinned single-element conventions:

* QWP (fast axis at -pi/4):  U = [[1, i], [i, 1]] / sqrt(2) on (H, V),
  so H -> L and R -> H exactly, while V -> i R and L -> i V.
* HWP(theta): [[cos 2theta, sin 2theta], [sin 2theta, -cos 2theta]].
* q-plate QP(q): |L,l> -> |R,l+2q>, |R,l> -> |L,l-2q>, unit phases.
* spiral plate SPP(l0): l -> l + l0, unit phase.
* dove prism DP(alpha): |l> -> i exp(i 2 alpha l) |-l>.
* mirror: |l> -> i |-l>, the dove prism at alpha=0.
* symmetric BS on (x, y): |x> -> (|x> + i|y>)/sqrt(2), |y> -> (i|x> + |y>)/sqrt(2).
* PBS on (x, y): H keeps its path, V swaps paths, unit phases.
* OAM sorter on (x, y): l=+1 keeps its path, l=-1 swaps; anything else is
  an error (the device cannot sort it).
* PP(phi): phase exp(i phi), optionally restricted to one polarization
  (H or V) and/or one OAM value (the restricted forms are the calibration
  plates used inside composite gates).
* canonical gates: p_cos(q) maps |H,l> -> |H,l+2q> and |V,l> -> |V,l-2q>;
  oh is the Hadamard on l=+1/-1 (anything else is an error); dp_stage is
  the phase-free flip |l> -> |-l>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import NonPhysicalQ, OamOverflow, SamePath, UnsortableOam
from .state import (
    _INV_SQRT2,
    POL_H,
    POL_V,
    BasisMode,
    ModeSpace,
    PhotonState,
    _clean,
)

__all__ = [
    "Element",
    "qwp",
    "hwp",
    "qp",
    "spp",
    "dp",
    "pp",
    "mirror",
    "bs",
    "pbs",
    "oam_sorter",
    "dl",
    "element_column",
    "apply_element",
    "apply_elements",
]

#: image of one basis mode: [(mode_out, coefficient), ...]
Terms = list[tuple[BasisMode, complex]]
ColumnFn = Callable[[BasisMode], Terms]

#: kinds placed on exactly two ordered paths; every other kind takes one or more
TWO_PATH_KINDS = frozenset({"bs", "pbs", "oam_sorter"})

#: the only OAM values the sign-sorting devices (and the detectors behind them) resolve
SIGN_DOMAIN = (1, -1)


@dataclass(frozen=True)
class Element:
    """A placed element: an optical device, or a canonical gate's truth table.

    Args:
        kind: one of qwp, hwp, qp, spp, dp, pp, mirror, bs, pbs,
            oam_sorter, dl, or a canonical gate: p_cos, oh, dp_stage.
        paths: placement; one or more paths for per-path elements, exactly
            two (ordered) for bs/pbs/oam_sorter.
        params: kind-specific parameters (theta, q, l, alpha, phi, pol, oam).
    """

    kind: str
    paths: tuple[str, ...]
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind in TWO_PATH_KINDS:
            if len(self.paths) != 2:
                raise SamePath(f"{self.kind} needs exactly two paths, got {self.paths}")
            if self.paths[0] == self.paths[1]:
                raise SamePath(f"{self.kind} placed twice on path {self.paths[0]!r}")
        elif not self.paths:
            raise ValueError(f"{self.kind} needs at least one path")

    def describe(self) -> str:
        ps = ",".join(self.paths)
        if self.params:
            kv = " ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
            return f"{self.kind}({kv})@{ps}"
        return f"{self.kind}@{ps}"


# -- factories ----------------------------------------------------------


def _paths_tuple(paths: Union[str, Iterable[str]]) -> tuple[str, ...]:
    if isinstance(paths, str):
        return (paths,)
    return tuple(paths)


def qwp(paths: Union[str, Iterable[str]]) -> Element:
    """Quarter-wave plate at the fixed working angle -pi/4."""
    return Element("qwp", _paths_tuple(paths))


def hwp(theta: float, paths: Union[str, Iterable[str]]) -> Element:
    """Half-wave plate with fast axis at angle theta."""
    return Element("hwp", _paths_tuple(paths), {"theta": float(theta)})


def qp(q: Union[Fraction, float, int], paths: Union[str, Iterable[str]]) -> Element:
    """q-plate of charge q; 2q must be an integer."""
    qp_shift(q)  # raises NonPhysicalQ here, not only when the column is built
    return Element("qp", _paths_tuple(paths), {"q": q})


def qp_shift(q: Union[Fraction, float, int]) -> int:
    """OAM shift 2q of a q-plate of charge q.

    Raises:
        NonPhysicalQ: if 2q is not an integer.
    """
    doubled = 2 * Fraction(q) if isinstance(q, (Fraction, int)) else 2.0 * q
    if isinstance(doubled, Fraction):
        if doubled.denominator != 1:
            raise NonPhysicalQ(f"2q must be an integer, got q={q}")
        return int(doubled)
    rounded = round(doubled)
    if abs(doubled - rounded) > 1e-9:
        raise NonPhysicalQ(f"2q must be an integer, got q={q}")
    return int(rounded)


def spp(l: int, paths: Union[str, Iterable[str]]) -> Element:
    """Spiral phase plate adding l quanta of OAM."""
    return Element("spp", _paths_tuple(paths), {"l": int(l)})


def dp(alpha: float, paths: Union[str, Iterable[str]]) -> Element:
    """Dove prism rotated by alpha."""
    return Element("dp", _paths_tuple(paths), {"alpha": float(alpha)})


def pp(
    phi: float,
    paths: Union[str, Iterable[str]],
    pol: str | None = None,
    oam: int | None = None,
) -> Element:
    """Phase plate exp(i phi); optional polarization (H or V) / OAM selectors."""
    params: dict[str, object] = {"phi": float(phi)}
    if pol is not None:
        params["pol"] = pol
    if oam is not None:
        params["oam"] = int(oam)
    return Element("pp", _paths_tuple(paths), params)


def mirror(paths: Union[str, Iterable[str]]) -> Element:
    return Element("mirror", _paths_tuple(paths))


def bs(path_x: str, path_y: str) -> Element:
    """Symmetric 50:50 beam splitter between two ordered paths."""
    return Element("bs", (path_x, path_y))


def pbs(path_x: str, path_y: str) -> Element:
    """Polarizing beam splitter: H transmits (keeps path), V reflects (swaps)."""
    return Element("pbs", (path_x, path_y))


def oam_sorter(path_x: str, path_y: str) -> Element:
    """OAM-sign splitter on l=+1/-1: +1 keeps its path, -1 swaps."""
    return Element("oam_sorter", (path_x, path_y))


def dl(paths: Union[str, Iterable[str]]) -> Element:
    """Delay line; timing only, identity on the mode space."""
    return Element("dl", _paths_tuple(paths))


# -- column compilation -------------------------------------------------


def _placed(paths: Iterable[str], action: ColumnFn) -> ColumnFn:
    """Total column: ``action`` on the placed paths, identity elsewhere."""
    scope = frozenset(paths)

    def col(mode: BasisMode) -> Terms:
        if mode.path not in scope:
            return [(mode, 1.0 + 0.0j)]
        return action(mode)

    return col


def _check_lmax(space: ModeSpace, device: str, oam: int, *targets: int) -> None:
    """Raise OamOverflow if a device would drive ``oam`` past the bound."""
    for target in targets:
        if abs(target) > space.lmax:
            shown = "/".join(f"{t:+d}" for t in targets)
            raise OamOverflow(
                f"{device} drives OAM {oam:+d} to {shown}, outside lmax={space.lmax}"
            )


def _check_sign(mode: BasisMode, device: str, paths: tuple[str, ...]) -> None:
    """Raise UnsortableOam unless the mode carries l=+1 or l=-1."""
    if mode.oam not in SIGN_DOMAIN:
        raise UnsortableOam(
            f"{device} on ({','.join(paths)}) received l={mode.oam:+d}; its domain is l=+1/-1"
        )


def _jones(
    h_image: tuple[complex, complex], v_image: tuple[complex, complex], shift: int = 0
) -> ColumnFn:
    """Polarization map H -> h_image, V -> v_image, each given as its (H, V)
    coefficients, landing on OAM l + shift."""

    def act(mode: BasisMode) -> Terms:
        ch, cv = h_image if mode.pol == POL_H else v_image
        oam = mode.oam + shift
        return [(BasisMode(POL_H, oam, mode.path), ch), (BasisMode(POL_V, oam, mode.path), cv)]

    return act


def _hwp(element: Element, space: ModeSpace) -> ColumnFn:
    theta = float(element.params["theta"])  # type: ignore[arg-type]
    c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
    return _jones((complex(c2), complex(s2)), (complex(s2), complex(-c2)))


def _qp(element: Element, space: ModeSpace) -> ColumnFn:
    """L -> R on l + 2q and R -> L on l - 2q, written as one branch per OAM."""
    shift = qp_shift(element.params["q"])  # type: ignore[arg-type]
    up = _jones((0.5 + 0j, -0.5j), (-0.5j, -0.5 + 0j), shift)
    down = _jones((0.5 + 0j, 0.5j), (0.5j, -0.5 + 0j), -shift)

    def act(mode: BasisMode) -> Terms:
        _check_lmax(space, "q-plate", mode.oam, mode.oam + shift, mode.oam - shift)
        return up(mode) + down(mode)

    return act


def _shift(space: ModeSpace, device: str, on_h: int, on_v: int) -> ColumnFn:
    """Unit-phase OAM shift by ``on_h`` for H and ``on_v`` for V."""

    def act(mode: BasisMode) -> Terms:
        new = mode.oam + (on_h if mode.pol == POL_H else on_v)
        _check_lmax(space, device, mode.oam, new)
        return [(BasisMode(mode.pol, new, mode.path), 1.0 + 0.0j)]

    return act


def _spp(element: Element, space: ModeSpace) -> ColumnFn:
    l0 = int(element.params["l"])  # type: ignore[arg-type]
    return _shift(space, "spiral plate", l0, l0)


def _flip(alpha: float) -> ColumnFn:
    """Dove prism rotated by ``alpha``; at alpha=0 it is the mirror."""

    def act(mode: BasisMode) -> Terms:
        coeff = 1j * complex(math.cos(2 * alpha * mode.oam), math.sin(2 * alpha * mode.oam))
        return [(BasisMode(mode.pol, -mode.oam, mode.path), coeff)]

    return act


def _pp(element: Element, space: ModeSpace) -> ColumnFn:
    phi = float(element.params["phi"])  # type: ignore[arg-type]
    pol_sel = element.params.get("pol")
    oam_sel = element.params.get("oam")
    if pol_sel not in (None, POL_H, POL_V):
        raise ValueError(f"pol selector must be H or V, got {pol_sel!r}")
    coeff = complex(math.cos(phi), math.sin(phi))

    def act(mode: BasisMode) -> Terms:
        if pol_sel is not None and mode.pol != pol_sel:
            return [(mode, 1.0 + 0.0j)]
        if oam_sel is not None and mode.oam != oam_sel:
            return [(mode, 1.0 + 0.0j)]
        return [(mode, coeff)]

    return act


def _bs(element: Element, space: ModeSpace) -> ColumnFn:
    px, py = element.paths

    def act(mode: BasisMode) -> Terms:
        if mode.path == px:
            return [
                (mode, complex(_INV_SQRT2)),
                (BasisMode(mode.pol, mode.oam, py), 1j * _INV_SQRT2),
            ]
        return [
            (BasisMode(mode.pol, mode.oam, px), 1j * _INV_SQRT2),
            (mode, complex(_INV_SQRT2)),
        ]

    return act


def _pbs(element: Element, space: ModeSpace) -> ColumnFn:
    px, py = element.paths

    def act(mode: BasisMode) -> Terms:
        if mode.pol == POL_H:
            return [(mode, 1.0 + 0.0j)]
        other = py if mode.path == px else px
        return [(BasisMode(mode.pol, mode.oam, other), 1.0 + 0.0j)]

    return act


def _oam_sorter(element: Element, space: ModeSpace) -> ColumnFn:
    px, py = element.paths

    def act(mode: BasisMode) -> Terms:
        _check_sign(mode, "OAM sorter", element.paths)
        if mode.oam == 1:
            return [(mode, 1.0 + 0.0j)]
        other = py if mode.path == px else px
        return [(BasisMode(mode.pol, mode.oam, other), 1.0 + 0.0j)]

    return act


def _p_cos(element: Element, space: ModeSpace) -> ColumnFn:
    shift = qp_shift(element.params["q"])  # type: ignore[arg-type]
    return _shift(space, "pol-controlled shift", shift, -shift)


def _oh(element: Element, space: ModeSpace) -> ColumnFn:
    def act(mode: BasisMode) -> Terms:
        _check_sign(mode, "OAM Hadamard", element.paths)
        plus = BasisMode(mode.pol, 1, mode.path)
        minus = BasisMode(mode.pol, -1, mode.path)
        if mode.oam == 1:
            return [(plus, complex(_INV_SQRT2)), (minus, complex(_INV_SQRT2))]
        return [(plus, complex(_INV_SQRT2)), (minus, complex(-_INV_SQRT2))]

    return act


def _oam_flip(mode: BasisMode) -> Terms:
    return [(BasisMode(mode.pol, -mode.oam, mode.path), 1.0 + 0.0j)]


def _identity(mode: BasisMode) -> Terms:
    return [(mode, 1.0 + 0.0j)]


#: QWP images of H and V, each as (H, V) coefficients
_QWP = ((complex(_INV_SQRT2), 1j * _INV_SQRT2), (1j * _INV_SQRT2, complex(_INV_SQRT2)))

#: element kind -> builder (element, space) -> action on a mode of a placed path
ACTIONS: dict[str, Callable[[Element, ModeSpace], ColumnFn]] = {
    "qwp": lambda element, space: _jones(*_QWP),
    "hwp": _hwp,
    "qp": _qp,
    "spp": _spp,
    "dp": lambda element, space: _flip(float(element.params["alpha"])),  # type: ignore[arg-type]
    "pp": _pp,
    "mirror": lambda element, space: _flip(0.0),
    "bs": _bs,
    "pbs": _pbs,
    "oam_sorter": _oam_sorter,
    "dl": lambda element, space: _identity,
    "p_cos": _p_cos,
    "oh": _oh,
    "dp_stage": lambda element, space: _oam_flip,
}


def element_column(element: Element, space: ModeSpace) -> ColumnFn:
    """Compile a placed element to a total column function on the space.

    Raises:
        UnknownPath: if the placement references an undeclared path.
        ValueError: if the kind has no entry in ``ACTIONS``.
    """
    for p in element.paths:
        space.check_path(p)
    make = ACTIONS.get(element.kind)
    if make is None:
        raise ValueError(f"unknown element kind {element.kind!r}")
    return _placed(element.paths, make(element, space))


# -- application to single-photon states --------------------------------


def apply_column(state: PhotonState, column: ColumnFn) -> PhotonState:
    """Apply a column function linearly to a sparse state."""
    out: dict[BasisMode, complex] = {}
    for mode, amp in state.amplitudes.items():
        for new_mode, coeff in column(mode):
            out[new_mode] = out.get(new_mode, 0.0 + 0.0j) + amp * coeff
    return PhotonState(state.space, _clean(out))


def apply_element(state: PhotonState, element: Element) -> PhotonState:
    return apply_column(state, element_column(element, state.space))


def apply_elements(state: PhotonState, elements: Iterable[Element]) -> PhotonState:
    for el in elements:
        state = apply_element(state, el)
    return state
