"""Primitive optical elements as sparse column maps.

Each element is described by an :class:`Element` record (kind + placement +
parameters) and compiled into a *column function*

    column(mode) -> [(mode_out, coefficient), ...]

giving the image of one basis mode. Modes whose path is outside the
element's placement are passed through unchanged, so a column function is
always total on the mode space. All elements are single-photon; lifting to
the two-photon state lives in the engine.

Pinned single-element conventions:

* QWP (fast axis at -pi/4):  U = [[1, i], [i, 1]] / sqrt(2) on (H, V),
  so H -> L and R -> H exactly, while V -> i R and L -> i V.
* HWP(theta): [[cos 2theta, sin 2theta], [sin 2theta, -cos 2theta]].
* q-plate QP(q): |L,l> -> |R,l+2q>, |R,l> -> |L,l-2q>, unit phases.
* spiral plate SPP(l0): l -> l + l0, unit phase.
* dove prism DP(alpha): |l> -> i exp(i 2 alpha l) |-l>.
* mirror: |l> -> i |-l>.
* symmetric BS on (x, y): |x> -> (|x> + i|y>)/sqrt(2), |y> -> (i|x> + |y>)/sqrt(2).
* PBS on (x, y): H keeps its path, V swaps paths, unit phases.
* OAM sorter on (x, y): l=+1 keeps its path, l=-1 swaps; anything else is
  an error (the device cannot sort it).
* PP(phi): phase exp(i phi), optionally restricted to one polarization
  and/or one OAM value (the restricted forms are the calibration plates
  used inside composite gates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import NonPhysicalQ, OamOverflow, SamePath, UnsortableOam
from .state import (
    POL_H,
    POL_V,
    BasisMode,
    ModeSpace,
    PhotonState,
    _clean,
)

__all__ = [
    "Element",
    "ColumnFn",
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
    "TWO_PATH_KINDS",
    "qp_shift",
    "element_column",
    "apply_column",
    "apply_element",
    "apply_elements",
]

ColumnFn = Callable[[BasisMode], "list[tuple[BasisMode, complex]]"]

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: kinds placed on exactly two ordered paths; every other kind takes one or more
TWO_PATH_KINDS = frozenset({"bs", "pbs", "oam_sorter"})


@dataclass(frozen=True)
class Element:
    """A placed primitive element.

    Args:
        kind: one of qwp, hwp, qp, spp, dp, pp, mirror, bs, pbs,
            oam_sorter, dl.
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
    return Element("qp", _paths_tuple(paths), {"q": q, "shift": qp_shift(q)})


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
    """Phase plate exp(i phi); optional polarization / OAM selectors."""
    params: dict[str, object] = {"phi": float(phi)}
    if pol is not None:
        if pol not in (POL_H, POL_V):
            raise ValueError(f"pol selector must be H or V, got {pol!r}")
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


def element_column(element: Element, space: ModeSpace) -> ColumnFn:
    """Compile a placed element to a total column function on the space.

    Raises:
        UnknownPath: if the placement references an undeclared path.
    """
    for p in element.paths:
        space.check_path(p)
    in_scope = frozenset(element.paths)
    kind = element.kind
    params = element.params

    if kind == "qwp":
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in in_scope:
                return [(mode, 1.0 + 0.0j)]
            h = BasisMode(POL_H, mode.oam, mode.path)
            v = BasisMode(POL_V, mode.oam, mode.path)
            if mode.pol == POL_H:
                return [(h, complex(_INV_SQRT2)), (v, 1j * _INV_SQRT2)]
            return [(h, 1j * _INV_SQRT2), (v, complex(_INV_SQRT2))]
        return col

    if kind == "hwp":
        theta = float(params["theta"])  # type: ignore[arg-type]
        c2, s2 = math.cos(2 * theta), math.sin(2 * theta)
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in in_scope:
                return [(mode, 1.0 + 0.0j)]
            h = BasisMode(POL_H, mode.oam, mode.path)
            v = BasisMode(POL_V, mode.oam, mode.path)
            if mode.pol == POL_H:
                return [(h, complex(c2)), (v, complex(s2))]
            return [(h, complex(s2)), (v, complex(-c2))]
        return col

    if kind == "qp":
        shift = int(params["shift"])  # type: ignore[arg-type]
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in in_scope:
                return [(mode, 1.0 + 0.0j)]
            up = mode.oam + shift
            down = mode.oam - shift
            if abs(up) > space.lmax or abs(down) > space.lmax:
                raise OamOverflow(
                    f"q-plate drives OAM {mode.oam:+d} to {up:+d}/{down:+d}, "
                    f"outside lmax={space.lmax}"
                )
            h_up = BasisMode(POL_H, up, mode.path)
            v_up = BasisMode(POL_V, up, mode.path)
            h_dn = BasisMode(POL_H, down, mode.path)
            v_dn = BasisMode(POL_V, down, mode.path)
            if mode.pol == POL_H:
                return [(h_up, 0.5 + 0j), (v_up, -0.5j), (h_dn, 0.5 + 0j), (v_dn, 0.5j)]
            return [(h_up, -0.5j), (v_up, -0.5 + 0j), (h_dn, 0.5j), (v_dn, -0.5 + 0j)]
        return col

    if kind == "spp":
        l0 = int(params["l"])  # type: ignore[arg-type]
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in in_scope:
                return [(mode, 1.0 + 0.0j)]
            new = mode.oam + l0
            if abs(new) > space.lmax:
                raise OamOverflow(
                    f"spiral plate drives OAM {mode.oam:+d} to {new:+d}, "
                    f"outside lmax={space.lmax}"
                )
            return [(BasisMode(mode.pol, new, mode.path), 1.0 + 0.0j)]
        return col

    if kind == "dp":
        alpha = float(params["alpha"])  # type: ignore[arg-type]
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in in_scope:
                return [(mode, 1.0 + 0.0j)]
            coeff = 1j * complex(math.cos(2 * alpha * mode.oam), math.sin(2 * alpha * mode.oam))
            return [(BasisMode(mode.pol, -mode.oam, mode.path), coeff)]
        return col

    if kind == "pp":
        phi = float(params["phi"])  # type: ignore[arg-type]
        pol_sel = params.get("pol")
        oam_sel = params.get("oam")
        coeff = complex(math.cos(phi), math.sin(phi))
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in in_scope:
                return [(mode, 1.0 + 0.0j)]
            if pol_sel is not None and mode.pol != pol_sel:
                return [(mode, 1.0 + 0.0j)]
            if oam_sel is not None and mode.oam != oam_sel:
                return [(mode, 1.0 + 0.0j)]
            return [(mode, coeff)]
        return col

    if kind == "mirror":
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in in_scope:
                return [(mode, 1.0 + 0.0j)]
            return [(BasisMode(mode.pol, -mode.oam, mode.path), 1j)]
        return col

    if kind == "bs":
        px, py = element.paths
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path == px:
                return [
                    (mode, complex(_INV_SQRT2)),
                    (BasisMode(mode.pol, mode.oam, py), 1j * _INV_SQRT2),
                ]
            if mode.path == py:
                return [
                    (BasisMode(mode.pol, mode.oam, px), 1j * _INV_SQRT2),
                    (mode, complex(_INV_SQRT2)),
                ]
            return [(mode, 1.0 + 0.0j)]
        return col

    if kind == "pbs":
        px, py = element.paths
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in (px, py):
                return [(mode, 1.0 + 0.0j)]
            if mode.pol == POL_H:
                return [(mode, 1.0 + 0.0j)]
            other = py if mode.path == px else px
            return [(BasisMode(mode.pol, mode.oam, other), 1.0 + 0.0j)]
        return col

    if kind == "oam_sorter":
        px, py = element.paths
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            if mode.path not in (px, py):
                return [(mode, 1.0 + 0.0j)]
            if mode.oam == 1:
                return [(mode, 1.0 + 0.0j)]
            if mode.oam == -1:
                other = py if mode.path == px else px
                return [(BasisMode(mode.pol, mode.oam, other), 1.0 + 0.0j)]
            raise UnsortableOam(
                f"OAM sorter on ({px},{py}) received l={mode.oam:+d}; "
                "it only sorts l=+1/-1"
            )
        return col

    if kind == "dl":
        def col(mode: BasisMode) -> list[tuple[BasisMode, complex]]:
            return [(mode, 1.0 + 0.0j)]
        return col

    raise ValueError(f"unknown element kind {kind!r}")


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
