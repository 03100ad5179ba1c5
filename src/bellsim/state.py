"""Sparse photonic states over polarization, OAM and path modes.

A single photon lives in the product space

    {H, V}  x  {-lmax, ..., +lmax}  x  {declared paths}

and is stored as a sparse map from basis modes to complex amplitudes (a
photon pair as two ``ModeSpace.index`` values per pair, the map built when
read).  States are treated as immutable values: every operation returns a
new state and never mutates its inputs.

Conventions pinned here (and relied on everywhere else):

* circular basis  |L> = (|H> + i|V>)/sqrt(2),  |R> = (|H> - i|V>)/sqrt(2)
* amplitudes with magnitude <= DROP_EPS are dropped after linear maps
  (exact zeros created by interference), never amplitudes that matter
* OAM indices outside the truncation bound are an error, never wrapped
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple, Union

from .errors import DimensionMismatch, OamOverflow, UnknownPath, ZeroNorm

__all__ = [
    "BasisMode",
    "ModeSpace",
    "PhotonState",
    "TwoPhotonState",
    "basis_state",
    "circular_state",
    "fidelity",
    "global_phase_between",
    "max_amplitude_difference",
]

POL_H = "H"
POL_V = "V"
POLARIZATIONS = (POL_H, POL_V)

#: magnitude below which an amplitude is considered an interference zero
DROP_EPS = 1e-15
#: tolerance on unit norm after any normalized construction
NORM_TOL = 1e-12
DEFAULT_LMAX = 4

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: linear-basis amplitudes of the circular states: |L> and |R> as {pol: amp}
CIRCULAR_EXPANSION = {
    "L": {POL_H: complex(_INV_SQRT2), POL_V: 1j * _INV_SQRT2},
    "R": {POL_H: complex(_INV_SQRT2), POL_V: -1j * _INV_SQRT2},
}


class BasisMode(NamedTuple):
    """One basis mode of a single photon."""

    pol: str
    oam: int
    path: str

    def __str__(self) -> str:  # |H,+1,a1>
        return f"|{self.pol},{self.oam:+d},{self.path}>"


@dataclass(frozen=True)
class ModeSpace:
    """Truncated mode universe: OAM bound plus the declared path set.

    Args:
        lmax: inclusive bound on |l|.
        paths: declared path labels, order preserved (it fixes the dense
            basis ordering used by the matrix oracle).
    """

    lmax: int = DEFAULT_LMAX
    paths: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.lmax < 1:
            raise ValueError("lmax must be a positive integer")
        if len(set(self.paths)) != len(self.paths):
            raise ValueError(f"duplicate path labels in {self.paths}")
        object.__setattr__(self, "_hash", hash((self.lmax, self.paths)))  # every mode-table lookup hashes the space

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self) -> tuple:  # rebuilt, not copied: a string's hash differs between processes
        return ModeSpace, (self.lmax, self.paths)

    # -- validation -----------------------------------------------------

    def check_oam(self, oam: int) -> int:
        if abs(oam) > self.lmax:
            raise OamOverflow(f"OAM index {oam:+d} exceeds bound lmax={self.lmax}")
        return oam

    def check_path(self, path: str) -> str:
        if path not in self.paths:
            raise UnknownPath(f"path {path!r} is not declared (have {list(self.paths)})")
        return path

    def check_mode(self, mode: BasisMode) -> BasisMode:
        if mode.pol not in POLARIZATIONS:
            raise ValueError(f"unknown polarization {mode.pol!r}")
        self.check_oam(mode.oam)
        self.check_path(mode.path)
        return mode

    # -- dense-basis bookkeeping ---------------------------------------

    @property
    def dimension(self) -> int:
        return 2 * (2 * self.lmax + 1) * len(self.paths)

    def modes(self) -> list[BasisMode]:
        """All basis modes in dense order: path-major, then OAM, then pol."""
        out = []
        for path in self.paths:
            for oam in range(-self.lmax, self.lmax + 1):
                for pol in POLARIZATIONS:
                    out.append(BasisMode(pol, oam, path))
        return out

    def index(self, mode: BasisMode) -> int:
        """The mode's place in ``modes()``; a mode outside the space raises ``check_mode``'s error."""
        try:
            return _mode_table(self)[1][mode]
        except KeyError:
            self.check_mode(mode)
            raise

    def extended(self, extra_paths: Iterable[str]) -> "ModeSpace":
        """Same OAM bound with additional paths appended (scoped internals)."""
        new = tuple(p for p in extra_paths if p not in self.paths)
        return ModeSpace(self.lmax, self.paths + new)


@lru_cache(maxsize=64)
def _mode_table(space: ModeSpace) -> tuple[tuple[BasisMode, ...], dict[BasisMode, int]]:
    """``space.modes()`` as a tuple, and each mode's place in it."""
    modes = tuple(space.modes())
    return modes, {m: j for j, m in enumerate(modes)}


def _clean(amps: dict) -> dict:
    return {m: a for m, a in amps.items() if abs(a) > DROP_EPS}


@dataclass(frozen=True)
class PhotonState:
    """Sparse single-photon state: map of BasisMode -> complex amplitude."""

    space: ModeSpace
    amplitudes: dict[BasisMode, complex]

    def __post_init__(self) -> None:
        for mode in self.amplitudes:
            self.space.check_mode(mode)

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values()))

    def amplitude(self, mode: BasisMode) -> complex:
        return self.amplitudes.get(mode, 0.0 + 0.0j)

    def items_sorted(self) -> list[tuple[BasisMode, complex]]:
        return sorted(self.amplitudes.items(), key=lambda kv: self.space.index(kv[0]))

    def __str__(self) -> str:
        parts = [f"({a.real:+.4f}{a.imag:+.4f}j){m}" for m, a in self.items_sorted()]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True, init=False)
class TwoPhotonState:
    """Sparse two-photon state over ordered (mode_A, mode_B) pairs.

    The photons are distinguishable (different spatial inputs), so no
    symmetrization is applied; both factors share one mode space.

    The pairs are held as mode indices, in key order: pair k is modes
    ``ja[k]`` and ``jb[k]`` of ``space.modes()`` with amplitude ``values[k]``
    (``_pairs``); ``amplitudes`` is built on first read.  The constructor
    raises ``space.index``'s error for the first mode outside ``space``, in
    key order, photon A before B.
    """

    space: ModeSpace
    amplitudes: dict[tuple[BasisMode, BasisMode], complex]

    def __init__(self, space: ModeSpace, amplitudes: dict[tuple[BasisMode, BasisMode], complex]) -> None:
        index = space.index
        pairs = [(index(a), index(b)) for a, b in amplitudes]
        self.__dict__.update(space=space, _pairs=([a for a, _ in pairs], [b for _, b in pairs], list(amplitudes.values())))

    @classmethod
    def _indexed(cls, space: ModeSpace, ja: list, jb: list, values: list) -> "TwoPhotonState":
        """Pair k is modes ``ja[k]``, ``jb[k]`` of ``space.modes()``, amplitude ``values[k]``; unchecked."""
        state = object.__new__(cls)
        state.__dict__.update(space=space, _pairs=(ja, jb, values))
        return state

    @cached_property
    def amplitudes(self) -> dict[tuple[BasisMode, BasisMode], complex]:
        modes, (ja, jb, values) = _mode_table(self.space)[0], self._pairs
        return {(modes[a], modes[b]): v for a, b, v in zip(ja, jb, values)}

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self._pairs[2]))

    def amplitude(self, pair: tuple[BasisMode, BasisMode]) -> complex:
        return self.amplitudes.get(pair, 0.0 + 0.0j)

    def items_sorted(self) -> list[tuple[tuple[BasisMode, BasisMode], complex]]:
        index = _mode_table(self.space)[1]
        return sorted(self.amplitudes.items(), key=lambda kv: (index[kv[0][0]], index[kv[0][1]]))

    def with_space(self, space: ModeSpace) -> "TwoPhotonState":
        """The same amplitudes in ``space``, in key order; raises ``space.index``'s
        error for the first mode ``space`` lacks, in key order, photon A before B."""
        if space == self.space:
            return self
        if space.lmax == self.space.lmax and space.paths[: len(self.space.paths)] == self.space.paths:
            return TwoPhotonState._indexed(space, *self._pairs)  # appended paths' modes come after every old one
        return TwoPhotonState(space, self.amplitudes)


State = Union[PhotonState, TwoPhotonState]


def basis_state(space: ModeSpace, pol: str, oam: int, path: str) -> PhotonState:
    """Unit-amplitude state on a single declared mode.

    Raises:
        OamOverflow: if |oam| exceeds the space bound.
        UnknownPath: if the path is not declared.
    """
    mode = space.check_mode(BasisMode(pol, oam, path))
    return PhotonState(space, {mode: 1.0 + 0.0j})


def _check_comparable(x: State, y: State) -> None:
    if type(x) is not type(y) or x.space != y.space:
        raise DimensionMismatch("states are not comparable (space or arity differs)")


def _overlap(x: State, y: State) -> complex:
    # summed in x's dict order: a set of shared keys would order by string hashes
    ys = y.amplitudes
    return sum((a.conjugate() * ys[m] for m, a in x.amplitudes.items() if m in ys), 0.0 + 0.0j)


def fidelity(x: State, y: State) -> float:
    """|<x|y>|^2 for unit-normalized same-space states."""
    _check_comparable(x, y)
    return abs(_overlap(x, y)) ** 2


def max_amplitude_difference(x: State, y: State) -> float:
    """Exact-phase comparison: max |x_m - y_m| over the union of modes.

    Stricter than fidelity; used by truth-table and calibration tests where
    even a global phase must match.
    """
    _check_comparable(x, y)
    xs, ys = x.amplitudes, y.amplitudes
    return max((abs(xs.get(m, 0j) - ys.get(m, 0j)) for m in xs.keys() | ys.keys()), default=0.0)


def global_phase_between(x: State, y: State) -> complex:
    """Unit phase c with y ~ c*x (meaningful when fidelity(x, y) is ~1)."""
    _check_comparable(x, y)
    ov = _overlap(x, y)
    if abs(ov) < NORM_TOL:
        raise ZeroNorm("states are orthogonal; no relating phase")
    return ov / abs(ov)


def circular_state(space: ModeSpace, which: str, oam: int, path: str) -> PhotonState:
    """|L> or |R> at the given OAM and path, in the pinned phase convention."""
    if which not in CIRCULAR_EXPANSION:
        raise ValueError("which must be 'L' or 'R'")
    amps = {
        BasisMode(pol, space.check_oam(oam), space.check_path(path)): amp
        for pol, amp in CIRCULAR_EXPANSION[which].items()
    }
    return PhotonState(space, amps)
