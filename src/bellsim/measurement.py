"""Coincidence detection behind per-path polarization/OAM sorters.

Each measured path ("origin") ends in a sorter block: a polarizing beam
splitter followed by one OAM sorter per polarization arm, fanning a
photon out to four detectors labelled by (OAM sign, polarization,
origin).  Joint two-photon outcomes are coincidence patterns such as::

    D[+1,H,a1] & D[-1,V,b2]

``sppm_project`` reads every state by the Born rule, one pass over its
pairs as mode indices, each mapped to its photon's part of a pattern id
(a place in ``enumerate_patterns``) by offset lists cached per space and
origins; only a pair no detector reads is checked, by the readout's one
rule, ``readout_error``, which ``validate`` reads too.  A distribution
holds those ids, and ``tvd`` walks them.
The ``decomposed`` impl first checks, once per origin, that the explicit
sorter elements send each (pol, l=+1/-1) mode to its own detector alone
with a unit coefficient; the direct readout then equals the routed one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, NamedTuple

from .elements import SIGN_DOMAIN, Element, apply_elements, oam_sorter, pbs
from .errors import BellSimError, CalibrationFailure, LeakedAmplitude, UnsortableOam
from .state import POL_H, POL_V, POLARIZATIONS, BasisMode, ModeSpace, PhotonState, TwoPhotonState, _mode_table

__all__ = [
    "DetectorId",
    "CoincidencePattern",
    "enumerate_patterns",
    "OutcomeDistribution",
    "sppm_project",
]

PROBABILITY_TOL = 1e-10
_UNIT_TOL = 1e-12


class DetectorId(NamedTuple):
    """One detector: OAM sign, polarization, and the measured path."""

    oam_sign: int
    pol: str
    origin: str

    def __str__(self) -> str:
        return f"D[{self.oam_sign:+d},{self.pol},{self.origin}]"


class CoincidencePattern(NamedTuple):
    """A two-fold coincidence: photon A's detector and photon B's."""

    det_a: DetectorId
    det_b: DetectorId

    def __str__(self) -> str:
        return f"{self.det_a} & {self.det_b}"


def detectors_for_origins(origins: Iterable[str]) -> tuple[DetectorId, ...]:
    """All detectors behind the given origins, in canonical order.

    Order: origin (ascending), polarization H before V, OAM -1 before +1.
    """
    out = []
    for origin in sorted(origins):
        for pol in POLARIZATIONS:
            for sign in sorted(SIGN_DOMAIN):
                out.append(DetectorId(sign, pol, origin))
    return tuple(out)


def enumerate_patterns(
    origins_a: Iterable[str], origins_b: Iterable[str]
) -> tuple[CoincidencePattern, ...]:
    """All coincidence patterns, photon A major, in canonical order."""
    return _patterns(tuple(origins_a), tuple(origins_b))


@lru_cache(maxsize=256)
def _patterns(origins_a: tuple[str, ...], origins_b: tuple[str, ...]) -> tuple[CoincidencePattern, ...]:
    da = detectors_for_origins(origins_a)
    db = detectors_for_origins(origins_b)
    return tuple(CoincidencePattern(x, y) for x in da for y in db)


@lru_cache(maxsize=256)
def _offsets(space: ModeSpace, origins_a: tuple[str, ...], origins_b: tuple[str, ...]) -> tuple[list, list]:
    """Per mode of ``space.modes()``, for photon A and for photon B: its part
    of the id (place in ``enumerate_patterns``) of the patterns whose
    detector reads it, or ``None`` if none does.  An id is the sum of its parts."""
    index = _mode_table(space)[1]
    da, db = detectors_for_origins(origins_a), detectors_for_origins(origins_b)
    parts = ([None] * space.dimension, [None] * space.dimension)
    for part, detectors, stride in zip(parts, (da, db), (len(db), 1)):  # photon A is the major axis
        for d, det in enumerate(detectors):
            j = index.get(BasisMode(det.pol, det.oam_sign, det.origin))
            if j is not None:
                part[j] = d * stride
    return parts


@dataclass(frozen=True, init=False)
class OutcomeDistribution:
    """Probabilities over coincidence patterns; must sum to one.  Held as pattern ids with their
    probabilities in ``probs`` order (``_pairs``), and in pattern order (``_dense``); ``probs`` is built when read."""

    origins_a: tuple[str, ...]
    origins_b: tuple[str, ...]
    probs: dict[CoincidencePattern, float]

    def __init__(self, origins_a: Iterable[str], origins_b: Iterable[str], probs: dict) -> None:
        """Raises ``ValueError`` on a pattern no detector behind the origins reads."""
        origins_a, origins_b = tuple(origins_a), tuple(origins_b)
        index = {p: i for i, p in enumerate(_patterns(origins_a, origins_b))}
        for pattern in (p for p in probs if p not in index):
            raise ValueError(f"no detector behind origins {origins_a} and {origins_b} reads {pattern}")
        self._hold(origins_a, origins_b, [index[p] for p in probs], list(probs.values()))

    @classmethod
    def _read(cls, origins_a: tuple, origins_b: tuple, ids: list[int], values: list[float]) -> "OutcomeDistribution":
        dist = object.__new__(cls)
        dist._hold(origins_a, origins_b, ids, values)
        return dist

    @cached_property
    def probs(self) -> dict[CoincidencePattern, float]:
        patterns, (ids, values) = _patterns(self.origins_a, self.origins_b), self._pairs
        return {patterns[i]: p for i, p in zip(ids, values)}

    def _hold(self, origins_a: tuple, origins_b: tuple, ids: list[int], values: list[float]) -> None:
        """Keep probability ``values[k]`` on pattern ``ids[k]``, no two alike, if none is negative and they sum to 1."""
        dense = [0.0] * len(_patterns(origins_a, origins_b))
        for i, p in zip(ids, values):
            dense[i] = p
        self.__dict__.update(origins_a=origins_a, origins_b=origins_b, _pairs=(ids, values), _dense=dense)
        if min(values, default=0.0) < -PROBABILITY_TOL:
            pattern, p = next((k, p) for k, p in self.probs.items() if p < -PROBABILITY_TOL)
            raise ValueError(f"negative probability {p} for {pattern}")
        total = sum(values)
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def probability(self, pattern: CoincidencePattern) -> float:
        return self.probs.get(pattern, 0.0)

    def support(self) -> tuple[CoincidencePattern, ...]:
        return tuple([x for x, p in zip(_patterns(self.origins_a, self.origins_b), self._dense) if p > PROBABILITY_TOL])

    def items_ordered(self):
        for pattern, p in zip(_patterns(self.origins_a, self.origins_b), self._dense):
            if p > PROBABILITY_TOL:
                yield pattern, p

    def tvd(self, other: "OutcomeDistribution") -> float:
        """Total variation distance to another distribution behind the same origins."""
        behind = (self.origins_a, self.origins_b), (other.origins_a, other.origins_b)
        if _patterns(*behind[0]) != _patterns(*behind[1]):
            raise ValueError(f"distributions behind different origins: {behind[0]} and {behind[1]}")
        # summed in probs order: a set union of the patterns would order by string hashes
        (ids, ps), (other_ids, qs) = self._pairs, other._pairs
        mine = set(ids)
        only_other = sum(q for i, q in zip(other_ids, qs) if i not in mine)
        return 0.5 * (sum(abs(p - other._dense[i]) for i, p in zip(ids, ps)) + only_other)


# -- sorter front ends --------------------------------------------------


def _scoped(origin: str) -> tuple[str, str, str]:
    # ':' cannot appear in parsed path labels, so these never collide
    return (f"{origin}:c", f"{origin}:d", f"{origin}:e")


def sppm_front_elements(origin: str) -> list[Element]:
    """Explicit sorter block: PBS then one OAM sorter per polarization arm."""
    c, d, e = _scoped(origin)
    return [pbs(origin, d), oam_sorter(origin, c), oam_sorter(d, e)]


def _port_map(origin: str) -> dict[BasisMode, DetectorId]:
    c, d, e = _scoped(origin)
    return {
        BasisMode(POL_H, 1, origin): DetectorId(1, POL_H, origin),
        BasisMode(POL_H, -1, c): DetectorId(-1, POL_H, origin),
        BasisMode(POL_V, 1, d): DetectorId(1, POL_V, origin),
        BasisMode(POL_V, -1, e): DetectorId(-1, POL_V, origin),
    }


@lru_cache(maxsize=None)
def _routes(origin: str) -> dict[BasisMode, tuple[tuple[DetectorId, complex], ...]]:
    """Each (pol, l=+1/-1) mode of an origin pushed once through its sorter
    block, as (port, coefficient) terms.  Each must reach its own detector
    alone with unit modulus, so reading |amp|^2 directly equals routing it.

    Raises:
        LeakedAmplitude: an output misses every detector port.
        CalibrationFailure: any other deviation from the direct readout.
    """
    space = ModeSpace(1, (origin, *_scoped(origin)))
    ports = _port_map(origin)
    routes = {}
    for mode in (BasisMode(pol, sign, origin) for pol in POLARIZATIONS for sign in SIGN_DOMAIN):
        out = apply_elements(PhotonState(space, {mode: 1.0 + 0.0j}), sppm_front_elements(origin))
        for m in out.amplitudes:
            if m not in ports:
                raise LeakedAmplitude(f"sorter output on {m} from {mode} missed every detector port")
        terms = routes[mode] = tuple((ports[m], c) for m, c in out.amplitudes.items())
        own = DetectorId(mode.oam, mode.pol, origin)
        if [d for d, _ in terms] != [own] or abs(abs(terms[0][1]) - 1) > _UNIT_TOL:
            raise CalibrationFailure(
                f"sorter block at {origin!r} sends {mode} to {[(str(d), c) for d, c in terms]}, "
                f"not to {own} alone with unit modulus: decomposed readout "
                "deviates from direct readout"
            )
    return routes


def sppm_project(
    state: TwoPhotonState,
    origins_a: Iterable[str],
    origins_b: Iterable[str],
    impl: str = "canonical",
) -> OutcomeDistribution:
    """Outcome distribution of coincidence detection behind sorter blocks.

    Both impls read each state in one Born-rule pass over its amplitudes;
    ``decomposed`` first checks every measured origin's sorter block, once
    per origin (the check is cached).

    Raises:
        LeakedAmplitude: amplitude on a path outside the measured origins,
            or (decomposed) a sorter output that misses every detector port.
        UnsortableOam: amplitude outside the l=+1/-1 sorter domain.
        CalibrationFailure: (decomposed) an origin's sorter table does not
            send each mode to its own detector alone with unit modulus
            (should never happen).
    """
    origins_a = tuple(origins_a)
    origins_b = tuple(origins_b)
    off_a, off_b = _readout_offsets(state.space, origins_a, origins_b, impl)
    ja, jb, values = state._pairs
    try:
        ids = [off_a[a] + off_b[b] for a, b in zip(ja, jb)]
    except TypeError:  # the first pair no detector reads: photon A's readout error, else photon B's
        modes = _mode_table(state.space)[0]
        a, b, amp = next((modes[a], modes[b], v) for a, b, v in zip(ja, jb, values) if None in (off_a[a], off_b[b]))
        raise readout_error("A", a, amp, origins_a) or readout_error("B", b, amp, origins_b)
    # abs(a) ** 2: a vectorised square differs from it in the last bit on some amplitudes
    return OutcomeDistribution._read(origins_a, origins_b, ids, [abs(a) ** 2 for a in values])


def _readout_offsets(space: ModeSpace, origins_a: tuple, origins_b: tuple, impl: str) -> tuple[list, list]:
    """``_offsets`` for a readout under ``impl``: ``decomposed`` first checks each origin's sorter block (cached)."""
    if impl not in ("canonical", "decomposed"):
        raise ValueError(f"bad impl: {impl!r}")
    for origin in origins_a + origins_b if impl == "decomposed" else ():
        _routes(origin)
    return _offsets(space, origins_a, origins_b)


def readout_error(photon: str, mode: BasisMode, amp: complex, origins: tuple) -> BellSimError | None:
    """The readout's one rule for a photon's light on a mode: it is read only
    on the photon's measured origins and only at l=+1/-1.  Returns the error
    ``sppm_project`` raises for the mode, or ``None`` if a detector reads it."""
    if mode.path not in origins:
        return LeakedAmplitude(
            f"photon {photon} amplitude {amp:.3e} on path {mode.path!r}, "
            f"outside the measured origins {origins}"
        )
    if mode.oam not in SIGN_DOMAIN:
        return UnsortableOam(
            f"photon {photon} amplitude on l={mode.oam:+d} at {mode.path!r}; "
            "the sorter blocks only resolve l=+1/-1"
        )
    return None
