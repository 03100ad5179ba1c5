"""Coincidence detection behind per-path polarization/OAM sorters.

Each measured path ("origin") ends in a sorter block: a polarizing beam
splitter followed by one OAM sorter per polarization arm, fanning a
photon out to four detectors labelled by (OAM sign, polarization,
origin).  Joint two-photon outcomes are coincidence patterns such as::

    D[+1,H,a1] & D[-1,V,b2]

``sppm_project`` computes the outcome distribution either by direct Born
readout of the mode amplitudes (``canonical``) or through the explicit
sorter elements (``decomposed``), compiled once per origin into a table
of output ports; the two must agree to 1e-12, and the decomposed path
cross-checks that on every state.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, NamedTuple

from .elements import SIGN_DOMAIN, Element, apply_elements, oam_sorter, pbs
from .errors import CalibrationFailure, LeakedAmplitude, MalformedPattern, UnsortableOam
from .state import DROP_EPS, POL_H, POL_V, POLARIZATIONS, BasisMode, ModeSpace, PhotonState, TwoPhotonState

__all__ = [
    "DetectorId",
    "CoincidencePattern",
    "parse_detector",
    "parse_pattern",
    "detectors_for_origins",
    "enumerate_patterns",
    "OutcomeDistribution",
    "sppm_front_elements",
    "sppm_project",
    "PROBABILITY_TOL",
]

PROBABILITY_TOL = 1e-10
_CROSSCHECK_TOL = 1e-12

OAM_SIGNS = (-1, 1)


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


_DET_RE = re.compile(r"^D\[([+-]1),([HV]),([A-Za-z][A-Za-z0-9_]*)\]$")


def parse_detector(text: str) -> DetectorId:
    """Inverse of ``str(DetectorId)``; raises MalformedPattern."""
    m = _DET_RE.match(text.strip())
    if not m:
        raise MalformedPattern(
            f"bad detector {text!r}; expected the form D[+1,H,a1]"
        )
    return DetectorId(int(m.group(1)), m.group(2), m.group(3))


def parse_pattern(text: str) -> CoincidencePattern:
    """Inverse of ``str(CoincidencePattern)``; raises MalformedPattern."""
    parts = text.split("&")
    if len(parts) != 2:
        raise MalformedPattern(
            f"bad pattern {text!r}; expected 'D[...] & D[...]'"
        )
    return CoincidencePattern(parse_detector(parts[0]), parse_detector(parts[1]))


def detectors_for_origins(origins: Iterable[str]) -> tuple[DetectorId, ...]:
    """All detectors behind the given origins, in canonical order.

    Order: origin (ascending), polarization H before V, OAM -1 before +1.
    """
    out = []
    for origin in sorted(origins):
        for pol in POLARIZATIONS:
            for sign in OAM_SIGNS:
                out.append(DetectorId(sign, pol, origin))
    return tuple(out)


def enumerate_patterns(
    origins_a: Iterable[str], origins_b: Iterable[str]
) -> tuple[CoincidencePattern, ...]:
    """All coincidence patterns, photon A major, in canonical order."""
    da = detectors_for_origins(origins_a)
    db = detectors_for_origins(origins_b)
    return tuple(CoincidencePattern(x, y) for x in da for y in db)


@dataclass(frozen=True)
class OutcomeDistribution:
    """Probabilities over coincidence patterns; must sum to one."""

    origins_a: tuple[str, ...]
    origins_b: tuple[str, ...]
    probs: dict[CoincidencePattern, float] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "origins_a", tuple(self.origins_a))
        object.__setattr__(self, "origins_b", tuple(self.origins_b))
        for pattern, p in self.probs.items():
            if p < -PROBABILITY_TOL:
                raise ValueError(f"negative probability {p} for {pattern}")
        total = sum(self.probs.values())
        if abs(total - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {total!r}, not 1")

    def probability(self, pattern: CoincidencePattern) -> float:
        return self.probs.get(pattern, 0.0)

    def support(self) -> tuple[CoincidencePattern, ...]:
        order = enumerate_patterns(self.origins_a, self.origins_b)
        return tuple(p for p in order if self.probs.get(p, 0.0) > PROBABILITY_TOL)

    def items_ordered(self):
        for pattern in enumerate_patterns(self.origins_a, self.origins_b):
            p = self.probs.get(pattern, 0.0)
            if p > PROBABILITY_TOL:
                yield pattern, p

    def tvd(self, other: "OutcomeDistribution") -> float:
        """Total variation distance to another distribution."""
        keys = set(self.probs) | set(other.probs)
        return 0.5 * sum(
            abs(self.probs.get(k, 0.0) - other.probs.get(k, 0.0)) for k in keys
        )

    def to_text(self) -> str:
        lines = [
            f"{pattern}  {p:.12g}"
            for pattern, p in self.items_ordered()
        ]
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "origins": {"A": list(self.origins_a), "B": list(self.origins_b)},
            "probabilities": {
                str(pattern): p for pattern, p in self.items_ordered()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


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


def _check_measurable(
    state: TwoPhotonState, origins_a: tuple[str, ...], origins_b: tuple[str, ...]
) -> None:
    for (ma, mb), amp in state.amplitudes.items():
        for mode, origins, photon in ((ma, origins_a, "A"), (mb, origins_b, "B")):
            if mode.path not in origins:
                raise LeakedAmplitude(
                    f"photon {photon} amplitude {amp:.3e} on path {mode.path!r}, "
                    f"outside the measured origins {origins}"
                )
            if mode.oam not in SIGN_DOMAIN:
                raise UnsortableOam(
                    f"photon {photon} amplitude on l={mode.oam:+d} at {mode.path!r}; "
                    "the sorter blocks only resolve l=+1/-1"
                )


def _direct_probs(state: TwoPhotonState) -> dict[CoincidencePattern, float]:
    probs: dict[CoincidencePattern, float] = {}
    for (ma, mb), amp in state.amplitudes.items():
        pattern = CoincidencePattern(
            DetectorId(ma.oam, ma.pol, ma.path), DetectorId(mb.oam, mb.pol, mb.path)
        )
        probs[pattern] = probs.get(pattern, 0.0) + abs(amp) ** 2
    return probs


@lru_cache(maxsize=None)
def _routes(origin: str) -> dict[BasisMode, tuple[tuple[DetectorId, complex], ...]]:
    """Each (pol, l=+1/-1) mode of an origin pushed once through its sorter
    block, as (port, coefficient) terms; an output missing every port stays a mode."""
    space = ModeSpace(1, (origin, *_scoped(origin)))
    ports = _port_map(origin)
    routes = {}
    for mode in (BasisMode(pol, sign, origin) for pol in POLARIZATIONS for sign in SIGN_DOMAIN):
        out = apply_elements(PhotonState(space, {mode: 1.0 + 0.0j}), sppm_front_elements(origin))
        routes[mode] = tuple((ports.get(m, m), c) for m, c in out.amplitudes.items())
    return routes


def _routed_probs(state: TwoPhotonState) -> dict[CoincidencePattern, float]:
    amps: dict[tuple, complex] = {}
    for (ma, mb), amp in state.amplitudes.items():
        for da, ca in _routes(ma.path)[ma]:
            for db, cb in _routes(mb.path)[mb]:
                amps[da, db] = amps.get((da, db), 0j) + amp * ca * cb
    kept = {pair: amp for pair, amp in amps.items() if abs(amp) > DROP_EPS}
    for (da, db), amp in kept.items():
        if BasisMode in (type(da), type(db)):
            raise LeakedAmplitude(
                f"routed amplitude {amp:.3e} on ({da}, {db}) missed every detector port"
            )
    return {CoincidencePattern(*pair): abs(amp) ** 2 for pair, amp in kept.items()}


def sppm_project(
    state: TwoPhotonState,
    origins_a: Iterable[str],
    origins_b: Iterable[str],
    impl: str = "canonical",
) -> OutcomeDistribution:
    """Outcome distribution of coincidence detection behind sorter blocks.

    Raises:
        LeakedAmplitude: amplitude on a path outside the measured origins.
        UnsortableOam: amplitude outside the l=+1/-1 sorter domain.
        CalibrationFailure: decomposed routing disagrees with direct
            readout beyond 1e-12 (should never happen).
    """
    origins_a = tuple(origins_a)
    origins_b = tuple(origins_b)
    _check_measurable(state, origins_a, origins_b)
    direct = _direct_probs(state)
    if impl == "decomposed":
        routed = _routed_probs(state)
        worst = max(
            (abs(direct.get(k, 0.0) - routed.get(k, 0.0)) for k in set(direct) | set(routed)),
            default=0.0,
        )
        if worst > _CROSSCHECK_TOL:
            raise CalibrationFailure(
                f"decomposed sorter readout deviates from direct readout "
                f"by {worst:.3e}"
            )
        probs = routed
    elif impl == "canonical":
        probs = direct
    else:
        raise ValueError(f"bad impl: {impl!r}")
    return OutcomeDistribution(origins_a, origins_b, probs)
