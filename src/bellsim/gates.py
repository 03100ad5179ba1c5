"""Composite gates as element decompositions, and the check that they hold.

Each gate has a *canonical* action (an exact sparse truth table, used by
default everywhere) and an *element decomposition* (wave plates, prisms,
beam splitters) that must reproduce it.  The canonical actions are
elements too: ``p_cos``, ``oh`` and ``dp_stage`` are kinds in
``elements.ACTIONS``, and the router's is the OAM sorter.  This module
holds only the decompositions.  Calibration phase plates inside them are
explicit elements with stated values, never hidden constants.  The
contract is checked, not solved: tier-1 ``gate_equiv`` proves each
decomposition equals its canonical element within 1e-12, with global
scale 1.

Gates:

* pol-controlled OAM shift (kind ``p_cos``): H gains +2q OAM, V gains
  -2q, polarization untouched.
* OAM-controlled path router (circuit kind ``o_cps``): on a path pair,
  l=+1 keeps its path and l=-1 crosses.  Its canonical action is the OAM
  sorter; the decomposition is a two-path interferometer.
* OAM Hadamard (kind ``oh``): Hadamard on the l=+1/-1 sector of one
  path, polarization untouched.
* OAM flip stage (kind ``dp_stage``): phase-free l -> -l.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .elements import (
    Element,
    _paths_tuple,
    apply_elements,
    bs,
    dp,
    mirror,
    oam_sorter,
    pp,
    qp,
    qwp,
    spp,
)
from .state import POL_V, BasisMode, ModeSpace, basis_state

__all__ = [
    "pol_shift_decomposition",
    "path_router_stage_groups",
    "path_router_decomposition",
    "oam_hadamard_decomposition",
    "oam_flip_decomposition",
    "EquivalenceReport",
    "gate_equiv",
]

# -- decompositions -----------------------------------------------------


def pol_shift_decomposition(q: Union[Fraction, float, int], paths: Union[str, Iterable[str]]) -> list[Element]:
    """QWP, q-plate, QWP, plus one V-only pi phase plate.

    The sandwich maps |H,l> through |L,l> -> |R,l+2q> -> |H,l+2q| with unit
    phase, while the V branch picks up -1 (V -> iR -> iL -> -V); the
    trailing PP(pi, V) is the calibration plate that removes it.
    """
    ps = _paths_tuple(paths)
    return [qwp(ps), qp(q, ps), qwp(ps), pp(math.pi, ps, pol=POL_V)]


def path_router_stage_groups(path_a: str, path_b: str) -> list[tuple[str, list[Element]]]:
    """Router decomposition, grouped for walkthroughs.

    A two-path interferometer: spiral plates lift l=+1/-1 to +2/0, the
    +2 component acquires a relative pi between the arms (one dove prism
    rotated by pi/4 against the other) so the second beam splitter routes
    +2 to one port and 0 to the other, and output spiral plates restore
    l=+1/-1. Each arm holds one dove prism followed by one mirror so the
    net arm action preserves l. The final calibration phase plates remove
    the phase each output (path, OAM) sector is left with; (b, +1) is
    left with none.
    """
    a, b = path_a, path_b
    return [
        ("input spiral plates", [spp(1, a), spp(1, b)]),
        ("input phase plates", [pp(math.pi, a), pp(math.pi, b)]),
        ("first beam splitter", [bs(a, b)]),
        ("arm dove prisms", [dp(math.pi / 4, a), dp(0.0, b)]),
        ("arm mirrors", [mirror(a), mirror(b)]),
        ("second beam splitter", [bs(a, b)]),
        ("output spiral plates", [spp(-1, a), spp(-1, b)]),
        (
            "calibration phase plates",
            [pp(-math.pi / 2, a, oam=-1), pp(-math.pi, a, oam=1), pp(-math.pi / 2, b, oam=-1)],
        ),
    ]


def path_router_decomposition(path_a: str, path_b: str) -> list[Element]:
    """Full element decomposition of the router: its stage groups, flattened."""
    return [e for _, els in path_router_stage_groups(path_a, path_b) for e in els]


def oam_hadamard_decomposition(path: str, ancilla: str) -> list[Element]:
    """OAM-interferometric Hadamard using one empty ancilla path.

    The sorter splits the l=+1/-1 sectors onto (path, ancilla), a dove
    prism at pi/2 aligns the ancilla sector to l=+1, the beam splitter
    interferes the two, and the mirrored second half merges everything
    back onto ``path``. With both prisms at pi/2 the result is the exact
    Hadamard with unit global phase, so no extra calibration plate is
    needed. The ancilla must carry no light before the gate; it carries
    none after.
    """
    return [
        oam_sorter(path, ancilla),
        dp(math.pi / 2, ancilla),
        bs(path, ancilla),
        dp(math.pi / 2, ancilla),
        oam_sorter(path, ancilla),
    ]


def oam_flip_decomposition(paths: Union[str, Iterable[str]]) -> list[Element]:
    """Dove prism at -pi/4 plus a V-only pi calibration plate.

    The prism alone maps |+1> -> |-1> with unit phase but |-1> -> -|+1>.
    On the analyzer's reachable sector (H rides l=+1 and V rides l=-1 at
    this stage) the V-only plate cancels that sign, so the pair acts as
    the phase-free flip there. Outside that sector the pair is not the
    canonical flip; the canonical truth table is the contract.
    """
    ps = _paths_tuple(paths)
    return [dp(-math.pi / 4, ps), pp(math.pi, ps, pol=POL_V)]


# -- equivalence oracle -------------------------------------------------


@dataclass(frozen=True)
class EquivalenceReport:
    """Outcome of a gate-vs-gate comparison over a mode domain."""

    equivalent: bool
    scale: complex
    max_abs_diff: float
    witness: str

    def __str__(self) -> str:
        verdict = "equivalent" if self.equivalent else "NOT equivalent"
        return (
            f"{verdict} (scale {self.scale:.6f}, max |diff| {self.max_abs_diff:.3e}"
            + (f", witness {self.witness}" if self.witness else "")
            + ")"
        )


def gate_equiv(
    gate_a: Sequence[Element],
    gate_b: Sequence[Element],
    space: ModeSpace,
    domain: Sequence[BasisMode],
    tol: float = 1e-12,
) -> EquivalenceReport:
    """Compare two element lists on a basis domain, up to one global unit scale.

    The scale is read off the first output amplitude where both images are
    nonzero; the report then carries the max entrywise deviation
    ``|U_a - c U_b|`` over all domain columns.
    """
    cols_a = [apply_elements(basis_state(space, *m), gate_a) for m in domain]
    cols_b = [apply_elements(basis_state(space, *m), gate_b) for m in domain]

    scale: complex | None = None
    for sa, sb in zip(cols_a, cols_b):
        for mode, amp_b in sb.items_sorted():
            amp_a = sa.amplitude(mode)
            if abs(amp_a) > 1e-9 and abs(amp_b) > 1e-9:
                scale = amp_a / amp_b
                break
        if scale is not None:
            break
    if scale is None:
        return EquivalenceReport(False, 1.0 + 0.0j, float("inf"), "no matching nonzero column")

    worst = 0.0
    witness = ""
    for probe, sa, sb in zip(domain, cols_a, cols_b):
        # sa's modes, then sb's extra ones: a set union would order by string hashes
        for mode in {**sa.amplitudes, **sb.amplitudes}:
            diff = abs(sa.amplitude(mode) - scale * sb.amplitude(mode))
            if diff > worst:
                worst = diff
                witness = f"{probe} -> {mode}"
    ok = worst <= tol and abs(abs(scale) - 1.0) <= tol
    return EquivalenceReport(ok, scale, worst, witness if not ok else "")
