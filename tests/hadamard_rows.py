"""The four-row conditional bulk-optics OAM Hadamard, checked row by row.

Shared by ``test_gates.py`` and ``test_acceptance.py``: the rows are an
alternative realization of the ``oh`` block, built from the package's
elements, that the package itself never runs.
"""

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from bellsim.elements import apply_elements, hwp, pp, qp, qwp, spp
from bellsim.state import POL_H, POL_V, BasisMode, ModeSpace, basis_state

#: (input (pol, oam), spiral shift, extra swap plate?, selected PBS port,
#:  expected output terms on that port)
_HADAMARD_ROWS = (
    ((POL_H, 1), -1, False, POL_H, (((POL_H, 1), 1.0), ((POL_H, -1), 1.0))),
    ((POL_V, 1), -1, False, POL_V, (((POL_V, 1), 1.0), ((POL_V, -1), 1.0))),
    ((POL_H, -1), 1, True, POL_H, (((POL_H, 1), 1.0), ((POL_H, -1), -1.0))),
    ((POL_V, -1), 1, True, POL_V, (((POL_V, 1), 1.0), ((POL_V, -1), -1.0))),
)


@dataclass(frozen=True)
class RowResult:
    index: int
    input_mode: str
    fidelity: float
    residual_phase: float
    port_probability: float
    passed: bool


def hadamard_row_report(tol: float = 1e-12) -> list[RowResult]:
    """Check the four-row conditional bulk-optics OAM Hadamard.

    Each row conditions the element choice on the input sector: a q-plate
    of charge 1/2, a spiral plate whose sign depends on the input OAM, the
    working QWP, a shared calibration plate PP(-pi/2, V) (which absorbs
    the i that the pinned QWP convention puts on the l=-1 component), a
    pi/8 HWP, for the l=-1 rows an extra pi/4 HWP, and finally a PBS whose
    labeled port is kept and renormalized. Row outputs are compared up to
    a per-row global phase; the report records that residual phase and the
    (always 1/2) probability on the selected port.
    """
    space = ModeSpace(lmax=4, paths=("w",))
    results = []
    for idx, ((pol0, oam0), shift, add_swap, port, expected_terms) in enumerate(_HADAMARD_ROWS, start=1):
        seq = [
            qp(Fraction(1, 2), "w"),
            spp(shift, "w"),
            qwp("w"),
            pp(-math.pi / 2, "w", pol=POL_V),
            hwp(math.pi / 8, "w"),
        ]
        if add_swap:
            seq.append(hwp(math.pi / 4, "w"))
        out = apply_elements(basis_state(space, pol0, oam0, "w"), seq)

        kept = {m: a for m, a in out.amplitudes.items() if m.pol == port}
        port_prob = sum(abs(a) ** 2 for a in kept.values())
        if port_prob <= 0.0:
            results.append(RowResult(idx, f"|{pol0},{oam0:+d}>", 0.0, 0.0, 0.0, False))
            continue
        scale = 1.0 / math.sqrt(port_prob)
        kept = {m: a * scale for m, a in kept.items()}

        norm_exp = math.sqrt(sum(abs(c) ** 2 for _, c in expected_terms))
        expected = {
            BasisMode(p, l, "w"): c / norm_exp for (p, l), c in expected_terms
        }
        overlap = sum(expected[m].conjugate() * kept.get(m, 0.0) for m in expected)
        fid = abs(overlap) ** 2
        phase = cmath.phase(overlap) if abs(overlap) > 0 else 0.0
        results.append(
            RowResult(
                idx,
                f"|{pol0},{oam0:+d}>",
                fid,
                phase,
                port_prob,
                fid >= 1.0 - tol,
            )
        )
    return results
