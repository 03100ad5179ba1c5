"""Composite gates: canonical truth tables, decompositions, calibration.

Every decomposition must reproduce its canonical gate column-for-column
at 1e-12, up to one global unit scale (which turns out to be exactly 1
for all three).  The router's stated calibration plates are frozen here
so a changed value shows up as a value change, not just a pass.
"""

import cmath
import math
import os
import pathlib
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest
from hadamard_rows import hadamard_row_report

from bellsim.elements import (
    Element,
    apply_element,
    apply_elements,
    oam_sorter,
)
from bellsim.errors import UnsortableOam
from bellsim.gates import (
    gate_equiv,
    oam_flip_decomposition,
    oam_hadamard_decomposition,
    path_router_decomposition,
    path_router_stage_groups,
    pol_shift_decomposition,
)
from bellsim.state import (
    BasisMode,
    ModeSpace,
    PhotonState,
    basis_state,
    max_amplitude_difference,
)

SPACE = ModeSpace(lmax=4, paths=("a", "b"))
TOL = 1e-12

SIGN_DOMAIN = [
    BasisMode(pol, oam, path)
    for path in ("a", "b")
    for oam in (1, -1)
    for pol in ("H", "V")
]


def p_cos(*paths):
    return Element("p_cos", paths, {"q": Fraction(1, 2)})


def oh(*paths):
    return Element("oh", paths)


def dp_stage(*paths):
    return Element("dp_stage", paths)


# -- canonical truth tables ---------------------------------------------


@pytest.mark.parametrize("pol,sign", [("H", 1), ("V", -1)])
def test_pol_shift_truth_table(pol, sign):
    """H gains 2q quanta, V loses 2q, polarization untouched."""
    for l0 in (-2, 0, 2):
        out = apply_element(basis_state(SPACE, pol, l0, "a"), p_cos("a"))
        assert abs(out.amplitude(BasisMode(pol, l0 + sign, "a")) - 1.0) < TOL


def test_path_router_truth_table():
    for pol in ("H", "V"):
        keep = apply_element(basis_state(SPACE, pol, 1, "a"), oam_sorter("a", "b"))
        assert abs(keep.amplitude(BasisMode(pol, 1, "a")) - 1.0) < TOL
        cross = apply_element(basis_state(SPACE, pol, -1, "a"), oam_sorter("a", "b"))
        assert abs(cross.amplitude(BasisMode(pol, -1, "b")) - 1.0) < TOL
        back = apply_element(basis_state(SPACE, pol, -1, "b"), oam_sorter("a", "b"))
        assert abs(back.amplitude(BasisMode(pol, -1, "a")) - 1.0) < TOL


def test_path_router_rejects_other_oam():
    with pytest.raises(UnsortableOam):
        apply_element(basis_state(SPACE, "H", 0, "a"), oam_sorter("a", "b"))


def test_oam_hadamard_truth_table():
    s = 1 / math.sqrt(2)
    plus = apply_element(basis_state(SPACE, "H", 1, "a"), oh("a"))
    assert abs(plus.amplitude(BasisMode("H", 1, "a")) - s) < TOL
    assert abs(plus.amplitude(BasisMode("H", -1, "a")) - s) < TOL
    minus = apply_element(basis_state(SPACE, "H", -1, "a"), oh("a"))
    assert abs(minus.amplitude(BasisMode("H", 1, "a")) - s) < TOL
    assert abs(minus.amplitude(BasisMode("H", -1, "a")) + s) < TOL


def test_oam_hadamard_is_involutive_on_domain():
    for mode in SIGN_DOMAIN:
        st = basis_state(SPACE, *mode)
        hadamard = oh("a", "b")
        out = apply_element(apply_element(st, hadamard), hadamard)
        assert max_amplitude_difference(out, st) < TOL


def test_oam_flip_truth_table():
    for l0 in (-3, -1, 0, 2):
        out = apply_element(basis_state(SPACE, "V", l0, "a"), dp_stage("a"))
        assert abs(out.amplitude(BasisMode("V", -l0, "a")) - 1.0) < TOL


# -- decompositions -----------------------------------------------------


def test_pol_shift_decomposition_matches():
    elements = pol_shift_decomposition(Fraction(1, 2), ("a", "b"))
    domain = [
        BasisMode(pol, oam, path)
        for path in ("a", "b")
        for oam in (-2, -1, 0, 1, 2)
        for pol in ("H", "V")
    ]
    report = gate_equiv(
        [p_cos("a", "b")],
        elements,
        SPACE,
        domain,
        tol=TOL,
    )
    assert report.equivalent, str(report)
    assert report.scale == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_router_decomposition_matches():
    elements = path_router_decomposition("a", "b")
    assert elements == [e for _, els in path_router_stage_groups("a", "b") for e in els]
    report = gate_equiv(
        [oam_sorter("a", "b")],
        elements,
        SPACE,
        SIGN_DOMAIN,
        tol=TOL,
    )
    assert report.equivalent, str(report)
    assert report.scale == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_router_calibration_phases_frozen():
    """The stated calibration group, last in the router: one plate per
    (path, OAM) sector that needs one, in order, with its exact float."""
    name, plates = path_router_stage_groups("a", "b")[-1]
    assert name == "calibration phase plates"
    assert [e.describe() for e in plates] == [
        "pp(oam=-1 phi=-1.5707963267948966)@a",
        "pp(oam=1 phi=-3.141592653589793)@a",
        "pp(oam=-1 phi=-1.5707963267948966)@b",
    ]
    phases = {(e.paths[0], e.params["oam"]): e.params["phi"] for e in plates}
    expect = {
        ("a", 1): -1.0,  # e^{-i pi}
        ("a", -1): -1.0j,  # e^{-i pi/2}
        ("b", -1): -1.0j,  # (b, +1) needs no plate
    }
    assert set(phases) == set(expect)
    for key, ref in expect.items():
        assert cmath.exp(1j * phases[key]) == pytest.approx(ref, abs=1e-15)


def test_router_walkthrough_routes_components():
    """Midway through the interferometer the routing is already done:
    after the second beam splitter each input component sits on exactly
    one path, l=+1 inputs (lifted to +2) on their own path and l=-1
    inputs (at 0) on the other, up to a per-component phase."""
    groups = path_router_stage_groups("a", "b")
    upto_second_bs = [e for _, els in groups[:6] for e in els]
    for pol in ("H", "V"):
        for path, oam, want_path, want_oam in [
            ("a", 1, "a", 2),
            ("a", -1, "b", 0),
            ("b", 1, "b", 2),
            ("b", -1, "a", 0),
        ]:
            out = apply_elements(basis_state(SPACE, pol, oam, path), upto_second_bs)
            assert len(out.amplitudes) == 1, f"{pol},{oam},{path} not routed"
            (mode, amp), = out.amplitudes.items()
            assert mode == BasisMode(pol, want_oam, want_path)
            assert abs(abs(amp) - 1.0) < TOL


def test_router_without_arm_prisms_is_not_equivalent():
    """Negative control for the router check: drop the arm Dove prisms and
    the interferometer no longer routes cleanly, whatever the plates."""
    groups = path_router_stage_groups("a", "b")
    broken = [e for name, els in groups if name != "arm dove prisms" for e in els]
    assert not any(e.kind == "dp" for e in broken)
    report = gate_equiv(
        [oam_sorter("a", "b")],
        broken,
        SPACE,
        SIGN_DOMAIN,
        tol=TOL,
    )
    assert not report.equivalent
    assert report.max_abs_diff > 0.1, str(report)


def test_oam_hadamard_decomposition_matches():
    big = SPACE.extended(("anc",))
    elements = oam_hadamard_decomposition("a", "anc")
    domain = [BasisMode(pol, oam, "a") for oam in (1, -1) for pol in ("H", "V")]
    report = gate_equiv(
        [oh("a")],
        elements,
        big,
        domain,
        tol=TOL,
    )
    assert report.equivalent, str(report)
    assert report.scale == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_oam_hadamard_decomposition_leaves_ancilla_empty():
    big = SPACE.extended(("anc",))
    elements = oam_hadamard_decomposition("a", "anc")
    rng = np.random.default_rng(21)
    domain = [BasisMode(pol, oam, "a") for oam in (1, -1) for pol in ("H", "V")]
    for _ in range(20):
        vec = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        vec /= np.linalg.norm(vec)
        st = PhotonState(big, dict(zip(domain, map(complex, vec))))
        out = apply_elements(st, elements)
        on_ancilla = sum(
            abs(a) ** 2 for m, a in out.amplitudes.items() if m.path == "anc"
        )
        assert on_ancilla < 1e-24


def test_oam_flip_decomposition_exact_on_correlated_sector():
    """On the sector the analyzer feeds it (H at l=+1, V at l=-1, and the
    flipped images), prism + V-plate equals the phase-free flip."""
    elements = oam_flip_decomposition("a")
    sector = [BasisMode("H", 1, "a"), BasisMode("V", -1, "a")]
    report = gate_equiv(
        [dp_stage("a")],
        elements,
        SPACE,
        sector,
        tol=TOL,
    )
    assert report.equivalent, str(report)
    assert report.scale == pytest.approx(1.0 + 0.0j, abs=1e-12)


def test_oam_flip_decomposition_differs_off_sector():
    """Outside the correlated sector the shortcut picks up signs; the
    canonical element stays the contract there."""
    elements = oam_flip_decomposition("a")
    out = apply_elements(basis_state(SPACE, "H", -1, "a"), elements)
    canon = apply_element(basis_state(SPACE, "H", -1, "a"), dp_stage("a"))
    assert max_amplitude_difference(out, canon) == pytest.approx(2.0, abs=1e-12)


# -- conditional row variant --------------------------------------------


def test_hadamard_rows_all_pass():
    rows = hadamard_row_report(tol=TOL)
    assert len(rows) == 4
    for row in rows:
        assert row.passed, row
        assert row.fidelity >= 1.0 - TOL
        assert row.port_probability == pytest.approx(0.5, abs=1e-12)


def test_hadamard_rows_residual_phases_frozen():
    """Per-row residual phases: 1, -i, 1, -i."""
    rows = hadamard_row_report()
    got = [cmath.exp(1j * row.residual_phase) for row in rows]
    want = [1.0, -1.0j, 1.0, -1.0j]
    for g, w in zip(got, want):
        assert g == pytest.approx(w, abs=1e-9)


_BROKEN_ROUTER_WITNESS = """
from bellsim.elements import oam_sorter
from bellsim.gates import gate_equiv, path_router_stage_groups
from bellsim.state import BasisMode, ModeSpace
broken = [e for name, els in path_router_stage_groups("a", "b") if name != "arm dove prisms" for e in els]
domain = [BasisMode(pol, oam, path) for path in ("a", "b") for oam in (1, -1) for pol in ("H", "V")]
report = gate_equiv(
    [oam_sorter("a", "b")],
    broken,
    ModeSpace(lmax=4, paths=("a", "b")),
    domain,
)
print(report.max_abs_diff, report.witness)
"""


def test_gate_equiv_witness_does_not_depend_on_the_string_hash_seed():
    """The witness is the first worst mode in dict order, whatever PYTHONHASHSEED is."""
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", _BROKEN_ROUTER_WITNESS], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    # sa's first mode already differs by the full 1.0, so it is the witness
    assert outputs == {"1.0 |H,+1,a> -> |H,+1,a>\n"}, outputs
