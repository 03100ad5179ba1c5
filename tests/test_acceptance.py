"""Top-level acceptance gate for the analyzer package.

Eight criteria, one test each.  Every test prints an ``ACCEPTANCE n:
PASS/FAIL`` line (visible under ``pytest -s`` and in captured output on
failure) so the suite doubles as a checklist.  Tolerances are pinned
here on purpose -- loosening one is a contract change, not a cleanup.
"""

import cmath
import contextlib
import math
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hadamard_rows import hadamard_row_report

from bellsim.analyzer import (
    BELL_LABELS,
    CLASSIFICATION_TABLE,
    analyze,
    oracle_check,
    stage_states,
    verify,
)
from bellsim.circuit import builtin_document, parse_circuit, print_circuit
from bellsim.elements import (
    Element,
    apply_element,
    apply_elements,
    bs,
    dl,
    dp,
    element_column,
    hwp,
    mirror,
    oam_sorter,
    pbs,
    pp,
    qwp,
    spp,
)
from bellsim.errors import CircuitSemanticError, CircuitSyntaxError
from bellsim.gates import (
    gate_equiv,
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
    fidelity,
    max_amplitude_difference,
)

EXACT = 1e-12
STAT = 1e-10
DATA = Path(__file__).parent / "data"


@contextlib.contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} [{title}]: FAIL")
        raise
    print(f"ACCEPTANCE {number} [{title}]: PASS")


def test_acceptance_1_uniform_sixteen_pattern_signatures():
    with criterion(1, "16 uniform patterns per Bell input"):
        t0 = time.perf_counter()
        dists = {label: analyze(label) for label in BELL_LABELS}
        elapsed = time.perf_counter() - t0
        for label, dist in dists.items():
            support = dist.support()
            assert len(support) == 16, label
            for pattern in support:
                assert abs(dist.probability(pattern) - 1 / 16) < STAT
                assert CLASSIFICATION_TABLE[pattern] == label
        assert elapsed < 1.0, f"propagation took {elapsed:.3f}s"


def test_acceptance_2_deterministic_discrimination():
    with criterion(2, "unit success probability, disjoint cover"):
        report = verify()
        assert report.ok
        assert abs(report.accuracy - 1.0) < EXACT
        seen = {}
        for label in BELL_LABELS:
            row = next(r for r in report.rows if r.label == label)
            assert abs(row.success_probability - 1.0) < STAT
            assert row.support_size == 16
            assert not row.misclassified
            for pattern in analyze(label).support():
                assert pattern not in seen
                seen[pattern] = label
        assert len(seen) == 64
        assert report.disjoint and report.cover


def test_acceptance_3_checkpoint_fidelities():
    with criterion(3, "stage checkpoints match references"):
        for impl in ("canonical", "decomposed"):
            for label in BELL_LABELS:
                for rec in stage_states(label, impl=impl):
                    assert rec.fidelity >= 1 - STAT, (
                        impl,
                        label,
                        rec.checkpoint,
                        rec.fidelity,
                    )


def test_acceptance_4_gate_truth_tables():
    with criterion(4, "block truth tables"):
        space = ModeSpace(lmax=3, paths=("a", "b"))

        # polarization-conditional OAM shift, exhaustive away from the cut
        col = element_column(Element("p_cos", ("a",), {"q": Fraction(1, 2)}), space)
        for l in (-2, -1, 0, 1, 2):
            for pol, dl_ in (("H", 1), ("V", -1)):
                out = col(BasisMode(pol, l, "a"))
                assert out == [(BasisMode(pol, l + dl_, "a"), 1.0 + 0.0j)]

        # sign-controlled path router: +1 stays, -1 crosses, weight one
        rcol = element_column(oam_sorter("a", "b"), space)
        for pol in ("H", "V"):
            for path in ("a", "b"):
                other = "b" if path == "a" else "a"
                assert rcol(BasisMode(pol, 1, path)) == [
                    (BasisMode(pol, 1, path), 1.0 + 0.0j)
                ]
                assert rcol(BasisMode(pol, -1, path)) == [
                    (BasisMode(pol, -1, other), 1.0 + 0.0j)
                ]

        # OAM Hadamard on the +-1 sector
        hcol = element_column(Element("oh", ("a",)), space)
        r = 1 / math.sqrt(2)
        for pol in ("H", "V"):
            plus = dict(hcol(BasisMode(pol, 1, "a")))
            minus = dict(hcol(BasisMode(pol, -1, "a")))
            assert abs(plus[BasisMode(pol, 1, "a")] - r) < EXACT
            assert abs(plus[BasisMode(pol, -1, "a")] - r) < EXACT
            assert abs(minus[BasisMode(pol, 1, "a")] - r) < EXACT
            assert abs(minus[BasisMode(pol, -1, "a")] + r) < EXACT

        # phase-free parity flip, total on the whole ladder
        fcol = element_column(Element("dp_stage", ("a",)), space)
        for l in range(-3, 4):
            for pol in ("H", "V"):
                assert fcol(BasisMode(pol, l, "a")) == [
                    (BasisMode(pol, -l, "a"), 1.0 + 0.0j)
                ]

        # the four polarization-conditional interferometer rows
        rows = hadamard_row_report(tol=EXACT)
        assert len(rows) == 4
        frozen_phases = [1.0, -1.0j, 1.0, -1.0j]
        for row, want in zip(rows, frozen_phases):
            assert row.passed, row
            assert abs(row.port_probability - 0.5) < EXACT
            assert abs(cmath.exp(1j * row.residual_phase) - want) < 1e-9


def test_acceptance_5_decompositions():
    with criterion(5, "element-level decompositions"):
        space = ModeSpace(lmax=4, paths=("a", "b"))
        sign_domain = [
            BasisMode(pol, oam, path)
            for path in ("a", "b")
            for oam in (1, -1)
            for pol in ("H", "V")
        ]

        rep = gate_equiv(
            [Element("p_cos", ("a", "b"), {"q": Fraction(1, 2)})],
            pol_shift_decomposition(Fraction(1, 2), ("a", "b")),
            space,
            [
                BasisMode(pol, oam, path)
                for path in ("a", "b")
                for oam in (-2, -1, 0, 1, 2)
                for pol in ("H", "V")
            ],
            tol=EXACT,
        )
        assert rep.equivalent and abs(rep.scale - 1.0) < EXACT, str(rep)

        rep = gate_equiv(
            [oam_sorter("a", "b")],
            path_router_decomposition("a", "b"),
            space,
            sign_domain,
            tol=EXACT,
        )
        assert rep.equivalent and abs(rep.scale - 1.0) < EXACT, str(rep)

        big = space.extended(("anc",))
        rep = gate_equiv(
            [Element("oh", ("a",))],
            oam_hadamard_decomposition("a", "anc"),
            big,
            [BasisMode(pol, oam, "a") for oam in (1, -1) for pol in ("H", "V")],
            tol=EXACT,
        )
        assert rep.equivalent and abs(rep.scale - 1.0) < EXACT, str(rep)

        # halfway through the router every component is already sorted
        groups = path_router_stage_groups("a", "b")
        upto_second_bs = [e for _, els in groups[:6] for e in els]
        for pol in ("H", "V"):
            for path, oam, want_path, want_oam in [
                ("a", 1, "a", 2),
                ("a", -1, "b", 0),
                ("b", 1, "b", 2),
                ("b", -1, "a", 0),
            ]:
                out = apply_elements(
                    basis_state(space, pol, oam, path), upto_second_bs
                )
                assert len(out.amplitudes) == 1
                ((mode, amp),) = out.amplitudes.items()
                assert mode == BasisMode(pol, want_oam, want_path)
                assert abs(abs(amp) - 1.0) < EXACT


def test_acceptance_6_dense_oracle():
    with criterion(6, "brute-force matrix oracle"):
        for impl in (None, "decomposed"):
            report = oracle_check(impl=impl, n_random=25, seed=0xACC)
            assert report.ok, report
            assert report.max_state_difference <= STAT
            assert report.max_tvd <= STAT
            assert report.max_unitarity_residual <= STAT


def test_acceptance_7_element_algebra():
    with criterion(7, "optical element algebra"):
        space = ModeSpace(lmax=3, paths=("x", "y"))
        rng = np.random.default_rng(0xACCE77)
        elements = [
            qwp("x"),
            hwp(math.pi / 8, "x"),
            spp(1, "x"),
            spp(-1, "y"),
            dp(math.pi / 4, "y"),
            pp(math.pi / 3, "x"),
            mirror("y"),
            bs("x", "y"),
            pbs("x", "y"),
            dl("x"),
        ]
        modes = [
            m for m in space.modes() if abs(m.oam) <= 2
        ]  # keep one rung of headroom for the shifters
        for _ in range(1000):
            vec = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(
                len(modes)
            )
            vec /= np.linalg.norm(vec)
            st = PhotonState(space, dict(zip(modes, map(complex, vec))))
            el = elements[rng.integers(len(elements))]
            out = apply_element(st, el)
            assert abs(out.norm() - 1.0) < EXACT

        x0 = basis_state(space, "H", 0, "x")

        # spiral plates add their charges
        a = apply_elements(x0, [spp(1, "x"), spp(1, "x")])
        b = apply_element(x0, spp(2, "x"))
        assert max_amplitude_difference(a, b) < EXACT

        # four quarter-wave passes close the loop (up to a global phase)
        qwp4 = apply_elements(x0, [qwp("x")] * 4)
        assert fidelity(qwp4, x0) >= 1 - EXACT

        # a half-wave plate is its own inverse
        st = apply_elements(
            basis_state(space, "V", 0, "x"), [hwp(math.pi / 8, "x")] * 2
        )
        assert max_amplitude_difference(st, basis_state(space, "V", 0, "x")) < EXACT

        # two parity prisms give back the input with a sign
        st = apply_elements(basis_state(space, "H", 2, "x"), [dp(math.pi / 5, "x")] * 2)
        ((mode, amp),) = st.amplitudes.items()
        assert mode == BasisMode("H", 2, "x")
        assert abs(amp + 1.0) < EXACT

        # a double beam-splitter pass crosses over with phase i
        st = apply_elements(x0, [bs("x", "y"), bs("x", "y")])
        ((mode, amp),) = st.amplitudes.items()
        assert mode == BasisMode("H", 0, "y")
        assert abs(amp - 1.0j) < EXACT


def test_acceptance_8_circuit_format():
    with criterion(8, "circuit text format"):
        doc = builtin_document("fig2")
        assert print_circuit(parse_circuit(doc)) == doc

        fixtures = [
            ("unknown_directive.circ", CircuitSyntaxError, 3, 1),
            ("bad_lmax_value.circ", CircuitSyntaxError, 1, 6),
            ("duplicate_paths.circ", CircuitSemanticError, 3, 1),
            ("missing_stage_kind.circ", CircuitSyntaxError, 2, 6),
            ("unknown_stage_kind.circ", CircuitSyntaxError, 2, 7),
            ("unknown_key.circ", CircuitSyntaxError, 2, 39),
            ("undeclared_path.circ", CircuitSemanticError, 2, 26),
            ("bad_angle.circ", CircuitSyntaxError, 2, 34),
            ("fractional_charge.circ", CircuitSemanticError, 2, 1),
            ("same_path_twice.circ", CircuitSemanticError, 2, 1),
        ]
        for name, exc_type, line, column in fixtures:
            text = (DATA / name).read_text()
            with pytest.raises(exc_type) as excinfo:
                parse_circuit(text)
            err = excinfo.value
            assert err.line == line, name
            assert err.column == column, name
            assert f"line {line}, column {column}" in str(err), name
