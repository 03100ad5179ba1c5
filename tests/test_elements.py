"""Element-level truth tables and algebraic invariants.

Truth tables are checked exhaustively over every basis mode the element
touches, against hand-derived expectations at 1e-12.  The algebra tests
drive random superpositions through element pairs with a seeded RNG.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from bellsim.elements import (
    ACTIONS,
    Element,
    apply_element,
    bs,
    dl,
    dp,
    element_column,
    hwp,
    mirror,
    oam_sorter,
    pbs,
    pp,
    qp,
    qwp,
    spp,
)
from bellsim.errors import NonPhysicalQ, OamOverflow, SamePath, UnknownPath, UnsortableOam
from bellsim.state import (
    BasisMode,
    ModeSpace,
    PhotonState,
    basis_state,
    circular_state,
    fidelity,
    max_amplitude_difference,
)

SPACE = ModeSpace(lmax=4, paths=("x", "y"))
TOL = 1e-12


def _mode(pol, oam, path="x"):
    return basis_state(SPACE, pol, oam, path)


def _random_state(rng, space=SPACE):
    modes = space.modes()
    vec = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    vec /= np.linalg.norm(vec)
    return PhotonState(space, dict(zip(modes, map(complex, vec))))


# -- wave plates --------------------------------------------------------


def test_qwp_truth_table():
    """The working quarter-wave plate: H->L and R->H exactly."""
    out_h = apply_element(_mode("H", 0), qwp("x"))
    assert max_amplitude_difference(out_h, circular_state(SPACE, "L", 0, "x")) < TOL

    out_r = apply_element(circular_state(SPACE, "R", 0, "x"), qwp("x"))
    assert max_amplitude_difference(out_r, _mode("H", 0)) < TOL

    # V and L land on circular/linear targets with a residual i
    out_v = apply_element(_mode("V", 0), qwp("x"))
    ref_r = circular_state(SPACE, "R", 0, "x")
    assert fidelity(out_v, ref_r) == pytest.approx(1.0, abs=TOL)
    assert abs(out_v.amplitude(BasisMode("H", 0, "x")) - 1j / math.sqrt(2)) < TOL

    out_l = apply_element(circular_state(SPACE, "L", 0, "x"), qwp("x"))
    assert abs(out_l.amplitude(BasisMode("V", 0, "x")) - 1j) < TOL


def test_qwp_fourth_power_is_identity_up_to_phase():
    rng = np.random.default_rng(11)
    for _ in range(50):
        st = _random_state(rng)
        out = st
        for _ in range(4):
            out = apply_element(out, qwp(("x", "y")))
        assert fidelity(out, st) >= 1 - 1e-10


@pytest.mark.parametrize(
    "theta,pol_in,expect",
    [
        (math.pi / 8, "H", {("H"): 1 / math.sqrt(2), ("V"): 1 / math.sqrt(2)}),
        (math.pi / 8, "V", {("H"): 1 / math.sqrt(2), ("V"): -1 / math.sqrt(2)}),
        (math.pi / 4, "H", {("V"): 1.0}),
        (math.pi / 4, "V", {("H"): 1.0}),
        (0.0, "H", {("H"): 1.0}),
        (0.0, "V", {("V"): -1.0}),
    ],
)
def test_hwp_matrix_rows(theta, pol_in, expect):
    out = apply_element(_mode(pol_in, 0), hwp(theta, "x"))
    for pol, amp in expect.items():
        assert abs(out.amplitude(BasisMode(pol, 0, "x")) - amp) < TOL
    assert out.norm() == pytest.approx(1.0)


def test_hwp_is_involutive():
    rng = np.random.default_rng(12)
    for theta in (0.3, math.pi / 8, 1.1):
        st = _random_state(rng)
        out = apply_element(apply_element(st, hwp(theta, ("x", "y"))), hwp(theta, ("x", "y")))
        assert max_amplitude_difference(out, st) < 1e-12


# -- q-plates and spiral plates -----------------------------------------


def test_qp_on_circular_basis():
    """|L,l> -> |R,l+2q> and |R,l> -> |L,l-2q>."""
    out = apply_element(circular_state(SPACE, "L", 0, "x"), qp(Fraction(1, 2), "x"))
    assert max_amplitude_difference(out, circular_state(SPACE, "R", 1, "x")) < TOL
    out = apply_element(circular_state(SPACE, "R", 0, "x"), qp(Fraction(1, 2), "x"))
    assert max_amplitude_difference(out, circular_state(SPACE, "L", -1, "x")) < TOL
    out = apply_element(circular_state(SPACE, "L", -2, "x"), qp(1, "x"))
    assert max_amplitude_difference(out, circular_state(SPACE, "R", 0, "x")) < TOL


def test_qp_on_linear_basis_splits_four_ways():
    out = apply_element(_mode("H", 0), qp(Fraction(1, 2), "x"))
    expect = {
        BasisMode("H", 1, "x"): 0.5,
        BasisMode("V", 1, "x"): -0.5j,
        BasisMode("H", -1, "x"): 0.5,
        BasisMode("V", -1, "x"): 0.5j,
    }
    for mode, amp in expect.items():
        assert abs(out.amplitude(mode) - amp) < TOL
    assert out.norm() == pytest.approx(1.0)


def test_qp_rejects_non_half_integer_charge():
    with pytest.raises(NonPhysicalQ):
        qp(Fraction(1, 3), "x")
    with pytest.raises(NonPhysicalQ):
        qp(0.4, "x")


def test_qp_overflow_checks_both_branches():
    # l=4 with q=1/2: the upward branch would land on l=5
    with pytest.raises(OamOverflow):
        apply_element(_mode("H", 4), qp(Fraction(1, 2), "x"))


def test_spp_shifts_and_adds():
    out = apply_element(_mode("H", 0), spp(3, "x"))
    assert max_amplitude_difference(out, _mode("H", 3)) < TOL
    # spp(a) then spp(b) == spp(a+b)
    rng = np.random.default_rng(13)
    small = ModeSpace(lmax=4, paths=("x",))
    modes = [m for m in small.modes() if abs(m.oam) <= 1]
    vec = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
    vec /= np.linalg.norm(vec)
    st = PhotonState(small, dict(zip(modes, map(complex, vec))))
    two_step = apply_element(apply_element(st, spp(2, "x")), spp(1, "x"))
    one_step = apply_element(st, spp(3, "x"))
    assert max_amplitude_difference(two_step, one_step) < TOL


def test_spp_overflow():
    with pytest.raises(OamOverflow):
        apply_element(_mode("H", 2), spp(3, "x"))


# -- dove prisms and mirrors --------------------------------------------


def test_dp_truth_table():
    """|l> -> i e^{2 i alpha l} |-l>."""
    alpha = 0.7
    out = apply_element(_mode("H", 2), dp(alpha, "x"))
    expect = 1j * np.exp(2j * alpha * 2)
    assert abs(out.amplitude(BasisMode("H", -2, "x")) - expect) < TOL


def test_dp_squared_is_minus_identity():
    rng = np.random.default_rng(14)
    for alpha in (0.0, math.pi / 4, 1.23):
        st = _random_state(rng)
        out = apply_element(apply_element(st, dp(alpha, ("x", "y"))), dp(alpha, ("x", "y")))
        flipped = PhotonState(st.space, {m: -a for m, a in st.amplitudes.items()})
        assert max_amplitude_difference(out, flipped) < 1e-12


def test_mirror_flips_with_i():
    out = apply_element(_mode("V", 3), mirror("x"))
    assert abs(out.amplitude(BasisMode("V", -3, "x")) - 1j) < TOL


# -- phase plates -------------------------------------------------------


def test_pp_selectors():
    st = apply_element(_mode("V", 1), pp(math.pi, "x", pol="V"))
    assert abs(st.amplitude(BasisMode("V", 1, "x")) + 1.0) < TOL
    untouched = apply_element(_mode("H", 1), pp(math.pi, "x", pol="V"))
    assert abs(untouched.amplitude(BasisMode("H", 1, "x")) - 1.0) < TOL

    by_oam = apply_element(_mode("H", 1), pp(math.pi / 2, "x", oam=1))
    assert abs(by_oam.amplitude(BasisMode("H", 1, "x")) - 1j) < TOL
    miss = apply_element(_mode("H", -1), pp(math.pi / 2, "x", oam=1))
    assert abs(miss.amplitude(BasisMode("H", -1, "x")) - 1.0) < TOL


# -- two-path elements --------------------------------------------------


def test_bs_truth_table():
    out_x = apply_element(_mode("H", 0, "x"), bs("x", "y"))
    assert abs(out_x.amplitude(BasisMode("H", 0, "x")) - 1 / math.sqrt(2)) < TOL
    assert abs(out_x.amplitude(BasisMode("H", 0, "y")) - 1j / math.sqrt(2)) < TOL
    out_y = apply_element(_mode("H", 0, "y"), bs("x", "y"))
    assert abs(out_y.amplitude(BasisMode("H", 0, "x")) - 1j / math.sqrt(2)) < TOL
    assert abs(out_y.amplitude(BasisMode("H", 0, "y")) - 1 / math.sqrt(2)) < TOL


def test_bs_squared_swaps_with_i():
    rng = np.random.default_rng(15)
    st = _random_state(rng)
    out = apply_element(apply_element(st, bs("x", "y")), bs("x", "y"))
    swapped = {}
    for mode, amp in st.amplitudes.items():
        other = "y" if mode.path == "x" else "x"
        swapped[BasisMode(mode.pol, mode.oam, other)] = 1j * amp
    assert max_amplitude_difference(out, PhotonState(st.space, swapped)) < 1e-12


def test_pbs_routes_by_polarization():
    keep = apply_element(_mode("H", 1, "x"), pbs("x", "y"))
    assert abs(keep.amplitude(BasisMode("H", 1, "x")) - 1.0) < TOL
    cross = apply_element(_mode("V", 1, "x"), pbs("x", "y"))
    assert abs(cross.amplitude(BasisMode("V", 1, "y")) - 1.0) < TOL


def test_oam_sorter_routes_by_sign():
    keep = apply_element(_mode("H", 1, "x"), oam_sorter("x", "y"))
    assert abs(keep.amplitude(BasisMode("H", 1, "x")) - 1.0) < TOL
    cross = apply_element(_mode("H", -1, "x"), oam_sorter("x", "y"))
    assert abs(cross.amplitude(BasisMode("H", -1, "y")) - 1.0) < TOL


def test_oam_sorter_domain():
    with pytest.raises(UnsortableOam):
        apply_element(_mode("H", 0, "x"), oam_sorter("x", "y"))
    with pytest.raises(UnsortableOam):
        apply_element(_mode("H", 2, "x"), oam_sorter("x", "y"))


@pytest.mark.parametrize("factory", [bs, pbs, oam_sorter])
def test_two_path_elements_reject_same_path(factory):
    with pytest.raises(SamePath):
        factory("x", "x")


def test_dl_is_identity():
    rng = np.random.default_rng(16)
    st = _random_state(rng)
    assert max_amplitude_difference(apply_element(st, dl("x")), st) == 0.0


# -- norm preservation stress -------------------------------------------


def test_elements_preserve_norm_on_random_states():
    """Every element is an isometry: no norm drift over 1000 random runs."""
    rng = np.random.default_rng(0xE1E)
    catalog = [
        qwp(("x", "y")),
        hwp(math.pi / 8, ("x", "y")),
        hwp(1.234, "x"),
        qp(Fraction(1, 2), ("x", "y")),
        spp(1, ("x", "y")),
        spp(-2, "y"),
        dp(math.pi / 4, ("x", "y")),
        dp(0.37, "x"),
        pp(1.9, ("x", "y")),
        pp(math.pi, "x", pol="V"),
        pp(-math.pi / 2, "y", oam=1),
        mirror(("x", "y")),
        bs("x", "y"),
        pbs("x", "y"),
        dl(("x", "y")),
    ]
    # keep OAM in a safe band so shift elements cannot overflow
    modes = [m for m in SPACE.modes() if abs(m.oam) <= 2]
    for _ in range(1000):
        vec = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        vec /= np.linalg.norm(vec)
        st = PhotonState(SPACE, dict(zip(modes, map(complex, vec))))
        elem = catalog[int(rng.integers(len(catalog)))]
        out = apply_element(st, elem)
        assert abs(out.norm() - 1.0) < 1e-12


def test_element_column_is_identity_off_path():
    col = element_column(spp(2, "x"), SPACE)
    (mode, amp), = col(BasisMode("H", 4, "y"))
    assert mode == BasisMode("H", 4, "y")
    assert amp == 1.0 + 0.0j


def test_every_kind_is_identity_off_placement_and_checks_paths():
    """Each entry of the action table, through ``element_column``."""
    wide = ModeSpace(lmax=2, paths=("x", "y", "z"))
    samples = {
        "qwp": lambda ps: qwp(ps),
        "hwp": lambda ps: hwp(0.3, ps),
        "qp": lambda ps: qp(Fraction(1, 2), ps),
        "spp": lambda ps: spp(1, ps),
        "dp": lambda ps: dp(0.4, ps),
        "pp": lambda ps: pp(0.5, ps, pol="V", oam=1),
        "mirror": lambda ps: mirror(ps),
        "bs": lambda ps: bs(*ps),
        "pbs": lambda ps: pbs(*ps),
        "oam_sorter": lambda ps: oam_sorter(*ps),
        "dl": lambda ps: dl(ps),
        "p_cos": lambda ps: Element("p_cos", ps, {"q": Fraction(1, 2)}),
        "oh": lambda ps: Element("oh", ps),
        "dp_stage": lambda ps: Element("dp_stage", ps),
    }
    assert set(samples) == set(ACTIONS)
    for kind, make in samples.items():
        col = element_column(make(("x", "y")), wide)
        for mode in wide.modes():
            if mode.path == "z":
                assert col(mode) == [(mode, 1.0 + 0.0j)], kind
        with pytest.raises(UnknownPath):
            element_column(make(("x", "w")), wide)
    with pytest.raises(ValueError, match="unknown element kind"):
        element_column(Element("prism", ("x",)), wide)


def test_mirror_is_dove_prism_at_zero_bit_for_bit():
    mirror_col = element_column(mirror(("x", "y")), SPACE)
    dp_col = element_column(dp(0.0, ("x", "y")), SPACE)
    for mode in SPACE.modes():
        # repr tells signed zeros apart, so this is an exact comparison
        assert repr(mirror_col(mode)) == repr(dp_col(mode))
