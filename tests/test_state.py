import math
import os
import pathlib
import pickle
import subprocess
import sys

import numpy as np
import pytest

import bellsim

from bellsim.errors import (
    DimensionMismatch,
    OamOverflow,
    UnknownPath,
    ZeroNorm,
)
from bellsim.state import (
    BasisMode,
    ModeSpace,
    PhotonState,
    TwoPhotonState,
    basis_state,
    circular_state,
    fidelity,
    global_phase_between,
    max_amplitude_difference,
)

SPACE = ModeSpace(lmax=2, paths=("a", "b"))


def test_a_space_hashes_once_and_as_an_equal_space_does_after_pickling_in_another_process():
    space = ModeSpace(4, ("a1", "b1"))
    assert hash(space) == hash(ModeSpace(4, ("a1", "b1"))) == vars(space)["_hash"]
    # a path label's string hash is salted per process: the child's hash of the space is not this one's
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(pathlib.Path(bellsim.__file__).parents[1])}
    script = "import pickle, sys; from bellsim.state import ModeSpace; sys.stdout.buffer.write(pickle.dumps(ModeSpace(4, ('a1', 'b1'))))"
    loaded = pickle.loads(subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, check=True, timeout=60).stdout)
    assert loaded == space
    assert hash(loaded) == hash(space)
    assert len({loaded, space}) == 1


def test_space_dimension():
    # 2 polarizations x (2*2+1) OAM values x 2 paths
    assert SPACE.dimension == 2 * 5 * 2
    assert ModeSpace(lmax=4, paths=("a1", "a2", "b1", "b2", "c", "d")).dimension == 108


def test_modes_are_ordered_and_indexable():
    modes = SPACE.modes()
    assert len(modes) == SPACE.dimension
    assert len(set(modes)) == len(modes)
    for i, mode in enumerate(modes):
        assert SPACE.index(mode) == i
    # path-major, then OAM ascending, then H before V
    assert modes[0] == BasisMode("H", -2, "a")
    assert modes[1] == BasisMode("V", -2, "a")
    assert modes[10] == BasisMode("H", -2, "b")


_OUTSIDE = [
    (BasisMode("H", 9, "a"), OamOverflow, "OAM index +9 exceeds bound lmax=2"),
    (BasisMode("H", 0, "zz"), UnknownPath, "path 'zz' is not declared (have ['a', 'b'])"),
    (BasisMode("X", 0, "a"), ValueError, "unknown polarization 'X'"),
]


@pytest.mark.parametrize("mode,error,text", _OUTSIDE, ids=["oam", "path", "pol"])
def test_a_mode_outside_the_space_raises_the_space_own_error(mode, error, text):
    """``index`` and the pair-state constructor, which maps each key through
    it, raise ``check_mode``'s error for a mode the space lacks."""
    with pytest.raises(error) as info:
        SPACE.index(mode)
    assert type(info.value) is error and str(info.value) == text
    inside = BasisMode("H", 0, "a")
    with pytest.raises(error) as info:
        TwoPhotonState(SPACE, {(inside, inside): 0.6, (inside, mode): 0.8})
    assert type(info.value) is error and str(info.value) == text


def test_mode_str():
    assert str(BasisMode("H", 1, "a1")) == "|H,+1,a1>"
    assert str(BasisMode("V", -2, "b")) == "|V,-2,b>"


@pytest.mark.parametrize("oam", [3, -3, 17])
def test_oam_bound_enforced(oam):
    with pytest.raises(OamOverflow):
        basis_state(SPACE, "H", oam, "a")


def test_unknown_path_rejected():
    with pytest.raises(UnknownPath):
        basis_state(SPACE, "H", 0, "nope")


def test_basis_state_is_normalized():
    st = basis_state(SPACE, "V", 1, "b")
    assert st.norm() == pytest.approx(1.0)
    assert st.amplitude(BasisMode("V", 1, "b")) == 1.0 + 0.0j


def test_fidelity_and_phase():
    x = basis_state(SPACE, "H", 0, "a")
    y = PhotonState(SPACE, {BasisMode("H", 0, "a"): 1.0j})
    assert fidelity(x, y) == pytest.approx(1.0)
    # c with y ~ c * x
    assert global_phase_between(x, y) == pytest.approx(1.0j)


def test_orthogonal_states():
    x = basis_state(SPACE, "H", 0, "a")
    y = basis_state(SPACE, "V", 0, "a")
    assert fidelity(x, y) == 0.0
    assert max_amplitude_difference(x, y) == pytest.approx(1.0)


def test_circular_states_expand_on_pinned_convention():
    """|L> = (|H> + i|V>)/sqrt(2) and |R> = (|H> - i|V>)/sqrt(2)."""
    left = circular_state(SPACE, "L", 0, "a")
    s = 1 / math.sqrt(2)
    assert left.amplitude(BasisMode("H", 0, "a")) == pytest.approx(s)
    assert left.amplitude(BasisMode("V", 0, "a")) == pytest.approx(1j * s)
    right = circular_state(SPACE, "R", 0, "a")
    assert right.amplitude(BasisMode("V", 0, "a")) == pytest.approx(-1j * s)
    assert fidelity(left, right) == pytest.approx(0.0, abs=1e-15)


def test_two_photon_validates_modes():
    with pytest.raises(OamOverflow):
        TwoPhotonState(SPACE, {(BasisMode("H", 9, "a"), BasisMode("H", 0, "a")): 1.0})
    with pytest.raises(UnknownPath):
        TwoPhotonState(SPACE, {(BasisMode("H", 0, "zz"), BasisMode("H", 0, "a")): 1.0})


def test_random_superpositions_keep_norm():
    rng = np.random.default_rng(20240817)
    modes = SPACE.modes()
    for _ in range(200):
        vec = rng.standard_normal(len(modes)) + 1j * rng.standard_normal(len(modes))
        vec /= np.linalg.norm(vec)
        st = PhotonState(SPACE, dict(zip(modes, map(complex, vec))))
        assert abs(st.norm() - 1.0) < 1e-12


def test_extended_space_rehosts_states():
    bigger = SPACE.extended(("zz",))
    assert bigger.dimension == 2 * 5 * 3
    st = TwoPhotonState(SPACE, {(BasisMode("H", 0, "a"), BasisMode("V", 0, "b")): 1.0})
    moved = st.with_space(bigger)
    assert moved.space == bigger
    assert moved.amplitude((BasisMode("H", 0, "a"), BasisMode("V", 0, "b"))) == 1.0


def test_rehosting_into_a_space_that_drops_a_mode_still_raises():
    st = TwoPhotonState(SPACE, {(BasisMode("H", 2, "a"), BasisMode("V", 0, "b")): 1.0})
    with pytest.raises(OamOverflow):
        st.with_space(ModeSpace(lmax=1, paths=("a", "b", "zz")))
    with pytest.raises(UnknownPath):
        st.with_space(ModeSpace(lmax=4, paths=("a", "zz")))
    # a larger lmax with the paths reordered still contains every mode
    moved = st.with_space(ModeSpace(lmax=4, paths=("b", "zz", "a")))
    assert moved.amplitudes == st.amplitudes and moved.space.lmax == 4
