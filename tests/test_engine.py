"""Compilation, sparse propagation, and the dense matrix oracle.

The oracle cross-check is the load-bearing test here: the same plan is
run sparsely (per-mode images contracted with the input, checked here
against an op-by-op fold) and as dense per-photon matrices, and the two
must agree on a seeded batch of random input states.  The dense
matrices are assembled from each op's block in ``bellsim.blocks``, the
physics restated apart from the column functions the sparse engine runs;
both are also held to this file's op-by-op reference fold.
"""

import dataclasses
import math
from fractions import Fraction
from itertools import islice

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_circuit import _circuits

from bellsim import engine
from bellsim.circuit import PHOTONS, STAGE_KINDS, Circuit, Stage, builtin_document, parse_circuit
from bellsim.elements import ACTIONS, apply_column
from bellsim.analyzer import BELL_LABELS, prepare_input, random_input_states
from bellsim.engine import (
    ANCILLA_PATH,
    MAX_PHOTON_DIMENSION,
    CompiledOp,
    CompiledStage,
    Plan,
    assemble,
    compile_circuit,
    propagate,
    propagate_with_checkpoints,
    restrict_to_circuit,
)
from bellsim.errors import (
    BellSimError,
    DimensionCap,
    LeakedAmplitude,
    OamOverflow,
    UnknownPath,
    UnsortableOam,
)
from bellsim.state import BasisMode, ModeSpace, PhotonState, TwoPhotonState, _clean

FIG2 = parse_circuit(builtin_document("fig2"))
SPACE = FIG2.space()

_SECTOR = [
    (BasisMode(pa, 0, x), BasisMode(pb, 0, y))
    for x in ("a1", "b1")
    for y in ("a2", "b2")
    for pa in ("H", "V")
    for pb in ("H", "V")
]


def _random_sector_state(rng):
    vec = rng.standard_normal(len(_SECTOR)) + 1j * rng.standard_normal(len(_SECTOR))
    vec /= np.linalg.norm(vec)
    return TwoPhotonState(SPACE, dict(zip(_SECTOR, map(complex, vec))))


def _maxdiff(x, y):
    keys = set(x.amplitudes) | set(y.amplitudes)
    return max(
        abs(x.amplitudes.get(k, 0.0) - y.amplitudes.get(k, 0.0)) for k in keys
    )


# -- compilation --------------------------------------------------------


def test_plan_shape_for_builtin():
    plan = compile_circuit(FIG2)
    assert len(plan.stages) == 9  # sppm stages compile to measurement data
    assert plan.ancilla is None
    assert plan.space == SPACE
    assert plan.origins == {"A": ("a1", "b1"), "B": ("a2", "b2")}
    assert plan.sppm_impl == {p: "canonical" for p in ("a1", "b1", "a2", "b2")}
    assert plan.checkpoints == (
        ("p_cos", 2),
        ("o_cps", 4),
        ("dp_stage", 5),
        ("oh", 7),
        ("hwp", 9),
    )


def test_decomposed_plan_extends_space():
    plan = compile_circuit(FIG2, impl_override="decomposed")
    assert plan.ancilla == ANCILLA_PATH
    assert ANCILLA_PATH in plan.space.paths
    assert plan.space.dimension == SPACE.dimension + 2 * (2 * FIG2.lmax + 1)
    # far more element ops than canonical stages
    assert sum(len(s.ops) for s in plan.stages) > 50


def test_decomposed_router_plan_is_pinned_op_for_op():
    """fig2's decomposed photon-A router: its 15 element ops, in order, with
    their exact parameters (the calibration plates are the last three)."""
    plan = compile_circuit(FIG2, impl_override="decomposed")
    (router,) = [s for s in plan.stages if s.label == "o_cps photon=A paths=a1,b1"]
    assert [op.label for op in router.ops] == [
        "spp(l=1)@a1",
        "spp(l=1)@b1",
        "pp(phi=3.141592653589793)@a1",
        "pp(phi=3.141592653589793)@b1",
        "bs@a1,b1",
        "dp(alpha=0.7853981633974483)@a1",
        "dp(alpha=0.0)@b1",
        "mirror@a1",
        "mirror@b1",
        "bs@a1,b1",
        "spp(l=-1)@a1",
        "spp(l=-1)@b1",
        "pp(oam=-1 phi=-1.5707963267948966)@a1",
        "pp(oam=1 phi=-3.141592653589793)@a1",
        "pp(oam=-1 phi=-1.5707963267948966)@b1",
    ]


@pytest.mark.parametrize("kind", ["qwp", "sppm"])
def test_compile_rejects_a_stage_on_an_undeclared_photon(kind):
    """Only a circuit built in code can name photon C; compiling it names
    the stage instead of dropping the op (qwp) or a bare KeyError (sppm)."""
    circuit = dataclasses.replace(FIG2, stages=(*FIG2.stages[:2], Stage(kind, "C", ("a1",))))
    with pytest.raises(ValueError, match=rf"^stage 3 \({kind} photon=C paths=a1\): unknown photon 'C'; expected A or B$"):
        compile_circuit(circuit)


def test_origin_fallback_without_measurement_stages():
    circuit = parse_circuit(
        "paths a1 a2 b1 b2\nstage qwp photon=A paths=a1\n"
    )
    plan = compile_circuit(circuit)
    assert plan.origins == {"A": ("a1", "b1"), "B": ("a2", "b2")}


@pytest.mark.parametrize("impl", [None, "canonical", "decomposed"])
def test_fallback_origins_take_the_impl_override(impl):
    circuit = parse_circuit("paths a1 a2 b1 b2\nstage qwp photon=A paths=a1\n")
    plan = compile_circuit(circuit, impl)
    assert plan.sppm_impl == dict.fromkeys(("a1", "b1", "a2", "b2"), impl or "canonical")


def test_a_repeated_sppm_stage_keeps_its_origin_once_at_its_first_position():
    circuit = parse_circuit(builtin_document("fig2") + "stage sppm photon=A paths=a1\n")
    assert compile_circuit(circuit).origins == {"A": ("a1", "b1"), "B": ("a2", "b2")}


def test_explicit_origins_respected():
    circuit = parse_circuit(
        "paths w1 w2\nstage sppm photon=A paths=w1\nstage sppm photon=B paths=w2\n"
    )
    plan = compile_circuit(circuit)
    assert plan.origins == {"A": ("w1",), "B": ("w2",)}


def test_bad_override_rejected():
    with pytest.raises(ValueError):
        compile_circuit(FIG2, impl_override="fast")


# -- propagation --------------------------------------------------------


def test_empty_plan_is_identity():
    circuit = parse_circuit("lmax 4\npaths a1 a2 b1 b2\n")
    plan = compile_circuit(circuit)
    st = TwoPhotonState(
        circuit.space(), {(_SECTOR[0][0], _SECTOR[0][1]): 1.0}
    )
    assert propagate(plan, st) == st


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_canonical_and_decomposed_agree(seed):
    rng = np.random.default_rng(seed)
    plan_c = compile_circuit(FIG2, "canonical")
    plan_d = compile_circuit(FIG2, "decomposed")
    for _ in range(5):
        st = _random_sector_state(rng)
        out_c = propagate(plan_c, st)
        out_d = propagate(plan_d, st)
        assert _maxdiff(out_c, out_d) < 1e-12


def test_checkpoint_states_agree_across_impls():
    plan_c = compile_circuit(FIG2, "canonical")
    plan_d = compile_circuit(FIG2, "decomposed")
    st = _random_sector_state(np.random.default_rng(4))
    _, marks_c = propagate_with_checkpoints(plan_c, st)
    _, marks_d = propagate_with_checkpoints(plan_d, st)
    assert set(marks_c) == {"p_cos", "o_cps", "dp_stage", "oh", "hwp"}
    for name in marks_c:
        assert _maxdiff(marks_c[name], marks_d[name]) < 1e-12


def test_propagation_error_names_stage():
    circuit = parse_circuit(
        "paths w x\nstage spp photon=A paths=w l=3\nstage spp photon=A paths=w l=3\n"
    )
    st = TwoPhotonState(
        circuit.space(),
        {(BasisMode("H", 0, "w"), BasisMode("H", 0, "x")): 1.0},
    )
    with pytest.raises(OamOverflow) as info:
        propagate(compile_circuit(circuit), st)
    assert "stage 2" in str(info.value)
    assert "spp" in str(info.value)


def test_sign_domain_error_names_stage():
    circuit = parse_circuit("paths w x\nstage o_cps photon=A paths=w,x\n")
    st = TwoPhotonState(
        circuit.space(),
        {(BasisMode("H", 0, "w"), BasisMode("H", 0, "x")): 1.0},
    )
    with pytest.raises(UnsortableOam) as info:
        propagate(compile_circuit(circuit), st)
    assert "stage 1" in str(info.value)


def test_restrict_raises_on_ancilla_light():
    plan = compile_circuit(FIG2, "decomposed")
    bad = TwoPhotonState(
        plan.space,
        {(BasisMode("H", 1, ANCILLA_PATH), BasisMode("H", 0, "a2")): 1.0},
    )
    with pytest.raises(LeakedAmplitude):
        restrict_to_circuit(plan, bad, "unit test")


def test_ancilla_light_after_the_final_stage_names_where_it_was_found():
    plan = compile_circuit(FIG2, "decomposed")
    bell = prepare_input("phi+", SPACE)
    amps = {pair: 0.8 * amp for pair, amp in bell.amplitudes.items()}
    amps[BasisMode("H", 1, plan.ancilla), BasisMode("H", 0, "a2")] = 0.6 + 0.0j
    state = TwoPhotonState(plan.space, amps)
    with pytest.raises(LeakedAmplitude) as info:
        propagate(plan, state)
    assert str(info.value) == "after final stage: probability 3.600e-01 left on ancilla path _mzi"
    with pytest.raises(LeakedAmplitude) as info:
        propagate_with_checkpoints(plan, state)
    assert str(info.value) == "checkpoint p_cos: probability 3.600e-01 left on ancilla path _mzi"


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_sub_threshold_input_amplitude_is_dropped(impl):
    plan = compile_circuit(FIG2, impl)
    bell = prepare_input("phi+", SPACE)
    tiny = dict(bell.amplitudes)
    tiny[(BasisMode("H", 0, "a1"), BasisMode("H", 0, "b2"))] = 1e-16
    assert repr(propagate(plan, TwoPhotonState(SPACE, tiny))) == repr(propagate(plan, bell))


def apply_column_to_photon(state, photon, column):
    """Apply a single-photon column operator to one factor of a pair state."""
    first = photon == "A"
    out = {}
    for (ma, mb), amp in state.amplitudes.items():
        for mode, coeff in column(ma if first else mb):
            key = (mode, mb) if first else (ma, mode)
            out[key] = out.get(key, 0j) + amp * coeff
    return TwoPhotonState(state.space, _clean(out))


def _fold(plan, state):
    """Reference: the state after each compiled stage, one
    ``apply_column_to_photon`` per op, with no per-mode images; an op that
    raises is named by its stage and element."""
    state = state.with_space(plan.space)
    trace = [state]
    for cs in plan.stages:
        for op in cs.ops:
            try:
                state = apply_column_to_photon(state, cs.photon, op.column)
            except BellSimError as exc:
                raise type(exc)(f"stage {cs.index + 1} ({cs.label}), element {op.label}: {exc}") from exc
        trace.append(state)
    return trace


def _fold_with_checkpoints(plan, state):
    """``propagate_with_checkpoints`` read off ``_fold``, restricting in the same order."""
    trace = _fold(plan, state)
    marks = {
        kind: restrict_to_circuit(plan, trace[count], f"checkpoint {kind}")
        for kind, count in plan.checkpoints
    }
    return restrict_to_circuit(plan, trace[-1], "after final stage"), marks


def _assert_close(got, want):
    assert got.space == want.space
    assert got.amplitudes.keys() == want.amplitudes.keys()
    for key, amp in want.amplitudes.items():
        assert abs(got.amplitudes[key] - amp) <= 1e-15, key


_FOLD_PLANS = {
    (lmax, impl): compile_circuit(dataclasses.replace(FIG2, lmax=lmax), impl)
    for lmax in (4, 16)
    for impl in (None, "canonical", "decomposed")
}


def _outcome(run, plan, state):
    """What ``run`` returns, or the type and text of the error it raises."""
    try:
        return run(plan, state)
    except BellSimError as exc:
        return type(exc), str(exc)


def _assert_matches_fold(plan, state):
    """``propagate_with_checkpoints`` equals the fold at every checkpoint, or
    raises the same error with the same text."""
    got = _outcome(propagate_with_checkpoints, plan, state)
    want = _outcome(_fold_with_checkpoints, plan, state)
    if isinstance(want[0], type) or isinstance(got[0], type):
        assert got == want
        return
    (final, marks), (want_final, want_marks) = got, want
    _assert_close(final, want_final)
    _assert_close(propagate(plan, state), want_final)
    assert marks.keys() == want_marks.keys() == {kind for kind, _ in plan.checkpoints}
    for kind, mark in want_marks.items():
        _assert_close(marks[kind], mark)


@pytest.mark.parametrize("key", list(_FOLD_PLANS))
@pytest.mark.parametrize("label", BELL_LABELS)
def test_propagation_matches_op_by_op_fold_on_bell_inputs(key, label):
    plan = _FOLD_PLANS[key]
    _assert_matches_fold(plan, prepare_input(label, plan.circuit.space()))


_PARTS = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


@pytest.mark.parametrize("key", list(_FOLD_PLANS))
@settings(derandomize=True, max_examples=10, deadline=None)
@given(parts=st.lists(st.tuples(_PARTS, _PARTS), min_size=len(_SECTOR), max_size=len(_SECTOR)))
def test_propagation_matches_op_by_op_fold_on_sector_states(key, parts):
    amps = [complex(re, im) for re, im in parts]
    norm = math.sqrt(sum(abs(a) ** 2 for a in amps))
    assume(norm > 1e-3)
    plan = _FOLD_PLANS[key]
    state = TwoPhotonState(
        plan.circuit.space(), {pair: a / norm for pair, a in zip(_SECTOR, amps) if a}
    )
    _assert_matches_fold(plan, state)


@pytest.mark.parametrize("lmax", (4, 16))
@pytest.mark.parametrize("impl", ("canonical", "decomposed"))
def test_contraction_matches_op_by_op_replay_at_every_stage_count(impl, lmax):
    """``_states`` contracts each input with the plan's transfer matrices, and
    ``_fold`` applies op after op: within 1e-15, on equal supports, at every count."""
    plan = _FOLD_PLANS[lmax, impl]
    space = plan.circuit.space()
    inputs = [prepare_input(label, space) for label in BELL_LABELS]
    inputs += random_input_states(200, 0xC0FFEE, space)
    counts = tuple(range(len(plan.stages) + 1))
    for state in inputs:
        replay = _fold(plan, state)
        got = engine._states(plan, state, counts)
        assert len(got) == len(replay)
        for at_count, want in zip(got, replay):
            _assert_close(at_count, want)


def test_transfer_matrices_grow_by_input_mode_not_by_state():
    """Each (photon, count) matrix has one column per distinct input mode
    pushed, however many states with different mode sets came before."""
    plan = compile_circuit(FIG2, "decomposed")
    modes = [BasisMode(pol, 0, path) for path in SPACE.paths for pol in ("H", "V")]
    rng = np.random.default_rng(1000)
    seen = {photon: set() for photon in PHOTONS}
    counts = tuple(range(len(plan.stages) + 1))
    for _ in range(1000):
        picks = [rng.choice(len(modes), size=rng.integers(1, 4), replace=False) for _ in PHOTONS]
        amps = {(modes[i], modes[j]): complex(*rng.standard_normal(2)) for i in picks[0] for j in picks[1]}
        engine._states(plan, TwoPhotonState(SPACE, amps), counts)
        for photon, pick in zip(PHOTONS, picks):
            seen[photon].update(modes[i] for i in pick)
    for photon in PHOTONS:
        assert {m for p, m in plan._images if p == photon} == seen[photon]
        transfer = plan._transfers[photon]
        assert len(transfer.columns) == len(seen[photon])
        for count in counts:
            rows, mat = transfer.at(count)
            assert mat.shape == (len(rows), len(seen[photon]))


def _bits(state):
    """A state's space, keys in order, and each amplitude's float bits."""
    return state.space, [(key, amp.real.hex(), amp.imag.hex()) for key, amp in state.amplitudes.items()]


def _run_bits(plan, state):
    """``propagate``, then ``propagate_with_checkpoints`` (final, then each mark), as ``_bits``."""
    final, marks = propagate_with_checkpoints(plan, state)
    return [_bits(propagate(plan, state)), _bits(final)] + [(kind, *_bits(m)) for kind, m in marks.items()]


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_layout_slot_matches_a_plan_without_it(impl):
    """One plan runs interleaved inputs whose keys repeat, reorder and shrink.
    Each result equals, key order and float bits included, a twin plan's with
    the same history whose layout slot is emptied before every call, and a
    fresh plan's up to key order (its transfer rows follow its own history)."""
    plan, twin = compile_circuit(FIG2, impl), compile_circuit(FIG2, impl)
    rng = np.random.default_rng(23)
    sector = [_random_sector_state(rng) for _ in range(4)]
    reordered = TwoPhotonState(SPACE, dict(reversed(sector[0].amplitudes.items())))
    smaller = TwoPhotonState(SPACE, dict(islice(sector[1].amplitudes.items(), 3, 9)))
    bell = [prepare_input(label, SPACE) for label in BELL_LABELS]
    inputs = [sector[0], sector[2], bell[0], sector[3], reordered, sector[0], smaller, bell[1]]
    inputs += [smaller, smaller, reordered, bell[2], sector[2], bell[3], bell[3]]
    for state in inputs:
        got = _run_bits(plan, state)
        object.__setattr__(twin, "_layout", (None,))
        assert got == _run_bits(twin, state)
        fresh = _run_bits(compile_circuit(FIG2, impl), state)
        assert [(*x[:-1], sorted(x[-1])) for x in got] == [(*x[:-1], sorted(x[-1])) for x in fresh]


def test_only_returned_counts_are_stripped_of_the_ancilla():
    """Faint ancilla light (1e-12 of the probability, under the 1e-10 bound)
    stays on at every count ``_states`` is asked for, in the plan's space, and
    is stripped from what ``propagate`` returns as ``restrict_to_circuit`` strips it."""
    plan = compile_circuit(FIG2, "decomposed")
    bell = prepare_input("phi+", SPACE)
    amps = {pair: math.sqrt(1 - 1e-12) * amp for pair, amp in bell.amplitudes.items()}
    amps[BasisMode("H", 1, plan.ancilla), BasisMode("H", 0, "a2")] = 1e-6 + 0.0j
    state = TwoPhotonState(plan.space, amps)
    counts = tuple(range(len(plan.stages) + 1))
    for at_count in engine._states(plan, state, counts):
        assert at_count.space == plan.space
        assert any(a.path == plan.ancilla for a, _ in at_count.amplitudes)
    unstripped = engine._states(plan, state, counts[-1:])[0]
    want = restrict_to_circuit(plan, unstripped, "after final stage")
    assert _bits(propagate(plan, state)) == _bits(want)
    assert want.space == SPACE and len(want.amplitudes) < len(unstripped.amplitudes)


_HAND_SPACE = ModeSpace(2, ("x", "y"))
_H0X, _V0X, _H0Y = BasisMode("H", 0, "x"), BasisMode("V", 0, "x"), BasisMode("H", 0, "y")
_C = 2 ** -0.5


def _hadamard(mode):
    """H -> (H + V)/sqrt2 and V -> (H - V)/sqrt2 on path x."""
    if mode.path != "x":
        return [(mode, 1.0 + 0.0j)]
    sign = 1.0 if mode.pol == "H" else -1.0
    return [(_H0X, complex(_C)), (_V0X, complex(sign * _C))]


def _rejects_v(mode):
    if mode == _V0X:
        raise UnsortableOam("V on x is not allowed here")
    return [(mode, 1.0 + 0.0j)]


def _hand_plan(*columns):
    ops = tuple(CompiledOp(f"e{i + 1}", column) for i, column in enumerate(columns))
    return Plan(
        circuit=Circuit(2, ("x", "y"), ()),
        space=_HAND_SPACE,
        ancilla=None,
        stages=(CompiledStage(0, "custom", "A", "canonical", "custom", ops),),
        origins={"A": ("x",), "B": ("y",)},
        sppm_impl={},
        checkpoints=(("custom", 1),),
    )


def test_raising_push_whose_joint_amplitude_cancels_returns_the_fold():
    """H0x's push reaches V0x, which the second op rejects and parks; in this
    state the joint amplitude on V0x cancels after the first op, so nothing raises."""
    plan = _hand_plan(_hadamard, _rejects_v)
    state = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0Y): complex(_C), (_V0X, _H0Y): complex(_C)})
    want = _fold(plan, state)[-1]
    assert want.amplitudes.keys() == {(_H0X, _H0Y)}
    _assert_close(propagate(plan, state), want)
    assert _parked(plan, "A", _H0X) == {(0, 1, _V0X): complex(_C)}  # the push did park light
    final, marks = propagate_with_checkpoints(plan, state)
    _assert_close(final, want)
    _assert_close(marks["custom"], want)


def _parked(plan, photon, mode):
    col = engine._push(plan, photon, mode)
    return plan._transfers[photon].parked[col]


def test_a_raising_push_records_where_it_stopped():
    """The second op rejects V0x: that light is parked under (stage 0, op 1,
    V0x) with its error, and H0x runs on to the end of the push."""
    plan = _hand_plan(_hadamard, _rejects_v)
    assert _parked(plan, "A", _H0X) == {(0, 1, _V0X): complex(_C)}
    assert isinstance(plan._transfers["A"].errors[0, 1, _V0X], UnsortableOam)
    assert plan._transfers["A"].columns[0] == [{_H0X: 1.0}, {_H0X: complex(_C)}]


def test_raising_push_without_cancellation_raises_the_op_by_op_error():
    plan = _hand_plan(_hadamard, _rejects_v)
    state = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0Y): 1.0 + 0.0j})
    with pytest.raises(UnsortableOam) as fold_info:
        _fold(plan, state)
    text = "stage 1 (custom), element e2: V on x is not allowed here"
    assert str(fold_info.value) == text
    for run in (propagate, propagate_with_checkpoints):
        with pytest.raises(UnsortableOam) as info:
            run(plan, state)
        assert str(info.value) == text


def test_a_sub_threshold_amplitude_on_parked_light_raises_nothing():
    """A 1e-16 input amplitude is below the 1e-15 drop, here as in every
    other amplitude, so the op that rejects its mode receives nothing."""
    plan = _hand_plan(_rejects_v)
    state = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0Y): 1.0 + 0.0j, (_V0X, _H0Y): 1e-16 + 0.0j})
    assert propagate(plan, state).amplitudes == {(_H0X, _H0Y): 1.0 + 0.0j}


def _to_nowhere(mode):
    """Every mode to a path the space does not declare."""
    return [(BasisMode(mode.pol, mode.oam, "nowhere"), 1.0 + 0.0j)]


def test_user_column_to_undeclared_path_raises():
    state = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0Y): 1.0 + 0.0j})
    with pytest.raises(UnknownPath) as info:
        propagate(_hand_plan(_to_nowhere), state)
    assert str(info.value) == "stage 1 (custom), element e1: path 'nowhere' is not declared (have ['x', 'y'])"


def test_user_column_past_lmax_raises():
    def column(mode):
        return [(BasisMode(mode.pol, mode.oam + _HAND_SPACE.lmax + 1, mode.path), 1.0 + 0.0j)]

    state = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0Y): 1.0 + 0.0j})
    with pytest.raises(OamOverflow) as info:
        propagate(_hand_plan(column), state)
    assert str(info.value) == "stage 1 (custom), element e1: OAM index +3 exceeds bound lmax=2"


def test_undeclared_mode_that_cancels_within_a_column_is_dropped_by_fold_and_push():
    ghost = BasisMode("H", 0, "nowhere")

    def column(mode):
        return [(mode, 1.0 + 0.0j), (ghost, 0.5 + 0.0j), (ghost, -0.5 + 0.0j)]

    state = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0Y): 0.6 + 0.0j, (_V0X, _H0Y): 0.8j})
    _assert_close(apply_column_to_photon(state, "A", column), state)
    plan = _hand_plan(column)
    _assert_close(propagate(plan, state), state)
    assert _parked(plan, "A", _H0X) == {}  # the push did not park light either


def test_second_state_on_the_same_modes_makes_no_column_calls():
    calls = []

    def counting(mode):
        calls.append(mode)
        return _hadamard(mode)

    plan = _hand_plan(counting)
    assert plan._images == {}  # filled lazily, not by construction
    # photon B sits on x too, where only photon A's op may act
    first = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0X): 0.6 + 0.0j, (_V0X, _H0X): 0.8j})
    propagate(plan, first)
    assert calls
    second = TwoPhotonState(_HAND_SPACE, {(_H0X, _H0X): 0.8 + 0.0j, (_V0X, _H0X): -0.6 + 0.0j})
    calls.clear()
    got = propagate(plan, second)
    assert calls == []
    _assert_close(got, _fold(plan, second)[-1])


_DARK_PORT = parse_circuit(
    "lmax 2\npaths a b c d e\n"
    "stage bs photon=B paths=d,e\n"
    "stage bs photon=A paths=a,b\n"
    "stage oam_sorter photon=A paths=b,c\n"
)
_DARK_PORT_ERROR = (
    "stage 3 (oam_sorter photon=A paths=b,c), element oam_sorter@b,c: "
    "OAM sorter on (b,c) received l=+0; its domain is l=+1/-1"
)


def _h0(path):
    return BasisMode("H", 0, path)


def test_a_sorter_on_a_dark_port_receives_nothing_in_an_interfering_pair():
    """Every l=0 input on a reaches the sorter on b, but in this pair the two
    beam splitters leave b dark, so the pair passes; a basis input raises."""
    plan = compile_circuit(_DARK_PORT)
    space = _DARK_PORT.space()
    state = TwoPhotonState(space, {
        (_h0("a"), _h0("d")): 0.5 + 0.0j,
        (_h0("b"), _h0("d")): -0.5j,
        (_h0("a"), _h0("e")): 0.5j,
        (_h0("b"), _h0("e")): 0.5 + 0.0j,
    })
    final = propagate(plan, state)
    assert final.amplitudes.keys() == {(_h0("a"), _h0("e"))}
    assert abs(final.amplitudes[_h0("a"), _h0("e")] - 1j) <= 1e-15
    # the text must not depend on which states a plan saw before
    modes = [BasisMode(pol, 0, path) for path in space.paths for pol in ("H", "V")]
    rng = np.random.default_rng(7)
    fresh, seasoned = compile_circuit(_DARK_PORT), compile_circuit(_DARK_PORT)
    for _ in range(20):
        picks = rng.integers(len(modes), size=(3, 2))
        _outcome(propagate, seasoned, TwoPhotonState(space, {(modes[i], modes[j]): 0.5 for i, j in picks}))
    basis = TwoPhotonState(space, {(_h0("a"), _h0("d")): 1.0 + 0.0j})
    for seen in (plan, fresh, seasoned):
        with pytest.raises(UnsortableOam) as info:
            propagate(seen, basis)
        assert str(info.value) == _DARK_PORT_ERROR


# -- the transfer matrices against the op-by-op fold, on random circuits --


@settings(derandomize=True, max_examples=40, deadline=None)
@given(circuit=_circuits(), seed=st.integers(0, 2**32 - 1))
def test_random_circuits_match_the_fold_or_raise_its_error(circuit, seed):
    """Every l=0 basis pair and a few l=0 superpositions, under every impl:
    the same states at every checkpoint, or the same error and text."""
    modes = [BasisMode(pol, 0, path) for path in circuit.paths for pol in ("H", "V")]
    pairs = [(ma, mb) for ma in modes for mb in modes]
    space = circuit.space()
    states = [TwoPhotonState(space, {pair: 1.0 + 0.0j}) for pair in pairs]
    rng = np.random.default_rng(seed)
    for _ in range(3):
        vec = rng.standard_normal(len(pairs)) + 1j * rng.standard_normal(len(pairs))
        vec /= np.linalg.norm(vec)
        states.append(TwoPhotonState(space, dict(zip(pairs, map(complex, vec)))))
    for impl in (None, "canonical", "decomposed"):
        try:
            plan = compile_circuit(circuit, impl)
        except BellSimError:
            continue
        for state in states:
            _assert_matches_fold(plan, state)


# -- dense assembly -----------------------------------------------------


def test_assembly_matches_sparse_on_random_batch():
    """50 seeded random input-sector states through both evolutions."""
    rng = np.random.default_rng(0xB5A)
    plan = compile_circuit(FIG2)
    dense = assemble(plan)
    for _ in range(50):
        st = _random_sector_state(rng)
        sparse_out = propagate(plan, st)
        dense_out = dense.apply(st)
        assert _maxdiff(sparse_out, dense_out) < 1e-10


def test_assembly_unitarity_residuals():
    dense = assemble(compile_circuit(FIG2))
    assert len(dense.records) == 9
    for record in dense.records:
        assert record.unitarity_residual <= 1e-10, record


def test_assembly_decomposed_unitarity():
    dense = assemble(compile_circuit(FIG2, "decomposed"))
    for record in dense.records:
        assert record.unitarity_residual <= 1e-10, record


def test_assembly_accumulates_repeated_output_modes():
    """qp q=0 sends its up and down branches to the same l, so each column
    lists one output mode twice; the dense matrix must sum them."""
    circuit = parse_circuit("lmax 2\npaths a1 a2 b1 b2\nstage qp photon=A paths=a1 q=0\n")
    plan = compile_circuit(circuit)
    dense = assemble(plan)
    assert max(r.unitarity_residual for r in dense.records) <= 1e-10
    modes = plan.space.modes()
    for ma in modes:
        for mb in modes:
            state = TwoPhotonState(plan.space, {(ma, mb): 1.0 + 0.0j})
            assert _maxdiff(dense.apply(state), propagate(plan, state)) <= 1e-12, (ma, mb)


def _reference_stages(plan):
    """Per compiled stage, its matrix and valid columns, one op at a time:
    column j of an op is the summed ``apply_column`` image of basis mode j,
    empty and invalid if the column raises."""
    modes = plan.space.modes()
    dim = len(modes)
    for cs in plan.stages:
        stage = np.eye(dim, dtype=complex)
        valid = np.ones(dim, dtype=bool)
        for op in cs.ops:
            mat = np.zeros((dim, dim), dtype=complex)
            for j, mode in enumerate(modes):
                basis = PhotonState(plan.space, {mode: 1.0 + 0.0j})
                try:
                    image = apply_column(basis, op.column)
                except BellSimError:
                    valid[j] = False
                    continue
                for out_mode, amp in image.amplitudes.items():
                    mat[plan.space.index(out_mode), j] = amp
            stage = mat @ stage
        yield cs, stage, valid


def _reference_matrices(plan):
    """Per-photon products of the reference stages, and their valid columns."""
    dim = plan.space.dimension
    mats = {p: np.eye(dim, dtype=complex) for p in PHOTONS}
    valids = {p: np.ones(dim, dtype=bool) for p in PHOTONS}
    for cs, stage, valid in _reference_stages(plan):
        mats[cs.photon] = stage @ mats[cs.photon]
        valids[cs.photon] &= valid
    return mats, valids


def _gram_residual(mat, valid):
    """max |G - I| for the full Gram G of ``mat``'s valid columns."""
    sub = mat[:, valid]
    return float(np.max(np.abs(sub.conj().T @ sub - np.eye(sub.shape[1])), initial=0.0))


_ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
_CHARGE = st.sampled_from([Fraction(q, 2) for q in (-2, -1, 0, 1, 2)])
_PARAMS = {
    "hwp": st.fixed_dictionaries({"theta": _ANGLE}),
    "qp": st.fixed_dictionaries({"q": _CHARGE}),
    "spp": st.fixed_dictionaries({"l": st.integers(-3, 3)}),
    "dp": st.fixed_dictionaries({"alpha": _ANGLE}),
    "pp": st.fixed_dictionaries(
        {"phi": _ANGLE}, optional={"pol": st.sampled_from("HV"), "oam": st.integers(-2, 2)}
    ),
    "p_cos": st.fixed_dictionaries({}, optional={"q": _CHARGE}),
}
_ASSEMBLY_CASES = [(kind, None) for kind in ACTIONS] + [
    (kind, impl)
    for kind, spec in STAGE_KINDS.items()
    if spec.composite and spec.build is not None
    for impl in ("canonical", "decomposed")
]


@pytest.mark.parametrize("kind,impl", _ASSEMBLY_CASES)
@settings(derandomize=True, max_examples=8, deadline=None)
@given(data=st.data())
def test_assembly_matches_summed_columns_per_kind(kind, impl, data):
    """Every element kind and composite stage kind at lmax 2, one stage on
    photon A, against the op-by-op reference of summed column images."""
    if STAGE_KINDS[kind].arity == 2:
        paths = ("x", "y")
    else:
        paths = data.draw(st.sampled_from([("x",), ("x", "y")]))
    params = data.draw(_PARAMS.get(kind, st.just({})))
    circuit = Circuit(2, ("x", "y", "z"), (Stage(kind, "A", paths, params),))
    plan = compile_circuit(circuit, impl)
    dense = assemble(plan)
    mats, valids = _reference_matrices(plan)
    assert np.max(np.abs(dense.u_a - mats["A"])) <= 1e-12
    assert np.array_equal(dense.u_b, np.eye(plan.space.dimension))
    (record,) = dense.records
    assert abs(record.unitarity_residual - _gram_residual(mats["A"], valids["A"])) <= 1e-15


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_stage_residuals_match_the_full_stage_gram(impl):
    """fig2 at lmax 4: each stage's residual, taken on the columns its ops
    move, is the one of the whole dense stage matrix's Gram."""
    plan = compile_circuit(dataclasses.replace(FIG2, lmax=4), impl)
    dense = assemble(plan)
    want = [_gram_residual(stage, valid) for _, stage, valid in _reference_stages(plan)]
    got = [r.unitarity_residual for r in dense.records]
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_assembly_matches_the_reference_at_lmax_8(impl):
    """fig2 at lmax 8, where the entries of one row merge across several
    chained ops: both matrices and every stage residual against the
    op-by-op reference."""
    plan = compile_circuit(dataclasses.replace(FIG2, lmax=8), impl)
    dense = assemble(plan)
    stages = list(_reference_stages(plan))
    mats = {p: np.eye(plan.space.dimension, dtype=complex) for p in PHOTONS}
    for cs, stage, _ in stages:
        mats[cs.photon] = stage @ mats[cs.photon]
    assert np.max(np.abs(dense.u_a - mats["A"])) <= 1e-12
    assert np.max(np.abs(dense.u_b - mats["B"])) <= 1e-12
    want = [_gram_residual(stage, valid) for _, stage, valid in stages]
    got = [r.unitarity_residual for r in dense.records]
    assert len(got) == len(want)
    assert np.max(np.abs(np.subtract(got, want))) <= 1e-15


def _absorbs_v(mode):
    """V on x goes nowhere: an empty column that is still a valid one."""
    return [] if mode == _V0X else [(mode, 1.0 + 0.0j)]


def _overflows_v(mode):
    """V on x overflows: an empty column that is not a valid one."""
    if mode == _V0X:
        raise OamOverflow("V on x leaves the space here")
    return [(mode, 1.0 + 0.0j)]


def _swaps_x(mode):
    return [({_H0X: _V0X, _V0X: _H0X}.get(mode, mode), 1.0 + 0.0j)]


def _merges_x(mode):
    """H and V on x both go to H on x: not an isometry."""
    return [(_H0X if mode in (_H0X, _V0X) else mode, 1.0 + 0.0j)]


@pytest.mark.parametrize(
    "columns",
    [(_absorbs_v,), (_swaps_x, _absorbs_v), (_swaps_x, _overflows_v), (_merges_x,)],
    ids=["absorbed", "moved-then-absorbed", "moved-then-overflowed", "merged"],
)
def test_stage_residual_sees_a_stage_that_is_not_unitary(columns):
    """A valid column that the stage absorbs, or that its first op moves onto
    a mode the second op absorbs or overflows (each op alone is unitary on
    its own valid columns in the last case), or two columns sent to one mode:
    the entry Gram of the stage's valid columns, from the reference fold."""
    ((_, stage, valid),) = _reference_stages(_hand_plan(*columns))
    rows, cols = np.nonzero(stage[:, valid])  # in row order, as the Gram reads them
    residual = engine._unitarity_residual(rows, cols, stage[:, valid][rows, cols], int(valid.sum()))
    assert residual >= 0.5


def _assert_dense_columns_are_the_pushes(plan):
    """Column j of ``u_a``/``u_b`` is ``_push``'s final image of basis mode j:
    the two evolutions agree on the whole space, light an op cannot take included."""
    dense = assemble(plan)
    modes = plan.space.modes()
    for photon, mat in zip(PHOTONS, (dense.u_a, dense.u_b)):
        want = np.zeros_like(mat)
        for j, mode in enumerate(modes):
            col = engine._push(plan, photon, mode)
            for out, amp in plan._transfers[photon].columns[col][-1].items():
                want[plan.space.index(out), j] = amp
        assert np.max(np.abs(mat - want)) <= 1e-12, photon


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_dense_columns_are_the_pushes_on_fig2(impl):
    _assert_dense_columns_are_the_pushes(compile_circuit(dataclasses.replace(FIG2, lmax=4), impl))


@pytest.mark.parametrize(
    "columns",
    [(_rejects_v,), (_hadamard, _rejects_v), (_overflows_v,), (_swaps_x, _overflows_v),
     (_absorbs_v,), (_swaps_x, _absorbs_v), (_merges_x,), (_to_nowhere,)],
    ids=["rejected", "mixed-then-rejected", "overflowed", "moved-then-overflowed",
         "absorbed", "moved-then-absorbed", "merged", "to-undeclared-path"],
)
def test_dense_columns_are_the_pushes_on_hand_plans(columns):
    """Code-built columns have no physics for ``assemble`` to restate, so the
    pushes are held to the op-by-op reference fold over the whole space instead."""
    plan = _hand_plan(*columns)
    mats, _ = _reference_matrices(plan)
    for photon in PHOTONS:
        want = np.zeros_like(mats[photon])
        for j, mode in enumerate(plan.space.modes()):
            col = engine._push(plan, photon, mode)
            for out, amp in plan._transfers[photon].columns[col][-1].items():
                want[plan.space.index(out), j] = amp
        assert np.max(np.abs(mats[photon] - want)) <= 1e-12, photon


def test_assemble_refuses_a_column_built_in_code():
    with pytest.raises(ValueError, match=r"^stage 1 \(custom\), element e1: no element or gate to assemble$"):
        assemble(_hand_plan(_hadamard))


@settings(derandomize=True, max_examples=40, deadline=None)
@given(circuit=_circuits())
def test_dense_columns_are_the_pushes_on_random_circuits(circuit):
    for impl in (None, "canonical", "decomposed"):
        try:
            plan = compile_circuit(circuit, impl)
        except BellSimError:
            continue
        _assert_dense_columns_are_the_pushes(plan)


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_dense_apply_on_sparse_states_over_the_whole_space(impl):
    """Random sparse psi anywhere in the space, not only the l=0 sector:
    ``apply`` must equal the full ``u_a @ psi @ u_b.T``."""
    plan = compile_circuit(dataclasses.replace(FIG2, lmax=3), impl)
    dense = assemble(plan)
    modes = plan.space.modes()
    dim = len(modes)
    rng = np.random.default_rng(0xD5E)
    for size in (1, 7, 40):
        flat = rng.choice(dim * dim, size=size, replace=False)
        psi = np.zeros((dim, dim), dtype=complex)
        psi.flat[flat] = rng.standard_normal(size) + 1j * rng.standard_normal(size)
        state = TwoPhotonState(
            plan.space,
            {(modes[i], modes[j]): complex(psi[i, j]) for i, j in zip(*np.nonzero(psi))},
        )
        want = dense.u_a @ psi @ dense.u_b.T
        got = np.zeros_like(want)
        for (ma, mb), amp in dense.apply(state).amplitudes.items():
            got[plan.space.index(ma), plan.space.index(mb)] = amp
        assert np.max(np.abs(got - want)) <= 1e-12
    assert dense.apply(TwoPhotonState(plan.space, {})).amplitudes == {}


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_apply_all_is_apply_on_each_state(impl):
    """The oracle's 54 inputs, an empty state, and states on random supports
    anywhere in the space, applied in one batch: exactly what ``apply`` gives
    each state alone, amplitude for amplitude and in the same order."""
    plan = compile_circuit(FIG2, impl)
    dense = assemble(plan)
    states = [prepare_input(label, SPACE) for label in BELL_LABELS] + random_input_states(50, space=SPACE)
    states.append(TwoPhotonState(plan.space, {}))
    modes = plan.space.modes()
    rng = np.random.default_rng(0xA11)
    for size in (1, 2, 5, 12):
        picks = rng.choice(len(modes), size=(size, 2))
        amps = {(modes[i], modes[j]): complex(*rng.standard_normal(2)) for i, j in picks}
        states.append(TwoPhotonState(plan.space, amps))
    got = dense.apply_all(states)
    assert len(got) == len(states)
    for state, out in zip(states, got):
        want = dense.apply(state)
        assert out.space == want.space == plan.space
        assert list(out.amplitudes.items()) == list(want.amplitudes.items())
    assert dense.apply_all([]) == []


def test_dimension_cap():
    # fig2's four paths give 16 * lmax + 8 modes per photon; assemble must
    # refuse this one before it allocates anything
    huge = dataclasses.replace(FIG2, lmax=MAX_PHOTON_DIMENSION // 16 + 1)
    assert huge.space().dimension > MAX_PHOTON_DIMENSION
    with pytest.raises(DimensionCap):
        assemble(compile_circuit(huge))


def test_factors_of_a_lossless_plan_are_unitary():
    mini = parse_circuit(
        "lmax 1\npaths u v\n"
        "stage hwp photon=A paths=u theta=pi/8\n"
        "stage bs photon=B paths=u,v\n"
    )
    small = assemble(compile_circuit(mini))
    eye = np.eye(mini.space().dimension)
    # no overflow columns here, so each factor is unitary outright
    for u in (small.u_a, small.u_b):
        assert np.allclose(u.conj().T @ u, eye, atol=1e-12)
