import cmath
import dataclasses
import hashlib
import pathlib

import numpy as np
import pytest

from bellsim import elements
from bellsim.analyzer import (
    BELL_LABELS,
    CLASSIFICATION_TABLE,
    ORACLE_SEED,
    analyze,
    analyze_state,
    classification_rows,
    classify,
    default_circuit,
    oracle_check,
    prepare_input,
    random_input_states,
    reference_stage_states,
    stage_states,
    tamper_table,
    verify,
)
from bellsim.circuit import Circuit, Stage, builtin_document, parse_circuit
from bellsim.elements import ACTIONS
from bellsim.engine import assemble, compile_circuit, propagate, restrict_to_circuit
from bellsim.errors import LeakedAmplitude, MalformedPattern, OamOverflow, UnknownPath, UnsortableOam
from bellsim.measurement import CoincidencePattern, DetectorId, enumerate_patterns, sppm_project
from bellsim.state import BasisMode, TwoPhotonState, fidelity, max_amplitude_difference
from test_blocks import _ONE_DOVE_PRISM, _flipped_shift, _negated_on_positive_l

UNIFORM = 1 / 16


# -- classification table ----------------------------------------------


def test_table_is_a_disjoint_cover():
    all_patterns = enumerate_patterns(("a1", "b1"), ("a2", "b2"))
    assert len(CLASSIFICATION_TABLE) == 64
    assert set(CLASSIFICATION_TABLE) == set(all_patterns)
    counts = {label: 0 for label in BELL_LABELS}
    for label in CLASSIFICATION_TABLE.values():
        counts[label] += 1
    assert counts == {label: 16 for label in BELL_LABELS}


def classify_by_parity(pattern):
    """Structural restatement of the table: origin parity picks phi/psi,
    (equal signs) == (equal polarizations) picks the + branch."""
    det_a, det_b = pattern
    straight = (det_a.origin, det_b.origin) in {("a1", "a2"), ("b1", "b2")}
    plus = (det_a.oam_sign == det_b.oam_sign) == (det_a.pol == det_b.pol)
    return ("phi" if straight else "psi") + ("+" if plus else "-")


def test_table_matches_parity_rule():
    # origin pairing decides phi/psi, sign-vs-pol agreement decides +/-
    for pattern, label in CLASSIFICATION_TABLE.items():
        assert classify_by_parity(pattern) == label


def test_classify_and_rows():
    first = enumerate_patterns(("a1", "b1"), ("a2", "b2"))[0]
    assert classify(first) == CLASSIFICATION_TABLE[first]
    rows = classification_rows()
    assert len(rows) == 64
    assert rows[0][0] == first


def test_classify_rejects_foreign_pattern():
    foreign = CoincidencePattern(DetectorId(1, "H", "zz"), DetectorId(1, "H", "a2"))
    with pytest.raises(MalformedPattern):
        classify(foreign)


def test_tamper_moves_exactly_one_entry():
    tampered = tamper_table()
    diffs = [
        p for p in CLASSIFICATION_TABLE if tampered[p] != CLASSIFICATION_TABLE[p]
    ]
    assert len(diffs) == 1
    bad = diffs[0]
    assert str(bad) == "D[-1,H,a1] & D[-1,H,a2]"
    assert CLASSIFICATION_TABLE[bad] == "phi+"
    assert tampered[bad] == "phi-"


# -- input preparation -------------------------------------------------


def test_inputs_are_normalized_and_orthogonal():
    states = [prepare_input(label) for label in BELL_LABELS]
    for st in states:
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
    for i, x in enumerate(states):
        for y in states[i + 1 :]:
            assert fidelity(x, y) < 1e-24


def test_input_amplitude_structure():
    st = prepare_input("phi+")
    entries = st.items_sorted()
    assert len(entries) == 4
    for _, amp in entries:
        assert abs(abs(amp) - 0.5) < 1e-12


# -- staged propagation ------------------------------------------------


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
@pytest.mark.parametrize("label", BELL_LABELS)
def test_stage_fidelities(label, impl):
    records = stage_states(label, impl=impl)
    names = [r.checkpoint for r in records]
    assert names == ["p_cos", "o_cps", "dp_stage", "oh", "hwp"]
    for rec in records:
        assert rec.fidelity >= 1 - 1e-10, rec.checkpoint


@pytest.mark.parametrize("label", BELL_LABELS)
def test_stage_global_phases(label):
    # every checkpoint reproduces its reference exactly; the odd Bell
    # state alone picks up an overall sign by the end
    records = stage_states(label)
    for rec in records:
        expected = -1.0 if (label, rec.checkpoint) == ("psi-", "hwp") else 1.0
        assert rec.global_phase == pytest.approx(expected, abs=1e-10)


def _fig2_without(kind):
    text = builtin_document("fig2")
    return "".join(line for line in text.splitlines(True) if f"stage {kind} " not in line)


@pytest.mark.parametrize("impl", [None, "decomposed"])
def test_orthogonal_checkpoint_is_reported_not_raised(impl):
    # without the Dove prism stage the oh and hwp checkpoints of psi- are
    # orthogonal to their references: a failing record with no phase
    records = stage_states("psi-", impl, parse_circuit(_fig2_without("dp_stage")))
    by_name = {r.checkpoint: r for r in records}
    assert list(by_name) == ["p_cos", "o_cps", "oh", "hwp"]
    for name in ("oh", "hwp"):
        assert by_name[name].fidelity < 1e-20
        assert cmath.isnan(by_name[name].global_phase)
    for name in ("p_cos", "o_cps"):
        assert by_name[name].fidelity >= 1 - 1e-10
        assert by_name[name].global_phase == pytest.approx(1.0, abs=1e-10)


def test_reference_states_are_normalized():
    for label in BELL_LABELS:
        refs = reference_stage_states(label)
        assert list(refs) == ["p_cos", "o_cps", "dp_stage", "oh", "hwp"]
        for ref in refs.values():
            assert ref.norm() == pytest.approx(1.0, abs=1e-12)


# -- detection statistics ----------------------------------------------


@pytest.mark.parametrize("label", BELL_LABELS)
def test_each_input_yields_sixteen_uniform_patterns(label):
    dist = analyze(label)
    support = dist.support()
    assert len(support) == 16
    for pattern in support:
        assert dist.probability(pattern) == pytest.approx(UNIFORM, abs=1e-10)
        assert CLASSIFICATION_TABLE[pattern] == label


def test_analyze_state_matches_analyze():
    st = prepare_input("psi+")
    a = analyze("psi+")
    b = analyze_state(st)
    assert a.tvd(b) < 1e-12


def test_supports_partition_the_pattern_set():
    seen = {}
    for label in BELL_LABELS:
        for pattern in analyze(label).support():
            assert pattern not in seen, (pattern, seen.get(pattern), label)
            seen[pattern] = label
    assert len(seen) == 64


# -- end-to-end verification -------------------------------------------


def test_verify_passes():
    report = verify()
    assert report.ok
    assert report.accuracy == pytest.approx(1.0, abs=1e-12)
    assert report.disjoint and report.cover
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.success_probability == pytest.approx(1.0, abs=1e-10)
        assert row.support_size == 16
        assert row.max_deviation < 1e-10
        assert not row.misclassified


def test_verify_decomposed_impl():
    report = verify(impl="decomposed")
    assert report.ok
    assert report.accuracy == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_a_repeated_sppm_stage_counts_its_origin_once(impl):
    circuit = parse_circuit(builtin_document("fig2") + "stage sppm photon=A paths=a1\n")
    report = verify(impl, circuit)
    assert report.ok
    for row in report.rows:
        assert row.support_size == 16
        assert row.success_probability == pytest.approx(1.0, abs=1e-10)


def test_verify_detects_tampered_table():
    report = verify(table=tamper_table())
    assert not report.ok
    assert report.accuracy == pytest.approx(63 / 64, abs=1e-12)
    bad_rows = [row for row in report.rows if row.misclassified]
    assert len(bad_rows) == 1
    assert bad_rows[0].label == "phi+"


def test_verify_report_serialization():
    payload = verify().to_json_dict()
    assert payload["ok"] is True
    assert payload["accuracy"] == pytest.approx(1.0)
    assert {row["label"] for row in payload["inputs"]} == set(BELL_LABELS)
    text = verify().to_text()
    assert "PASS" in text


# -- dense oracle ------------------------------------------------------


def test_random_input_states_span_the_input_sector():
    states = random_input_states(5, seed=7, space=default_circuit().space())
    assert len(states) == 5
    for st in states:
        assert st.norm() == pytest.approx(1.0, abs=1e-12)
        for (ma, mb), _ in st.items_sorted():
            assert ma.oam == 0 and mb.oam == 0
            assert ma.path in ("a1", "b1") and mb.path in ("a2", "b2")


def test_oracle_check_agrees():
    report = oracle_check(n_random=10, seed=123)
    assert report.ok
    # 4 Bell inputs + 10 random input-sector draws
    assert report.states_checked == 14
    assert report.max_state_difference < 1e-10
    assert report.max_tvd < 1e-10
    assert report.max_unitarity_residual < 1e-10


def test_oracle_check_decomposed():
    report = oracle_check(impl="decomposed", n_random=5, seed=5)
    assert report.ok


def test_oracle_report_serialization():
    report = oracle_check(n_random=3, seed=1)
    payload = report.to_json_dict()
    assert payload["ok"] is True
    assert payload["states_checked"] == report.states_checked
    assert "PASS" in report.to_text()


def _per_state_oracle(impl, circuit, n_random=50, seed=ORACLE_SEED):
    """The oracle as a loop over states, the reference for ``oracle_check``'s
    batch: (states checked, max state difference, max TVD)."""
    plan = compile_circuit(circuit, impl)
    dense = assemble(plan)
    inputs = [prepare_input(label, circuit.space()) for label in BELL_LABELS]
    inputs += random_input_states(n_random, seed, circuit.space())
    origins = plan.origins["A"], plan.origins["B"]
    meas_impl = "decomposed" if "decomposed" in plan.sppm_impl.values() else "canonical"
    worst_state = worst_tvd = 0.0
    for state, applied in zip(inputs, dense.apply_all(inputs)):
        sparse_out = propagate(plan, state)
        dense_out = restrict_to_circuit(plan, applied, "dense oracle output")
        worst_state = max(worst_state, max_amplitude_difference(sparse_out, dense_out))
        dist_sparse = sppm_project(sparse_out, *origins, meas_impl)
        worst_tvd = max(worst_tvd, dist_sparse.tvd(sppm_project(dense_out, *origins, meas_impl)))
    return len(inputs), worst_state, worst_tvd


def _assert_matches_per_state(impl, circuit, tol, **kwargs):
    report = oracle_check(impl, circuit, **kwargs)
    checked, worst_state, worst_tvd = _per_state_oracle(impl, circuit, **kwargs)
    assert report.states_checked == checked
    assert abs(report.max_state_difference - worst_state) <= tol
    assert abs(report.max_tvd - worst_tvd) <= tol
    return report


@pytest.mark.parametrize("lmax", [4, 8])
@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_oracle_batch_matches_the_per_state_loop(impl, lmax):
    circuit = dataclasses.replace(default_circuit(), lmax=lmax)
    assert _assert_matches_per_state(impl, circuit, 1e-15).ok
    assert _assert_matches_per_state(impl, circuit, 1e-15, n_random=7, seed=29).states_checked == 11


def _flip_dove_prism(monkeypatch):
    flip = elements._flip
    monkeypatch.setattr(elements, "_flip", lambda alpha: lambda mode: [(m, -c) for m, c in flip(alpha)(mode)])


@pytest.mark.parametrize(
    "mutate,impl,circuit",
    [
        (lambda mp: mp.setitem(ACTIONS, "p_cos", _flipped_shift), "canonical", None),
        (lambda mp: mp.setitem(ACTIONS, "oh", _negated_on_positive_l("oh")), "canonical", None),
        (lambda mp: mp.setitem(ACTIONS, "dp_stage", _negated_on_positive_l("dp_stage")), "canonical", None),
        (_flip_dove_prism, "decomposed", None),
        (_flip_dove_prism, "canonical", _ONE_DOVE_PRISM),
        (_flip_dove_prism, "decomposed", _ONE_DOVE_PRISM),
    ],
    ids=["p_cos", "oh", "dp_stage", "dove-prism-fig2", "dove-prism-stage-canonical", "dove-prism-stage-decomposed"],
)
def test_oracle_batch_matches_the_per_state_loop_on_mutants(monkeypatch, mutate, impl, circuit):
    mutate(monkeypatch)
    report = _assert_matches_per_state(impl, circuit or default_circuit(), 1e-12)
    assert not report.ok
    assert report.max_state_difference >= 0.1


def _digest(states):
    h = hashlib.sha256()
    for state in states:
        ja, jb, values = state._pairs
        h.update(repr((ja, jb)).encode())
        h.update(np.array(values, dtype=np.complex128).tobytes())
    return h.hexdigest()


def _drawn_one_by_one(n, seed, space):
    """Random sector states drawn one state at a time, the reference draw: real
    parts, then imaginary parts, normalized, keyed A's origin, B's, A's pol, B's."""
    sector = [
        (BasisMode(pol_a, 0, x), BasisMode(pol_b, 0, y))
        for x in ("a1", "b1")
        for y in ("a2", "b2")
        for pol_a in ("H", "V")
        for pol_b in ("H", "V")
    ]
    rng = np.random.default_rng(seed)
    states = []
    for _ in range(n):
        vec = rng.standard_normal(len(sector)) + 1j * rng.standard_normal(len(sector))
        vec /= np.linalg.norm(vec)
        states.append(TwoPhotonState(space, dict(zip(sector, (complex(v) for v in vec)))))
    return states


@pytest.mark.parametrize(
    "seed,n,document,digest",
    [
        (ORACLE_SEED, 50, None, "c21261ced5144f74d4e23f8068b5bfd6ab2f576f10eb59134e810afdd07601f4"),
        (29, 7, "lmax 8\npaths b2 a1 x b1 a2\n", "abcac9d194cb769a72fd08ea7294af68afa4c554c11cf932b247113bc5b001cb"),
    ],
)
def test_random_input_states_keep_their_bits(seed, n, document, digest):
    space = (default_circuit() if document is None else parse_circuit(document)).space()
    states = random_input_states(n, seed, space)
    assert [s._pairs for s in states] == [s._pairs for s in _drawn_one_by_one(n, seed, space)]
    assert _digest(states) == digest


_DATA = pathlib.Path(__file__).resolve().parent / "data"

# photon A's second spiral plate drives l=+1 to +2, outside lmax=1: the push parks that light
_PARKS_LIGHT = Circuit(
    1, ("a1", "a2", "b1", "b2"), (Stage("spp", "A", ("a1",), {"l": 1}), Stage("spp", "A", ("a1",), {"l": 1}))
)


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
@pytest.mark.parametrize(
    "circuit,error,text",
    [
        ("unmeasured_origin.circ", LeakedAmplitude, "'b1'"),
        ("no_checkpoints.circ", UnsortableOam, "l=+0 at 'a1'"),
        ("custom_mini.circ", UnknownPath, "'a1'"),
        (_PARKS_LIGHT, OamOverflow, "stage 2 (spp photon=A paths=a1), element spp(l=1)@a1: "),
    ],
    ids=["unmeasured-origin", "no-checkpoints", "custom-mini", "parked-light"],
)
def test_oracle_raises_what_the_per_state_loop_raises(impl, circuit, error, text):
    if isinstance(circuit, str):
        circuit = parse_circuit((_DATA / circuit).read_text())
    with pytest.raises(error) as want:
        _per_state_oracle(impl, circuit)
    with pytest.raises(error) as got:
        oracle_check(impl, circuit)
    assert str(got.value) == str(want.value)
    assert text in str(got.value)


# -- randomized regression --------------------------------------------


def test_superposed_inputs_classify_by_weight():
    """Because the four 16-pattern blocks are disjoint, a coherent
    superposition of Bell inputs lands on each block with exactly its
    squared weight -- interference never smears across blocks."""
    rng = np.random.default_rng(0xD15C)
    basis = [prepare_input(label) for label in BELL_LABELS]
    for _ in range(10):
        coeffs = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        coeffs /= np.linalg.norm(coeffs)
        amps = {}
        for coeff, state in zip(map(complex, coeffs), basis):
            for key, amp in state.amplitudes.items():
                amps[key] = amps.get(key, 0j) + coeff * amp
        mixed = TwoPhotonState(basis[0].space, amps)
        dist = analyze_state(mixed)
        weights = np.abs(coeffs) ** 2
        for pattern in enumerate_patterns(("a1", "b1"), ("a2", "b2")):
            label = CLASSIFICATION_TABLE[pattern]
            expected = weights[BELL_LABELS.index(label)] * UNIFORM
            assert dist.probability(pattern) == pytest.approx(
                expected, abs=1e-10
            )
