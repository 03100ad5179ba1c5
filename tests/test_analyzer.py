import cmath

import numpy as np
import pytest

from bellsim.analyzer import (
    BELL_LABELS,
    CLASSIFICATION_TABLE,
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
from bellsim.circuit import builtin_document, parse_circuit
from bellsim.errors import MalformedPattern
from bellsim.measurement import CoincidencePattern, DetectorId, enumerate_patterns
from bellsim.state import TwoPhotonState, fidelity

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
