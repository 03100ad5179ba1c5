"""Circuit text format: parsing, canonical printing, static validation.

The malformed fixtures in tests/data each hold exactly one defect; the
table below pins the error class, position, and message fragment the
parser must report for them.
"""

import dataclasses
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellsim.analyzer import verify
from bellsim.circuit import (
    PHOTONS,
    STAGE_KINDS,
    Circuit,
    PiAngle,
    Stage,
    angle_value,
    builtin_document,
    parse_circuit,
    print_circuit,
    stage_problems,
)
from bellsim.engine import DEFAULT_ORIGINS, compile_circuit, propagate, validate
from bellsim.errors import (
    BellSimError,
    CircuitSemanticError,
    CircuitSyntaxError,
    LeakedAmplitude,
    OamOverflow,
    UnsortableOam,
)
from bellsim.measurement import sppm_project
from bellsim.state import BasisMode, ModeSpace, TwoPhotonState

DATA = Path(__file__).parent / "data"


def test_builtin_round_trips_byte_for_byte():
    text = builtin_document("fig2")
    circuit = parse_circuit(text)
    assert print_circuit(circuit) == text
    assert parse_circuit(print_circuit(circuit)) == circuit


def test_blank_lines_and_comments_between_stages_are_not_part_of_the_circuit():
    """``parse(print(parse(x))) == parse(x)`` for fig2 with a blank line and
    a comment before its second stage; the printer writes fig2's own text."""
    lines = builtin_document("fig2").splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line.startswith("stage "))
    circuit = parse_circuit("".join(lines[: first + 1] + ["\n", "# the second stage\n"] + lines[first + 1 :]))
    assert parse_circuit(print_circuit(circuit)) == circuit
    assert print_circuit(circuit) == builtin_document("fig2")


def test_circuits_share_one_space_per_lmax_and_paths():
    circuit = parse_circuit(builtin_document("fig2"))
    assert parse_circuit(builtin_document("fig2")).space() is circuit.space()
    assert dataclasses.replace(circuit, lmax=5).space() == ModeSpace(5, circuit.paths)


@pytest.mark.parametrize("line", ["x\n#y", "first\nlmax 9", "x\n", "a\x0cb", "a\u2028b", " x", "x\t", ""])
def test_printer_refuses_a_description_line_with_a_line_break(line):
    """Printed, the line would come back as several: as another description
    line, silently, or as a directive."""
    with pytest.raises(ValueError, match="holds a line break"):
        print_circuit(Circuit(4, ("a",), (), description=(line,)))


def test_custom_fixture_round_trips():
    text = (DATA / "custom_mini.circ").read_text()
    circuit = parse_circuit(text)
    assert print_circuit(circuit) == text


def test_printer_is_idempotent():
    messy = "paths  a   b\nstage   hwp  photon=A  paths=a  theta=0.5\n"
    once = print_circuit(parse_circuit(messy))
    assert print_circuit(parse_circuit(once)) == once


@pytest.mark.parametrize("token", ["0pi/8", "0pi", "-0pi/8"])
def test_a_zero_pi_angle_prints_as_a_pi_angle(token):
    """A zero multiple of pi prints as ``0pi``, which parses back to the same
    ``PiAngle``; a bare ``0`` would parse back as the float 0.0."""
    circuit = parse_circuit(f"paths a\nstage hwp photon=A paths=a theta={token}\n")
    once = print_circuit(circuit)
    assert "theta=0pi\n" in once
    assert parse_circuit(once).stages[0].params == {"theta": PiAngle(0)}
    assert print_circuit(parse_circuit(once)) == once


def test_defaults():
    circuit = parse_circuit("paths a\nstage qwp photon=A paths=a\n")
    assert circuit.lmax == 4
    assert circuit.description == ()


def test_leading_comments_become_description():
    text = "# first line\n# second\n\nlmax 2\npaths a\n"
    circuit = parse_circuit(text)
    assert circuit.description == ("first line", "second")
    # later comments are ignored, not appended
    text2 = "lmax 2\n# not description\npaths a\n"
    assert parse_circuit(text2).description == ()


@pytest.mark.parametrize(
    "token,coeff",
    [
        ("pi", Fraction(1)),
        ("pi/8", Fraction(1, 8)),
        ("-pi/4", Fraction(-1, 4)),
        ("3pi/4", Fraction(3, 4)),
        ("2pi", Fraction(2)),
        ("-5pi/2", Fraction(-5, 2)),
    ],
)
def test_pi_angle_grammar(token, coeff):
    circuit = parse_circuit(f"paths a\nstage hwp photon=A paths=a theta={token}\n")
    value = circuit.stages[0].params["theta"]
    assert value == PiAngle(coeff)
    assert angle_value(value) == pytest.approx(float(coeff) * 3.141592653589793)


def test_float_angles_survive():
    circuit = parse_circuit("paths a\nstage dp photon=A paths=a alpha=0.5\n")
    assert circuit.stages[0].params["alpha"] == 0.5
    assert "alpha=0.5" in print_circuit(circuit)


def test_fraction_charge_forms():
    c1 = parse_circuit("paths a b\nstage p_cos photon=A paths=a,b q=1/2\n")
    assert c1.stages[0].params["q"] == Fraction(1, 2)
    c2 = parse_circuit("paths a\nstage qp photon=A paths=a q=2\n")
    assert c2.stages[0].params["q"] == Fraction(2)
    assert "q=2" in print_circuit(c2)


def test_impl_flag_parsing_and_printing():
    text = "paths a b\nstage o_cps photon=A paths=a,b impl=decomposed\n"
    circuit = parse_circuit(text)
    assert circuit.stages[0].impl == "decomposed"
    assert "impl=decomposed" in print_circuit(circuit)
    # canonical impl is the default and is not echoed
    plain = parse_circuit("paths a b\nstage o_cps photon=A paths=a,b\n")
    assert "impl" not in print_circuit(plain)


def test_impl_not_allowed_on_primitives():
    with pytest.raises(CircuitSyntaxError):
        parse_circuit("paths a\nstage qwp photon=A paths=a impl=decomposed\n")


def test_comments_and_blank_lines_ignored():
    text = (
        "paths a b   # declares\n"
        "\n"
        "stage qwp photon=A paths=a  # quarter wave\n"
    )
    circuit = parse_circuit(text)
    assert circuit.paths == ("a", "b")
    assert len(circuit.stages) == 1


# -- malformed fixture corpus -------------------------------------------

FIXTURES = [
    ("unknown_directive.circ", CircuitSyntaxError, 3, 1, "unknown directive 'lmx'"),
    ("bad_lmax_value.circ", CircuitSyntaxError, 1, 6, "bad integer"),
    ("duplicate_paths.circ", CircuitSemanticError, 3, 1, "duplicate paths"),
    ("missing_stage_kind.circ", CircuitSyntaxError, 2, 6, "missing stage kind"),
    ("unknown_stage_kind.circ", CircuitSyntaxError, 2, 7, "unknown stage kind 'warp'"),
    ("unknown_key.circ", CircuitSyntaxError, 2, 39, "unknown key 'spin'"),
    ("undeclared_path.circ", CircuitSemanticError, 2, 26, "path 'zz' is not declared"),
    ("bad_angle.circ", CircuitSyntaxError, 2, 34, "bad angle 'fast'"),
    ("fractional_charge.circ", CircuitSemanticError, 2, 1, "half-integer"),
    ("same_path_twice.circ", CircuitSemanticError, 2, 1, "same path twice"),
    ("nonfinite_angle.circ", CircuitSemanticError, 2, 34, "theta must be finite"),
    ("nonascii_numeral.circ", CircuitSyntaxError, 2, 30, "bad integer '\u0663'"),
]


@pytest.mark.parametrize("name,exc,line,column,fragment", FIXTURES)
def test_malformed_fixture(name, exc, line, column, fragment):
    text = (DATA / name).read_text()
    with pytest.raises(exc) as info:
        parse_circuit(text)
    err = info.value
    assert err.line == line
    assert err.column == column
    assert fragment in str(err)
    assert f"line {line}, column {column}" in str(err)


@pytest.mark.parametrize(
    "kind,value",
    [
        ("spp", "l=\u0663"),
        ("hwp", "theta=pi/\u0668"),
        ("hwp", "theta=\u0663pi"),
        ("hwp", "theta=1_000"),
        ("qp", "q=1_0/2"),
    ],
)
def test_numbers_are_ascii_digits_only(kind, value):
    """Python's int, float and Fraction also read other scripts' digits and
    underscores; the grammar's numbers are ASCII digits, and any other form
    fails at the value's column."""
    line = f"stage {kind} photon=A paths=a {value}"
    with pytest.raises(CircuitSyntaxError) as info:
        parse_circuit(f"paths a\n{line}\n")
    assert (info.value.line, info.value.column) == (2, line.index(value) + value.index("=") + 2)


@pytest.mark.parametrize(
    "text,exc,fragment",
    [
        ("paths a\nstage hwp photon=A paths=a theta=pi/8 theta=pi/4\n", CircuitSyntaxError, "duplicate key"),
        ("photon B\n", CircuitSemanticError, "photon B declared before photon A"),
        ("photon A\nphoton A\n", CircuitSemanticError, "duplicate photon"),
        ("paths a\nstage hwp paths=a theta=pi/8\n", CircuitSyntaxError, "missing required key photon="),
        ("paths a\nstage hwp photon=A theta=pi/8\n", CircuitSyntaxError, "missing required key paths="),
        ("paths a\nstage hwp photon=A paths=a\n", CircuitSyntaxError, "missing required key theta="),
        ("paths a\nstage hwp photon=C paths=a theta=0\n", CircuitSemanticError, "unknown photon 'C'"),
        ("paths 9lives\n", CircuitSyntaxError, "bad path label '9lives'"),
        ("lmax 0\n", CircuitSemanticError, "lmax must be >= 1"),
        ("paths a\nstage sppm photon=A paths=a,a\n", CircuitSemanticError, "exactly one path"),
        ("paths a b c\nstage o_cps photon=A paths=a,b,c\n", CircuitSemanticError, "exactly two paths"),
        ("paths a\nstage pp photon=A paths=a phi=pi pol=Q\n", CircuitSemanticError, "bad polarization"),
        ("paths a b\nstage o_cps photon=A paths=a,b impl=fast\n", CircuitSemanticError, "bad impl"),
        ("paths a\nstage hwp photon=A paths=a theta\n", CircuitSyntaxError, "expected key=value"),
    ],
)
def test_inline_malformed(text, exc, fragment):
    with pytest.raises(exc) as info:
        parse_circuit(text)
    assert fragment in str(info.value)
    assert info.value.line >= 1


def test_empty_fixture_parses():
    circuit = parse_circuit((DATA / "empty.circ").read_text())
    assert all(s.kind == "sppm" for s in circuit.stages)
    assert len(circuit.stages) == 4


# -- static validation --------------------------------------------------


def test_validate_builtin_is_clean_with_notes():
    report = validate(parse_circuit(builtin_document("fig2")))
    assert report.ok
    severities = [i.severity for i in report.issues]
    assert "error" not in severities
    notes = [str(i) for i in report.issues if i.severity == "note"]
    assert any("o_cps" in n for n in notes)
    assert any("oh" in n for n in notes)
    unused = validate(parse_circuit("paths a c d\nstage qwp photon=A paths=a\n"))
    notes = [str(i) for i in unused.issues if i.severity == "note"]
    assert any("'c'" in n for n in notes) and any("'d'" in n for n in notes)


def test_validate_flags_oam_overflow():
    circuit = parse_circuit(
        "lmax 4\npaths w\n"
        "stage spp photon=A paths=w l=4\n"
        "stage spp photon=A paths=w l=4\n"
    )
    report = validate(circuit)
    assert not report.ok
    errors = [i for i in report.issues if i.severity == "error"]
    assert len(errors) == 1
    assert errors[0].stage_index == 1
    assert "outside lmax=4" in errors[0].message


def test_validate_warns_sorter_domain():
    circuit = parse_circuit(
        "paths a b\nstage oam_sorter photon=A paths=a,b\n"
    )
    report = validate(circuit)
    warnings = [i for i in report.issues if i.severity == "warning"]
    assert warnings and "outside +1/-1" in warnings[0].message
    assert report.ok  # warnings do not fail validation


def test_validate_tracks_shifts_through_prisms():
    # spp(+2) then mirror then spp(+2): -2 + 2 = 0, never overflows at lmax 2
    circuit = parse_circuit(
        "lmax 2\npaths w\n"
        "stage spp photon=A paths=w l=2\n"
        "stage mirror photon=A paths=w\n"
        "stage spp photon=A paths=w l=2\n"
    )
    assert validate(circuit).ok


def test_validate_qp_split_both_branches():
    # from l=0 a q=3/2 plate reaches +-3; a further +2 shift breaks lmax 4
    circuit = parse_circuit(
        "lmax 4\npaths w\n"
        "stage qp photon=A paths=w q=3/2\n"
        "stage spp photon=A paths=w l=2\n"
    )
    report = validate(circuit)
    assert not report.ok
    assert any(
        i.severity == "error" and i.stage_index == 1 for i in report.issues
    )


# -- validator soundness ------------------------------------------------

FIG2 = parse_circuit(builtin_document("fig2"))

_FIG2_LINES = builtin_document("fig2").splitlines(keepends=True)
_FIG2_SPPM = [line for line in _FIG2_LINES if line.startswith("stage sppm")]
_FIG2_REST = [line for line in _FIG2_LINES if not line.startswith("stage sppm")]


def _sppm_moved_before(kind):
    """fig2's text with its four sppm stages moved before the first stage of ``kind``."""
    at = next(i for i, line in enumerate(_FIG2_REST) if line.startswith(f"stage {kind} "))
    return "".join(_FIG2_REST[:at] + _FIG2_SPPM + _FIG2_REST[at:])


# fig2 variants whose readout differs, and a circuit with no sppm stage:
# where verify raises, validate warns; an sppm stage declares its origin
# wherever it sits, so moving the four to the top changes nothing
READOUT_CASES = {
    "fig2-b1-unmeasured": (
        (DATA / "unmeasured_origin.circ").read_text(),
        ["warning: the readout may receive photon A light on path 'b1', outside its measured origins ('a1',)"],
        LeakedAmplitude,
    ),
    "fig2-B-unmeasured": (
        "".join(line for line in _FIG2_LINES if not line.startswith("stage sppm photon=B")),
        [
            "warning: the readout may receive photon B light on path 'a2', outside its measured origins ()",
            "warning: the readout may receive photon B light on path 'b2', outside its measured origins ()",
        ],
        LeakedAmplitude,
    ),
    "fig2-sppm-before-hwp-then-spp": (
        _sppm_moved_before("hwp") + "stage spp photon=A paths=a1,b1 l=1\n",
        [
            "warning: stage 8: sppm may receive OAM outside +1/-1 ([0, 2]) for the reference inputs",
            "warning: stage 9: sppm may receive OAM outside +1/-1 ([0, 2]) for the reference inputs",
        ],
        UnsortableOam,
    ),
    "fig2-sppm-at-top": (_sppm_moved_before("p_cos"), [], None),
    "no-sppm": (
        "paths a1 a2 b1 b2\nstage hwp photon=A paths=a1,b1 theta=pi/8\n",
        ["warning: the readout may receive OAM outside +1/-1 ([0]) for the reference inputs"],
        UnsortableOam,
    ),
}

SOUNDNESS_CIRCUITS = [
    pytest.param(dataclasses.replace(FIG2, lmax=lmax), id=f"fig2-lmax{lmax}")
    for lmax in (1, 2, 3, 4)
] + [
    pytest.param(parse_circuit((DATA / name).read_text()), id=name)
    for name in ("custom_mini.circ", "overflow.circ", "empty.circ")
] + [
    pytest.param(parse_circuit(text), id=name) for name, (text, _, _) in READOUT_CASES.items()
]


def _stage_of(exc):
    """Source stage index an engine error names, or None (measurement)."""
    m = re.match(r"stage (\d+) ", str(exc))
    return int(m.group(1)) - 1 if m else None


def _runtime_errors(circuit, impl):
    """What compiling, verify(), and propagating each l=0 basis mode raise,
    and what reading out each reference pair raises: photon A on one of its
    ``DEFAULT_ORIGINS`` paths, photon B on one of its, l=0, any polarizations."""
    try:
        plan = compile_circuit(circuit, impl)
    except BellSimError as exc:
        return [exc], []
    errors = []
    try:
        verify(impl, circuit)
    except BellSimError as exc:
        errors.append(exc)
    for path in circuit.paths:
        for pol in ("H", "V"):
            mode = BasisMode(pol, 0, path)
            try:
                propagate(plan, TwoPhotonState(circuit.space(), {(mode, mode): 1.0}))
            except BellSimError as exc:
                errors.append(exc)
    reference = [
        [BasisMode(pol, 0, path) for path in DEFAULT_ORIGINS[photon] if path in circuit.paths for pol in ("H", "V")]
        for photon in PHOTONS
    ]
    readout = []
    for ma, mb in product(*reference):
        try:
            out = propagate(plan, TwoPhotonState(circuit.space(), {(ma, mb): 1.0}))
            sppm_project(out, plan.origins["A"], plan.origins["B"])
        except BellSimError as exc:
            readout.append(exc)
    return errors, readout


@pytest.mark.parametrize("impl", [None, "canonical", "decomposed"])
@pytest.mark.parametrize("circuit", SOUNDNESS_CIRCUITS)
def test_validator_is_sound_against_runtime(circuit, impl):
    """Whatever the engine or the readout raises at stage k, validate
    flagged at stage k; the readout's errors name no stage, and a warning
    at an sppm stage or with no stage flags them.  On these circuits a
    readout warning seen under every impl is also no false alarm: some
    reference pair raises at the readout."""
    report = validate(circuit)
    flagged = {
        sev: {i.stage_index for i in report.issues if i.severity == sev}
        for sev in ("error", "warning")
    }
    measured = {k for k, s in enumerate(circuit.stages) if s.kind == "sppm"}
    compile_failed = False
    try:
        compile_circuit(circuit, impl)
    except BellSimError:
        compile_failed = True
    errors, readout = _runtime_errors(circuit, impl)
    for exc in errors + readout:
        stage = _stage_of(exc)
        if compile_failed or isinstance(exc, OamOverflow):
            assert stage in flagged["error"], exc
        elif isinstance(exc, UnsortableOam):
            allowed = flagged["error"] | flagged["warning"]
            assert ({stage} if stage is not None else measured | {None}) & allowed, exc
        elif isinstance(exc, LeakedAmplitude) and "ancilla" in str(exc):
            assert flagged["error"], exc
        elif isinstance(exc, LeakedAmplitude):  # off the origins, at the readout
            assert None in flagged["warning"], exc
    readout_warned = [
        i for i in report.issues
        if i.severity == "warning" and (i.stage_index is None or i.stage_index in measured)
        and not i.message.endswith(" only)")
    ]
    assert not readout_warned or readout, readout_warned


@pytest.mark.parametrize("name", list(READOUT_CASES))
def test_validate_reads_the_readout_where_it_runs(name):
    """The readout reads the final state through one rule, whatever the
    sppm stages' places: validate warns exactly where verify raises."""
    text, warnings, raised = READOUT_CASES[name]
    circuit = parse_circuit(text)
    assert [str(i) for i in validate(circuit).issues if i.severity != "note"] == warnings
    for impl in (None, "canonical", "decomposed"):
        if raised is None:
            assert verify(impl, circuit).ok
        else:
            with pytest.raises(raised):
                verify(impl, circuit)


@pytest.mark.parametrize("lmax", [2, 3, 4])
def test_validator_clean_on_fig2_with_room(lmax):
    report = validate(dataclasses.replace(FIG2, lmax=lmax))
    assert [i for i in report.issues if i.severity != "note"] == []


def test_validator_names_the_impl_an_issue_is_seen_under():
    report = validate(dataclasses.replace(FIG2, lmax=1))
    assert not report.ok
    errors = [i for i in report.issues if i.severity == "error"]
    assert {i.stage_index for i in errors} == {2, 3}  # both routers
    assert all(i.message.endswith("(decomposed only)") for i in errors)


def test_validator_stops_a_push_at_its_first_error():
    """The decomposed oh's first sorter rejects l=0, so nothing reaches its
    interferometer and no ancilla light is reported past that error."""
    report = validate(parse_circuit("paths a b c\nstage oh photon=A paths=c,a\n"))
    assert report.ok
    assert [str(i) for i in report.issues] == [
        "warning: stage 1: oh may receive OAM outside +1/-1 ([0]) for the reference inputs",
        "note: stage 1: oh domain restricted to l=+1/-1",
        "note: path 'b' is declared but not used by any stage",
    ]


def test_validator_reports_no_overflow_past_a_sorter_that_rejected_the_light():
    circuit = parse_circuit(
        "lmax 1\npaths a b\n"
        "stage oam_sorter photon=A paths=a,b\n"
        "stage spp photon=A paths=a,b l=1\n"
        "stage spp photon=A paths=a,b l=1\n"
    )
    report = validate(circuit)
    assert report.ok
    assert [(i.severity, i.stage_index) for i in report.issues] == [("warning", 0), ("note", 0)]


def test_validator_warns_only_at_the_first_of_two_sorters():
    circuit = parse_circuit(
        "paths a b\nstage oam_sorter photon=A paths=a,b\nstage oam_sorter photon=A paths=a,b\n"
    )
    warnings = [i for i in validate(circuit).issues if i.severity == "warning"]
    assert [i.stage_index for i in warnings] == [0]


def test_validator_reports_a_compile_failure_without_the_stage_prefix():
    circuit = Circuit(4, ("w",), (Stage("qp", "A", ("w",), {"q": Fraction(1, 3)}),))
    assert str(validate(circuit)) == "error: stage 1: q must be an integer or half-integer, got 1/3"


@pytest.mark.parametrize(
    "stage,message",
    [
        (Stage("hwp", "A", (), {"theta": 0.1}), "hwp needs at least one path"),
        (Stage("hwp", "A", ("a1",), {}), "missing required key theta="),
        (Stage("hwp", "A", ("a1",), {"theta": "x"}), "bad theta value 'x'"),
        (Stage("qwp", "A", ("a1",), {"theta": 0.1}), "unknown key 'theta'"),
        (Stage("bs", "A", ("a1",), {}), "bs needs exactly two paths, got 1"),
        (Stage("pp", "A", ("a1",), {"phi": 0.1, "pol": "X"}), "bad polarization 'X'; expected H or V"),
        (Stage("oh", "A", ("a1",), {}, impl="weird"), "bad impl 'weird'; expected canonical or decomposed"),
    ],
    ids=["no-paths", "missing-key", "bad-value", "unknown-key", "arity", "pol", "impl"],
)
def test_validator_reports_what_the_parser_rejects_in_a_circuit_built_in_code(stage, message):
    """The parser rejects each of these in text; built in code, validate
    reports it as an error at its stage instead of raising or compiling it."""
    report = validate(Circuit(4, ("a1", "a2", "b1", "b2"), (stage,)))
    assert [str(i) for i in report.issues if i.severity == "error"] == [f"error: stage 1: {message}"]


@pytest.mark.parametrize(
    "lmax,paths,message",
    [
        (0, ("a1", "b1"), "lmax must be >= 1"),
        (4, ("a1", "b1", "a1"), "duplicate path label 'a1'"),
        (4, ("a1", "b1", "_mzi"), "bad path label '_mzi'; expected letters/digits/underscore"),
        (4, ("a1", "b1", "a:c"), "bad path label 'a:c'; expected letters/digits/underscore"),
    ],
    ids=["lmax", "repeated-label", "ancilla-label", "colon-label"],
)
def test_validator_reports_what_the_parser_rejects_in_a_declaration(lmax, paths, message):
    """Built in code, a bad ``lmax`` or path label is one error with no
    stage, worded as the parser words it, and the circuit is not compiled
    (a declared ``_mzi`` would be taken for the decomposed oh's ancilla)."""
    circuit = Circuit(lmax, paths, (Stage("oh", "A", ("a1", "b1"), impl="decomposed"),))
    report = validate(circuit)
    assert [str(i) for i in report.issues if i.severity == "error"] == [f"error: {message}"]


@pytest.mark.parametrize(
    "stage,message",
    [
        (Stage("hwp", "A", ("a1",), {"theta": 0.1}, impl="decomposed"), "unknown key 'impl'"),
        (Stage("spp", "A", ("a1",), {"l": True}), "bad l value True"),
        (Stage("spp", "A", ("a1",), {"l": 1.5}), "bad l value 1.5"),
        (Stage("qp", "A", ("a1",), {"q": 0.3}), "q must be an integer or half-integer, got 0.3"),
        (Stage("hwp", "A", ("a1",), {"theta": "x"}), "bad theta value 'x'"),
        (Stage("warp", "A", ("a1",)), "unknown stage kind 'warp'"),
        (Stage("pp", "A", ("a1",), {"phi": 0.1, "pol": "X"}), "bad polarization 'X'; expected H or V"),
        (Stage("sppm", "A", ("a1",), impl="weird"), "bad impl 'weird'; expected canonical or decomposed"),
    ],
    ids=["impl-on-primitive", "bool-int", "float-int", "q-range", "str-angle", "kind", "pol", "impl"],
)
def test_compile_names_the_stage_that_breaks_a_rule_of_its_kind(stage, message):
    """``compile_circuit`` raises the first of the stage's problems, worded
    as ``validate`` and the parser word it, before building anything."""
    circuit = Circuit(4, ("a1", "a2", "b1", "b2"), (stage,))
    with pytest.raises(ValueError) as info:
        compile_circuit(circuit)
    assert str(info.value) == f"stage 1 ({stage.header()}): {message}"


@pytest.mark.parametrize(
    "kind,key,text,value",
    [
        ("hwp", "theta", "inf", math.inf),
        ("hwp", "theta", "-inf", -math.inf),
        ("hwp", "theta", "1e308", 1e308),
        ("pp", "phi", "inf", math.inf),
        ("hwp", "theta", f"{10**400}pi", PiAngle(Fraction(10**400))),
        ("hwp", "theta", "nan", math.nan),
        ("dp", "alpha", "1e308", 1e308),
    ],
    ids=["inf", "minus-inf", "1e308", "pp-inf", "400-digit-pi", "nan", "dp-1e308"],
)
def test_an_angle_must_be_finite_and_below_2_to_the_52_rad(kind, key, text, value):
    """An infinite angle, or one whose double overflows, fails in the
    element's cosine, and a NaN one drops its light unseen; a pi angle is
    checked on its exact coefficient, so no float overflows.  Each is one
    rule of ``stage_problems``, which the parser, ``validate`` and
    ``compile_circuit`` all apply."""
    line = f"stage {kind} photon=A paths=a {key}={text}"
    with pytest.raises(CircuitSemanticError) as info:
        parse_circuit(f"paths a\n{line}\n")
    message = info.value.reason
    assert message.startswith(f"{key} must be finite with magnitude below 2**52 rad, got ")
    assert (info.value.line, info.value.column) == (2, line.index(f"{key}=") + len(key) + 2)
    stage = Stage(kind, "A", ("a",), {key: value})
    circuit = Circuit(4, ("a",), (stage,))
    assert str(validate(circuit)) == f"error: stage 1: {message}"
    with pytest.raises(ValueError) as info:
        compile_circuit(circuit)
    assert str(info.value) == f"stage 1 ({stage.header()}): {message}"


_VALUES = {  # per Param.type: values the parser reads back, then values it rejects
    "angle": ((PiAngle(Fraction(1, 8)), 0.3, -1), ("x", True, Fraction(1, 2))),
    "fraction": ((Fraction(1, 2), 2, 1.5), (Fraction(1, 3), 0.3, True)),
    "int": ((-2, 0, 3), (True, 1.5)),
    "pol": (("H", "V"), ("X", 1)),
}


@st.composite
def _stages(draw):
    """A stage built in code, from ``STAGE_KINDS``; one draw in six breaks a
    field, and one in three a parameter's value."""
    kind = draw(st.sampled_from(list(STAGE_KINDS)))
    spec = STAGE_KINDS[kind]

    def odd(one_in: int = 6) -> bool:
        return draw(st.integers(1, one_in)) == one_in

    count = draw(st.integers(0, 3)) if odd() else spec.arity or draw(st.integers(1, 2))
    labels = st.sampled_from(["a", "b", "c", "z"] if odd() else ["a", "b", "c"])
    paths = tuple(draw(st.lists(labels, min_size=count, max_size=count, unique=not odd())))
    params = {
        p.key: draw(st.sampled_from(_VALUES[p.type][odd(3)]))
        for p in spec.params
        if (p.required and not odd()) or draw(st.booleans())
    }
    if odd():
        key, value = draw(st.sampled_from([("spin", 1), ("impl", "decomposed")]))
        params[key] = value
    photon = "C" if odd() else draw(st.sampled_from(PHOTONS))
    impl = draw(st.sampled_from(["decomposed", "weird"])) if odd() else "canonical"
    return Stage(kind, photon, paths, params, impl)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(stage=_stages())
def test_the_parser_and_stage_problems_agree(stage):
    """A stage built in code breaks no rule exactly when its printed text
    parses back, to the same circuit; ``compile_circuit`` then builds it,
    and otherwise raises the stage's first problem, naming the stage."""
    circuit = Circuit(4, ("a", "b", "c"), (stage,))
    problems = list(stage_problems(stage, circuit.paths))
    try:
        parsed = parse_circuit(print_circuit(circuit))
    except (CircuitSyntaxError, CircuitSemanticError):
        parsed = None
    except ValueError:  # the printer refuses a parameter named impl
        assert "impl" in stage.params
        parsed = None
    assert (parsed is not None) == (not problems), problems
    if parsed is not None:
        assert parsed == circuit
    for impl in (None, "decomposed"):
        try:
            compile_circuit(circuit, impl)
        except ValueError as exc:
            assert problems and str(exc) == f"stage 1 ({stage.header()}): {problems[0][2]}"
        else:
            assert not problems


_TWO_OVERFLOWS_AT_ONE_STAGE = """
from bellsim.circuit import parse_circuit
from bellsim.engine import validate
print(validate(parse_circuit("lmax 1\\npaths a b\\nstage p_cos photon=A paths=a,b q=1\\n")))
"""


def test_validator_report_does_not_depend_on_the_string_hash_seed():
    """Errors at one stage come in push order (H before V), not in set order."""
    src = Path(__file__).resolve().parent.parent / "src"
    outputs = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", _TWO_OVERFLOWS_AT_ONE_STAGE],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.add(result.stdout)
    assert outputs == {
        "error: stage 1: pol-controlled shift drives OAM +0 to +2, outside lmax=1 (canonical only)\n"
        "error: stage 1: pol-controlled shift drives OAM +0 to -2, outside lmax=1 (canonical only)\n"
        "error: stage 1: q-plate drives OAM +0 to +2/-2, outside lmax=1 (decomposed only)\n"
    }, outputs


_PARAM_VALUES = {
    "angle": st.sampled_from([PiAngle(Fraction(n, 8)) for n in (1, -2, 4)] + [0.3]),
    "fraction": st.sampled_from([Fraction(q, 2) for q in (-1, 1, 2, 3)]),
    "int": st.integers(-2, 2),
    "pol": st.sampled_from("HV"),
}


@st.composite
def _circuits(draw):
    paths = ("a", "b", "c")[: draw(st.integers(1, 3))]
    stages = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(list(STAGE_KINDS)))
        spec = STAGE_KINDS[kind]
        if spec.arity == 2 and len(paths) < 2:
            continue
        count = spec.arity or draw(st.integers(1, min(2, len(paths))))
        params = {
            p.key: draw(_PARAM_VALUES[p.type])
            for p in spec.params
            if p.required or draw(st.booleans())
        }
        impl = draw(st.sampled_from(["canonical", "decomposed"])) if spec.composite else "canonical"
        placed = tuple(draw(st.permutations(paths))[:count])
        stages.append(Stage(kind, draw(st.sampled_from(PHOTONS)), placed, params, impl))
    return Circuit(draw(st.integers(1, 3)), paths, tuple(stages))


@settings(derandomize=True, max_examples=150, deadline=None)
@given(circuit=_circuits())
def test_a_clean_report_means_the_l0_class_propagates(circuit):
    """No error and no warning: every l=0 basis pair compiles and
    propagates under every impl without raising."""
    if any(i.severity in ("error", "warning") for i in validate(circuit).issues):
        return
    modes = [BasisMode(pol, 0, path) for path in circuit.paths for pol in ("H", "V")]
    for impl in (None, "canonical", "decomposed"):
        plan = compile_circuit(circuit, impl)
        for ma in modes:
            for mb in modes:
                propagate(plan, TwoPhotonState(circuit.space(), {(ma, mb): 1.0}))


# -- grammar fuzz --------------------------------------------------------

_FUZZ_CHARS = list("aAbBlpq019_=,/-.+e #") + ["pi", "\n", "\t", "\r", "\x0c", "\u2028", "\x00", "\u00e9", "\u0663"]
_FUZZ_TOKENS = [
    "lmax", "photon", "paths", "stage", "A", "B", "C", "a1", "b2", "w", "hwp", "sppm", "oh", "p_cos", "qp",
    "photon=A", "photon=B", "paths=a1,b1", "paths=a1", "paths=", "theta=pi/8", "theta=1e308", "phi=-pi",
    "q=1/2", "q=1/0", "l=1", "l=99", "pol=V", "impl=decomposed", "impl=", "=", ",", "#", "0", "-3", "nan",
]
_FUZZ_LINES = [
    "\n", "# a comment\n", "lmax 2\n", "lmax 0\n", "photon A\n", "photon B\n", "paths a1 a2\n",
    "stage sppm photon=B paths=a1\n", "stage spp photon=A paths=a1,b1 l=1\n", "stage oh photon=B paths=a2,b2\n",
]


def _edit(draw, parts, spots, vocabulary, joiner):
    """``parts`` with one drawn edit at a drawn spot: delete, duplicate, swap
    with another spot, or replace from the vocabulary."""
    i, j = draw(st.sampled_from(spots)), draw(st.sampled_from(spots))
    action = draw(st.sampled_from(["delete", "duplicate", "swap", "replace"]))
    if action == "delete":
        parts[i] = ""
    elif action == "duplicate":
        parts[i] = parts[i] + joiner + parts[i]
    elif action == "swap":
        parts[i], parts[j] = parts[j], parts[i]
    else:
        parts[i] = draw(st.sampled_from(vocabulary))
    return "".join(parts)


@st.composite
def _mutants(draw):
    """fig2's text or a printed drawn circuit, mutated one to three times at
    character, token or line level.  A token edit works on one line's
    tokens after its head; the other two levels break heads often enough."""
    text = draw(st.one_of(st.just(builtin_document("fig2")), _circuits().map(print_circuit)))
    for _ in range(draw(st.integers(1, 3))):
        level = draw(st.sampled_from(["char", "token", "line"]))
        lines = text.splitlines(keepends=True)
        if level == "char":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(["", *_FUZZ_CHARS])) + text[at + draw(st.integers(0, 2)):]
        elif level == "line" and lines:
            text = _edit(draw, lines, list(range(len(lines))), _FUZZ_LINES, "")
        elif level == "token" and lines:
            n = draw(st.integers(0, len(lines) - 1))
            parts = re.split(r"(\s+)", lines[n])
            spots = [i for i, part in enumerate(parts) if part.strip()][1:]
            if spots:
                lines[n] = _edit(draw, parts, spots, _FUZZ_TOKENS, " ")
                text = "".join(lines)
    return text


@settings(derandomize=True, max_examples=200, deadline=None)
@given(text=_mutants())
def test_a_mutated_document_parses_to_a_fixed_point_or_fails_at_a_line(text):
    """Every mutant either parses, prints to a fixed point of parse-then-print
    and validates without raising, or is refused with a line position."""
    try:
        circuit = parse_circuit(text)
    except (CircuitSyntaxError, CircuitSemanticError) as exc:
        assert 1 <= exc.line <= max(1, len(text.splitlines())), exc
        assert str(exc).startswith(f"line {exc.line}, column "), exc
        return
    printed = print_circuit(circuit)
    assert print_circuit(parse_circuit(printed)) == printed
    validate(circuit)


# -- the stage-kind table -----------------------------------------------

SAMPLE_VALUES = {"angle": "pi/8", "fraction": "1/2", "int": "1", "pol": "V"}


@pytest.mark.parametrize("kind", list(STAGE_KINDS))
def test_every_kind_round_trips_and_compiles(kind):
    spec = STAGE_KINDS[kind]
    paths = "a,b" if spec.arity == 2 else "a"
    params = "".join(f" {p.key}={SAMPLE_VALUES[p.type]}" for p in spec.params)
    text = f"lmax 4\nphoton A\nphoton B\npaths a b\nstage {kind} photon=A paths={paths}{params}\n"
    circuit = parse_circuit(text)
    assert print_circuit(circuit) == text
    for impl in ("canonical", "decomposed"):
        plan = compile_circuit(circuit, impl)
        assert len(plan.stages) == (0 if spec.build is None else 1)


def test_stage_header_and_programmatic_circuit():
    stage = Stage("hwp", "A", ("u",), {"theta": PiAngle(Fraction(1, 8))})
    circuit = Circuit(lmax=2, paths=("u",), stages=(stage,))
    assert "hwp photon=A paths=u" == stage.header()
    assert "theta=pi/8" in print_circuit(circuit)
