"""Command-line surface: golden outputs, exit codes, error reporting.

The golden files under tests/golden/ pin the exact text and JSON the
tool prints today.  All of them come from the sparse propagation path,
which is plain complex arithmetic -- no BLAS involved -- so the digits
are reproducible bit-for-bit.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from bellsim.circuit import builtin_document
from bellsim.cli import build_parser, main

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent / "data"
SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "name,argv",
    [
        ("run_phi_plus.txt", ["run", "--input", "phi+"]),
        ("run_phi_plus.json", ["run", "--input", "phi+", "--format", "json"]),
        ("verify.txt", ["verify"]),
        ("stages_psi_minus.txt", ["stages", "--input", "psi-"]),
        ("describe_fig2.txt", ["describe"]),
        ("export_table.txt", ["export-table"]),
        ("export_table.json", ["export-table", "--format", "json"]),
    ],
)
def test_golden_output(capsys, name, argv):
    code, out, err = run_cli(capsys, argv)
    assert code == 0
    assert err == ""
    assert out == (GOLDEN / name).read_text()


def test_output_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, ["verify", "--format", "json"])
    _, second, _ = run_cli(capsys, ["verify", "--format", "json"])
    assert first == second


def test_run_json_payload(capsys):
    code, out, _ = run_cli(capsys, ["run", "--input", "psi-", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["input"] == "psi-"
    assert payload["success_probability"] == pytest.approx(1.0)
    assert len(payload["outcomes"]) == 16
    assert all(row["label"] == "psi-" for row in payload["outcomes"])


def test_run_decomposed_impl(capsys):
    code, out, _ = run_cli(
        capsys, ["run", "--input", "phi-", "--impl", "decomposed"]
    )
    assert code == 0
    assert "success probability: 1.000000000000" in out


def test_lmax_override_reproduces_golden(capsys):
    # widening the truncation must not move any probability
    code, out, _ = run_cli(capsys, ["run", "--input", "phi+", "--lmax", "6"])
    assert code == 0
    assert out == (GOLDEN / "run_phi_plus.txt").read_text()


def test_verify_tampered_table_fails(capsys):
    code, out, _ = run_cli(capsys, ["verify", "--tamper-table"])
    assert code == 1
    assert "FAIL" in out
    assert "misclassified" in out


def test_export_table_tampered(capsys):
    code, out, _ = run_cli(capsys, ["export-table", "--tamper-table"])
    assert code == 0
    assert "D[-1,H,a1] & D[-1,H,a2]  phi-" in out
    good = (GOLDEN / "export_table.txt").read_text()
    assert "D[-1,H,a1] & D[-1,H,a2]  phi+" in good


def test_export_table_json(capsys):
    code, out, _ = run_cli(capsys, ["export-table", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["patterns"]) == 64


def test_oracle_subcommand(capsys):
    code, out, _ = run_cli(capsys, ["oracle"])
    assert code == 0
    assert "PASS" in out
    assert "states checked:          54" in out


def test_oracle_json(capsys):
    code, out, _ = run_cli(capsys, ["oracle", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True


def test_stages_decomposed(capsys):
    code, out, _ = run_cli(
        capsys, ["stages", "--input", "phi+", "--impl", "decomposed"]
    )
    assert code == 0
    assert "all checkpoints within 1e-10: yes" in out


def test_describe_warns_where_verify_leaks_off_an_unmeasured_origin(capsys):
    """fig2 without photon A's sppm on b1: describe passes with one warning
    naming b1, and verify fails on the light the readout cannot read."""
    circuit = str(DATA / "unmeasured_origin.circ")
    code, out, _ = run_cli(capsys, ["describe", "--circuit", circuit])
    assert code == 0
    assert [line for line in out.splitlines() if line.startswith("warning:")] == [
        "warning: the readout may receive photon A light on path 'b1', outside its measured origins ('a1',)"
    ]
    code, out, err = run_cli(capsys, ["verify", "--circuit", circuit])
    assert code == 1 and out == ""
    assert err.startswith("error: LeakedAmplitude: ") and err.count("\n") == 1


def test_describe_custom_circuit(capsys):
    path = DATA / "custom_mini.circ"
    code, out, _ = run_cli(capsys, ["describe", "--circuit", str(path)])
    assert code == 0
    # describe echoes the canonical form, which for this file is its
    # own byte-for-byte content
    assert out.startswith(path.read_text())
    assert "-- validation --" in out


def test_describe_reads_a_file_that_starts_with_a_bom(capsys, tmp_path):
    path = tmp_path / "fig2_bom.circ"
    path.write_text(builtin_document("fig2"), encoding="utf-8-sig")
    assert path.read_bytes().startswith(b"\xef\xbb\xbf")
    code, out, err = run_cli(capsys, ["describe", "--circuit", str(path)])
    assert code == 0, err
    assert out == (GOLDEN / "describe_fig2.txt").read_text()


def test_describe_validation_failure(capsys):
    code, out, _ = run_cli(
        capsys, ["describe", "--circuit", str(DATA / "overflow.circ")]
    )
    assert code == 1
    assert "error: stage 2" in out


def test_describe_flags_decomposed_router_overflow(capsys):
    # at lmax 1 the decomposed router's spiral plates lift +1 to +2
    code, out, _ = run_cli(capsys, ["describe", "--lmax", "1"])
    assert code == 1
    assert any(
        line.startswith("error: stage 3:") and "decomposed" in line
        for line in out.splitlines()
    )


def test_describe_json(capsys, tmp_path):
    code, out, err = run_cli(capsys, ["describe", "--format", "json"])
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert set(payload) == {"canonical", "issues", "ok"} and payload["ok"] is True
    text = (GOLDEN / "describe_fig2.txt").read_text()
    canonical, validation = text.split("-- validation --\n")
    assert payload["canonical"] == canonical
    assert [f"{i['severity']}: stage {i['stage']}: {i['message']}" for i in payload["issues"]] == (
        validation.splitlines()
    )
    # a path note belongs to no stage
    path = tmp_path / "spare.circ"
    path.write_text(canonical.replace("paths a1 a2 b1 b2", "paths a1 a2 b1 b2 spare"))
    code, out, _ = run_cli(capsys, ["describe", "--format", "json", "--circuit", str(path)])
    assert code == 0
    notes = [i for i in json.loads(out)["issues"] if i["stage"] is None]
    assert notes == [
        {"severity": "note", "stage": None, "message": "path 'spare' is declared but not used by any stage"}
    ]


def test_describe_json_reports_decomposed_router_overflow(capsys):
    code, out, _ = run_cli(capsys, ["describe", "--format", "json", "--lmax", "1"])
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any(
        i["severity"] == "error" and i["stage"] == 3 and i["message"].endswith("(decomposed only)")
        for i in payload["issues"]
    )


def test_describe_lmax_zero_is_usage_error(capsys):
    code, out, err = run_cli(capsys, ["describe", "--lmax", "0"])
    assert code == 2 and out == ""
    assert err == "error: --lmax must be >= 1\n"


def test_run_unmeasurable_state_fails(capsys):
    # the all-sppm fixture measures the untouched input, whose l=0
    # components no sorter can resolve
    code, _, err = run_cli(
        capsys, ["run", "--circuit", str(DATA / "empty.circ"), "--input", "phi+"]
    )
    assert code == 1
    assert "error: UnsortableOam" in err


def test_unknown_builtin_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, ["run", "--circuit", "builtin:nope", "--input", "phi+"]
    )
    assert code == 2
    assert "unknown builtin circuit 'nope'" in err


def test_parse_failure_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys,
        ["run", "--circuit", str(DATA / "bad_angle.circ"), "--input", "phi+"],
    )
    assert code == 2
    assert "line 2, column 34" in err


def test_missing_file_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, ["run", "--circuit", "/no/such/file.circ", "--input", "phi+"]
    )
    assert code == 2
    assert "cannot read circuit" in err


def test_a_file_that_is_not_utf8_is_usage_error(capsys, tmp_path):
    path = tmp_path / "bad.circ"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run_cli(capsys, ["describe", "--circuit", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot read circuit {str(path)!r}: 'utf-8' codec can't decode")
    assert err.count("\n") == 1


def test_missing_required_input_flag():
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2


def test_unknown_flag():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--frobnicate"])
    assert exc.value.code == 2


def test_bad_input_label():
    with pytest.raises(SystemExit) as exc:
        main(["run", "--input", "omega+"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["export-table", "--lmax", "3"],
        ["describe", "--impl", "canonical"],
        ["oracle", "--tamper-table"],
        ["oracle", "--seed", "1"],
        ["oracle", "--n-random", "5"],
    ],
)
def test_flag_the_command_does_not_take(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_parser_lists_subcommands():
    parser = build_parser()
    text = parser.format_help()
    for sub in ("run", "verify", "stages", "describe", "export-table", "oracle"):
        assert sub in text


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_stages_with_an_orthogonal_checkpoint(capsys, tmp_path, impl):
    path = tmp_path / "no_dp.circ"
    text = builtin_document("fig2")
    path.write_text("".join(line for line in text.splitlines(True) if "dp_stage" not in line))
    argv = ["stages", "--input", "psi-", "--circuit", str(path), "--impl", impl]
    code, out, err = run_cli(capsys, argv)
    assert code == 1 and err == ""
    assert "checkpoint oh        fidelity 0.000000000000  phase n/a\n" in out
    assert out.endswith("all checkpoints within 1e-10: NO\n")
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 1
    payload = json.loads(out, parse_constant=_reject_constant)
    phases = {c["name"]: c["global_phase"] for c in payload["checkpoints"]}
    assert phases["oh"] is None and phases["hwp"] is None
    assert phases["p_cos"]["re"] == pytest.approx(1.0)
    assert payload["ok"] is False


def test_stages_with_no_checkpoint_fails(capsys):
    """Only the four sppm markers: nothing is compared, so nothing passes."""
    argv = ["stages", "--input", "phi+", "--circuit", str(DATA / "no_checkpoints.circ")]
    code, out, err = run_cli(capsys, argv)
    assert (code, out, err) == (1, "input: phi+\nall checkpoints within 1e-10: NO\n", "")
    code, out, _ = run_cli(capsys, argv + ["--format", "json"])
    assert code == 1
    assert json.loads(out) == {"input": "phi+", "checkpoints": [], "ok": False}


@pytest.mark.parametrize(
    "argv",
    [
        ["stages", "--input", "phi-", "--format", "json", "--impl", "decomposed"],
        ["oracle", "--format", "json", "--impl", "decomposed"],
        ["run", "--input", "phi+", "--format", "json", "--impl", "decomposed"],
    ],
    ids=["stages", "oracle", "run"],
)
def test_output_does_not_depend_on_the_string_hash_seed(argv):
    """Sums over sets of modes or patterns would follow PYTHONHASHSEED."""
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=seed)
        result = subprocess.run(
            [sys.executable, "-c", "import sys; from bellsim.cli import main; sys.exit(main(sys.argv[1:]))", *argv],
            env=env,
            capture_output=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


# -- the JSON and argv contract -------------------------------------------

#: per command: an argv, the keys of its ``--format json`` object, and the
#: keys of each row object under it (a dotted key reaches a row's own
#: rows), as README's "JSON output" lists them
JSON_SHAPES = {
    "run": (
        ["run", "--input", "phi+"],
        {"input", "origins", "outcomes", "success_probability"},
        {"outcomes": {"pattern", "probability", "label"}},
    ),
    "stages": (
        ["stages", "--input", "psi-"],
        {"input", "checkpoints", "ok"},
        {"checkpoints": {"name", "fidelity", "global_phase"}},
    ),
    "verify": (
        ["verify", "--tamper-table"],
        {"inputs", "disjoint", "cover", "accuracy", "ok"},
        {
            "inputs": {"label", "success_probability", "support_size", "max_deviation", "misclassified"},
            "inputs.misclassified": {"pattern", "label"},
        },
    ),
    "describe": (["describe"], {"canonical", "issues", "ok"}, {"issues": {"severity", "stage", "message"}}),
    "export-table": (["export-table"], {"patterns"}, {}),
    "oracle": (
        ["oracle"],
        {"states_checked", "max_state_difference", "max_tvd", "max_unitarity_residual", "tol", "ok"},
        {},
    ),
}


@pytest.mark.parametrize("command", list(JSON_SHAPES))
def test_json_output_has_the_documented_shape(capsys, command):
    argv, keys, rows = JSON_SHAPES[command]
    _, out, err = run_cli(capsys, argv + ["--format", "json"])
    assert err == ""
    payload = json.loads(out, parse_constant=_reject_constant)
    assert set(payload) == keys
    for path, row_keys in rows.items():
        found = [payload]
        for key in path.split("."):
            found = [row for parent in found for row in parent[key]]
        assert found and all(set(row) == row_keys for row in found), path


#: failing and nonsense argv, each with its exit status in either format and,
#: when a check fails after the simulation ran, a line of its JSON output;
#: NO_MATCH is fig2 with a pi phase on photon A's V light put first, so the
#: phi+ input arrives as phi- and matches none of its patterns
NO_MATCH = "{no_match}"
ARGV_EXITS = {
    "tampered-table": (["verify", "--tamper-table"], 1, '  "ok": false\n'),
    "no-match": (["run", "--input", "phi+", "--circuit", NO_MATCH], 1, '  "success_probability": 0.0\n'),
    "no-checkpoint": (
        ["stages", "--input", "phi+", "--circuit", str(DATA / "no_checkpoints.circ")], 1, '  "checkpoints": [],\n'
    ),
    "invalid-circuit": (["describe", "--circuit", str(DATA / "overflow.circ")], 1, '  "ok": false\n'),
    "decomposed-overflow": (["describe", "--lmax", "1"], 1, '  "ok": false\n'),
    "propagation-error": (["run", "--input", "phi+", "--lmax", "1", "--impl", "decomposed"], 1, None),
    "unsortable": (["run", "--input", "phi+", "--circuit", str(DATA / "empty.circ")], 1, None),
    "lmax-zero": (["describe", "--lmax", "0"], 2, None),
    "unknown-builtin": (["run", "--input", "phi+", "--circuit", "builtin:nope"], 2, None),
    "parse-error": (["describe", "--circuit", str(DATA / "bad_angle.circ")], 2, None),
    "nonfinite-angle": (["verify", "--circuit", str(DATA / "nonfinite_angle.circ")], 2, None),
    "bad-label": (["run", "--input", "omega+"], 2, None),
}


@pytest.mark.parametrize("case", list(ARGV_EXITS))
def test_failing_argv_exits_the_same_in_either_format(capsys, tmp_path, case):
    argv, code, json_line = ARGV_EXITS[case]
    fig2 = builtin_document("fig2")
    first = fig2.index("stage ")
    no_match = tmp_path / "no_match.circ"
    no_match.write_text(fig2[:first] + "stage pp photon=A paths=a1,b1 phi=pi pol=V\n" + fig2[first:])
    argv = [str(no_match) if arg == NO_MATCH else arg for arg in argv]
    outputs = {}
    for fmt in ("text", "json"):
        try:
            got, out, err = run_cli(capsys, argv + ["--format", fmt])
        except SystemExit as exc:
            got, (out, err) = exc.code, capsys.readouterr()
        assert got == code, (fmt, err)
        outputs[fmt] = out, err
    if json_line is None:
        assert all(out == "" and err.count("error: ") == 1 for out, err in outputs.values())
    else:
        assert all(out and err == "" for out, err in outputs.values())
        assert json_line in outputs["json"][0].splitlines(True)
