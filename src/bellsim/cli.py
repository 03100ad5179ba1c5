"""Command-line front end.

Subcommands::

    bellsim run          propagate one Bell input, print its outcomes
    bellsim verify       grade all four inputs against the pattern table
    bellsim stages       compare checkpoint states with their references
    bellsim describe     canonical form + static validation of a circuit
    bellsim export-table dump the 64-row classification table
    bellsim oracle       sparse vs dense evolution cross-check

Each command returns (passed, JSON payload, text); ``main`` alone writes
the payload or the text, as ``--format`` asks, and maps the verdict to
the exit status: 0 on success, 1 when a simulation runs but fails a check
(or raises a simulation error, which is reported with the stage named),
2 for usage problems including circuit documents that do not parse.
All output is deterministic for a given platform and argument list.
"""

from __future__ import annotations

import argparse
import cmath
import dataclasses
import json
import sys

from . import analyzer
from .circuit import (
    BUILTIN_CIRCUITS,
    Circuit,
    builtin_document,
    parse_circuit,
    print_circuit,
)
from .engine import validate
from .errors import BellSimError, CircuitSemanticError, CircuitSyntaxError

__all__ = ["main", "build_parser"]

_BUILTIN_PREFIX = "builtin:"


def _load_circuit(args) -> Circuit:
    ref = args.circuit
    if ref.startswith(_BUILTIN_PREFIX):
        name = ref[len(_BUILTIN_PREFIX):]
        if name not in BUILTIN_CIRCUITS:
            raise _Usage(
                f"unknown builtin circuit {name!r}; available: "
                + ", ".join(sorted(BUILTIN_CIRCUITS))
            )
        text = builtin_document(name)
        origin = ref
    else:
        try:
            with open(ref, "r", encoding="utf-8-sig") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise _Usage(f"cannot read circuit {ref!r}: {exc}") from exc
        origin = ref
    try:
        circuit = parse_circuit(text)
    except (CircuitSyntaxError, CircuitSemanticError) as exc:
        raise _Usage(f"{origin}: {exc}") from exc
    if args.lmax is not None:
        if args.lmax < 1:
            raise _Usage("--lmax must be >= 1")
        circuit = dataclasses.replace(circuit, lmax=args.lmax)
    return circuit


class _Usage(Exception):
    pass


def _cmd_run(args) -> tuple[bool, dict, str]:
    circuit = _load_circuit(args)
    dist = analyzer.analyze(args.input, args.impl, circuit)
    outcomes = []
    success = 0.0
    for pattern, p in dist.items_ordered():
        label = analyzer.CLASSIFICATION_TABLE.get(pattern, "?")
        outcomes.append((pattern, p, label))
        if label == args.input:
            success += p
    payload = {
        "input": args.input,
        "origins": {"A": list(dist.origins_a), "B": list(dist.origins_b)},
        "outcomes": [
            {"pattern": str(pattern), "probability": p, "label": label}
            for pattern, p, label in outcomes
        ],
        "success_probability": success,
    }
    lines = [f"input: {args.input}\n"]
    lines += [f"{pattern}  {p:.12g}  -> {label}\n" for pattern, p, label in outcomes]
    lines.append(f"success probability: {success:.12f}\n")
    return abs(success - 1.0) <= analyzer.UNIFORM_TOL, payload, "".join(lines)


def _cmd_verify(args) -> tuple[bool, dict, str]:
    circuit = _load_circuit(args)
    table = analyzer.tamper_table() if args.tamper_table else None
    report = analyzer.verify(args.impl, circuit, table)
    return report.ok, report.to_json_dict(), report.to_text()


def _cmd_stages(args) -> tuple[bool, dict, str]:
    circuit = _load_circuit(args)
    records = analyzer.stage_states(args.input, args.impl, circuit)
    # a circuit with no checkpointed stage kind has nothing to compare: not a pass
    ok = bool(records) and all(r.fidelity >= 1.0 - analyzer.UNIFORM_TOL for r in records)
    payload = {
        "input": args.input,
        "checkpoints": [
            {
                "name": r.checkpoint,
                "fidelity": r.fidelity,
                "global_phase": None
                if cmath.isnan(r.global_phase)
                else {"re": r.global_phase.real, "im": r.global_phase.imag},
            }
            for r in records
        ],
        "ok": ok,
    }
    lines = [f"input: {args.input}\n"]
    for r in records:
        phase = "n/a" if cmath.isnan(r.global_phase) else f"{r.global_phase:+.6f}"
        lines.append(
            f"checkpoint {r.checkpoint:<8}  fidelity {r.fidelity:.12f}  phase {phase}\n"
        )
    lines.append(f"all checkpoints within {analyzer.UNIFORM_TOL:g}: {'yes' if ok else 'NO'}\n")
    return ok, payload, "".join(lines)


def _cmd_describe(args) -> tuple[bool, dict, str]:
    circuit = _load_circuit(args)
    canonical = print_circuit(circuit)
    report = validate(circuit)
    payload = {
        "canonical": canonical,
        "issues": [
            {
                "severity": i.severity,
                "stage": None if i.stage_index is None else i.stage_index + 1,
                "message": i.message,
            }
            for i in report.issues
        ],
        "ok": report.ok,
    }
    return report.ok, payload, f"{canonical}-- validation --\n{report}\n"


def _cmd_export_table(args) -> tuple[bool, dict, str]:
    table = analyzer.tamper_table() if args.tamper_table else None
    rows = analyzer.classification_rows(table)
    payload = {"patterns": {str(p): label for p, label in rows}}
    return True, payload, "".join(f"{pattern}  {label}\n" for pattern, label in rows)


def _cmd_oracle(args) -> tuple[bool, dict, str]:
    report = analyzer.oracle_check(args.impl, _load_circuit(args))
    return report.ok, report.to_json_dict(), report.to_text()


#: every flag, declared once as argparse's keyword arguments; ``--circuit``
#: comes with ``--lmax``, which overrides the circuit's OAM bound
_FLAGS = {
    "input": {
        "--input": dict(required=True, choices=analyzer.BELL_LABELS, help="Bell input label"),
    },
    "circuit": {
        "--circuit": dict(
            default=_BUILTIN_PREFIX + "fig2",
            help="circuit document: builtin:<name> or a file path (default builtin:fig2)",
        ),
        "--lmax": dict(type=int, default=None, help="override the circuit's OAM bound"),
    },
    "format": {
        "--format": dict(choices=("text", "json"), default="text", help="output format (default text)"),
    },
    "impl": {
        "--impl": dict(
            choices=("canonical", "decomposed"),
            default=None,
            help="force gate implementations (default: per-stage setting)",
        ),
    },
    "tamper-table": {
        "--tamper-table": dict(
            action="store_true", help="relabel one table pattern first (negative-control hook)"
        ),
    },
}

#: each subcommand: its handler, its help, and its flags in help order
_COMMANDS = {
    "run": (_cmd_run, "propagate one Bell input", ("input", "circuit", "format", "impl")),
    "verify": (_cmd_verify, "grade all four Bell inputs", ("circuit", "format", "impl", "tamper-table")),
    "stages": (_cmd_stages, "checkpoint-by-checkpoint comparison", ("input", "circuit", "format", "impl")),
    "describe": (_cmd_describe, "canonical form + validation", ("circuit", "format")),
    "export-table": (_cmd_export_table, "dump the classification table", ("format", "tamper-table")),
    "oracle": (_cmd_oracle, "sparse vs dense cross-check", ("circuit", "format", "impl")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Linear-optical Bell-state analyzer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        for flag in flags:
            for option, kwargs in _FLAGS[flag].items():
                command.add_argument(option, **kwargs)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        passed, payload, text = _COMMANDS[args.command][0](args)
    except _Usage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BellSimError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1
    sys.stdout.write(json.dumps(payload, indent=2) + "\n" if args.format == "json" else text)
    return 0 if passed else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
