"""Command-line front end.

Subcommands::

    bellsim run          propagate one Bell input, print its outcomes
    bellsim verify       grade all four inputs against the pattern table
    bellsim stages       compare checkpoint states with their references
    bellsim describe     canonical form + static validation of a circuit
    bellsim export-table dump the 64-row classification table
    bellsim oracle       sparse vs dense evolution cross-check

Exit status: 0 on success, 1 when a simulation runs but fails a check
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


def _add_common(p: argparse.ArgumentParser, impl: bool = True) -> None:
    p.add_argument(
        "--circuit",
        default=_BUILTIN_PREFIX + "fig2",
        help="circuit document: builtin:<name> or a file path (default builtin:fig2)",
    )
    p.add_argument(
        "--lmax", type=int, default=None, help="override the circuit's OAM bound"
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    if impl:
        p.add_argument(
            "--impl",
            choices=("canonical", "decomposed"),
            default=None,
            help="force gate implementations (default: per-stage setting)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellsim",
        description="Linear-optical Bell-state analyzer simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="propagate one Bell input")
    p_run.add_argument(
        "--input", required=True, choices=analyzer.BELL_LABELS, help="Bell input label"
    )
    _add_common(p_run)

    p_verify = sub.add_parser("verify", help="grade all four Bell inputs")
    _add_common(p_verify)
    p_verify.add_argument(
        "--tamper-table",
        action="store_true",
        help="relabel one table pattern first (negative-control hook)",
    )

    p_stages = sub.add_parser("stages", help="checkpoint-by-checkpoint comparison")
    p_stages.add_argument(
        "--input", required=True, choices=analyzer.BELL_LABELS, help="Bell input label"
    )
    _add_common(p_stages)

    p_desc = sub.add_parser("describe", help="canonical form + validation")
    _add_common(p_desc, impl=False)

    p_table = sub.add_parser("export-table", help="dump the classification table")
    p_table.add_argument(
        "--format", choices=("text", "json"), default="text", help="output format"
    )
    p_table.add_argument(
        "--tamper-table",
        action="store_true",
        help="relabel one table pattern first (negative-control hook)",
    )

    p_oracle = sub.add_parser("oracle", help="sparse vs dense cross-check")
    _add_common(p_oracle)
    p_oracle.add_argument(
        "--seed",
        type=int,
        default=analyzer.ORACLE_SEED,
        help=f"random-state seed (default {analyzer.ORACLE_SEED})",
    )
    p_oracle.add_argument(
        "--n-random",
        type=int,
        default=50,
        help="number of random input-sector states (default 50)",
    )
    return parser


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


def _emit_json(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def _cmd_run(args) -> int:
    circuit = _load_circuit(args)
    dist = analyzer.analyze(args.input, args.impl, circuit)
    outcomes = []
    success = 0.0
    for pattern, p in dist.items_ordered():
        label = analyzer.CLASSIFICATION_TABLE.get(pattern, "?")
        outcomes.append((pattern, p, label))
        if label == args.input:
            success += p
    if args.format == "json":
        _emit_json(
            {
                "input": args.input,
                "origins": {"A": list(dist.origins_a), "B": list(dist.origins_b)},
                "outcomes": [
                    {"pattern": str(pattern), "probability": p, "label": label}
                    for pattern, p, label in outcomes
                ],
                "success_probability": success,
            }
        )
    else:
        sys.stdout.write(f"input: {args.input}\n")
        for pattern, p, label in outcomes:
            sys.stdout.write(f"{pattern}  {p:.12g}  -> {label}\n")
        sys.stdout.write(f"success probability: {success:.12f}\n")
    return 0 if abs(success - 1.0) <= analyzer.UNIFORM_TOL else 1


def _cmd_verify(args) -> int:
    circuit = _load_circuit(args)
    table = analyzer.tamper_table() if args.tamper_table else None
    report = analyzer.verify(args.impl, circuit, table)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


def _cmd_stages(args) -> int:
    circuit = _load_circuit(args)
    records = analyzer.stage_states(args.input, args.impl, circuit)
    # a circuit with no checkpointed stage kind has nothing to compare: not a pass
    ok = bool(records) and all(r.fidelity >= 1.0 - analyzer.UNIFORM_TOL for r in records)
    if args.format == "json":
        _emit_json(
            {
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
        )
    else:
        sys.stdout.write(f"input: {args.input}\n")
        for r in records:
            phase = "n/a" if cmath.isnan(r.global_phase) else f"{r.global_phase:+.6f}"
            sys.stdout.write(
                f"checkpoint {r.checkpoint:<8}  fidelity {r.fidelity:.12f}  "
                f"phase {phase}\n"
            )
        sys.stdout.write(
            f"all checkpoints within {analyzer.UNIFORM_TOL:g}: {'yes' if ok else 'NO'}\n"
        )
    return 0 if ok else 1


def _cmd_describe(args) -> int:
    circuit = _load_circuit(args)
    text = print_circuit(circuit)
    report = validate(circuit)
    if args.format == "json":
        _emit_json(
            {
                "canonical": text,
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
        )
    else:
        sys.stdout.write(text)
        sys.stdout.write("-- validation --\n")
        sys.stdout.write(str(report) + "\n")
    return 0 if report.ok else 1


def _cmd_export_table(args) -> int:
    table = analyzer.tamper_table() if args.tamper_table else None
    rows = analyzer.classification_rows(table)
    if args.format == "json":
        _emit_json({"patterns": {str(p): label for p, label in rows}})
    else:
        for pattern, label in rows:
            sys.stdout.write(f"{pattern}  {label}\n")
    return 0


def _cmd_oracle(args) -> int:
    if args.n_random < 0:
        raise _Usage("--n-random must be >= 0")
    if args.seed < 0:
        raise _Usage("--seed must be >= 0")
    circuit = _load_circuit(args)
    report = analyzer.oracle_check(args.impl, circuit, args.n_random, args.seed)
    if args.format == "json":
        _emit_json(report.to_json_dict())
    else:
        sys.stdout.write(report.to_text())
    return 0 if report.ok else 1


_COMMANDS = {
    "run": _cmd_run,
    "verify": _cmd_verify,
    "stages": _cmd_stages,
    "describe": _cmd_describe,
    "export-table": _cmd_export_table,
    "oracle": _cmd_oracle,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _Usage as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BellSimError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
