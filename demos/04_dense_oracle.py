"""Checking the simulator against a brute-force matrix oracle.

The sparse propagation engine only ever touches modes with amplitude.
To make sure it is not quietly wrong, this script assembles the full
per-photon unitaries for the built-in circuit, applies them to random
input-sector states, and compares against the sparse path -- state by
state and distribution by distribution.  It also shows that a tampered
classification table is caught immediately.
"""

from bellsim import (
    assemble,
    compile_circuit,
    default_circuit,
    oracle_check,
    tamper_table,
    verify,
)


def main():
    plan = compile_circuit(default_circuit())
    dense = assemble(plan)
    dim = dense.space.dimension
    print("== dense assembly ==")
    print(f"  per-photon dimension: {dim}")
    print(f"  compiled stages:      {len(dense.records)}")
    worst = max(r.unitarity_residual for r in dense.records)
    print(f"  worst per-stage unitarity residual: {worst:.3e}\n")

    print("== per-stage residuals ==")
    for rec in dense.records:
        print(f"  stage {rec.index + 1:>2}  {rec.label:<28} {rec.unitarity_residual:.3e}")
    print()

    print("== sparse vs dense, canonical blocks ==")
    print(oracle_check(n_random=25, seed=2024).to_text())
    print()

    print("== sparse vs dense, element-level decompositions ==")
    print(oracle_check(impl="decomposed", n_random=25, seed=2024).to_text())
    print()

    print("== negative control: one tampered table row ==")
    report = verify(table=tamper_table())
    print(report.to_text())


if __name__ == "__main__":
    main()
