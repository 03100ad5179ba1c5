"""Inside the sign-controlled path router.

The router is the one genuinely interferometric block in the analyzer:
two beam splitters enclosing parity prisms, dressed with spiral plates
so that OAM +1 stays on its path and OAM -1 crosses over.  This script
walks a basis photon through the element sequence group by group and
prints the state after each group.  The last group holds the stated
calibration phase plates that make the composite land exactly on the
canonical gate; the script ends by measuring how exactly.
"""

from bellsim import (
    BasisMode,
    ModeSpace,
    apply_element,
    apply_elements,
    basis_state,
    max_amplitude_difference,
    oam_sorter,
    path_router_decomposition,
    path_router_stage_groups,
)

SPACE = ModeSpace(lmax=4, paths=("a", "b"))


def walk(pol, oam, path):
    print(f"-- tracing |{pol},{oam:+d},{path}> --")
    state = basis_state(SPACE, pol, oam, path)
    for name, elements in path_router_stage_groups("a", "b"):
        state = apply_elements(state, elements)
        terms = ", ".join(
            f"{amp:+.3f} {mode}" for mode, amp in state.items_sorted()
        )
        print(f"  after {name:<24} {terms}")
    print()
    return state


def main():
    print("== group-by-group walkthrough ==\n")
    for oam, path in [(1, "a"), (-1, "a"), (1, "b"), (-1, "b")]:
        walk("H", oam, path)

    print("== the halfway picture ==")
    print("After the second beam splitter each input already sits on a")
    print("single path: +1 photons (lifted to +2) on their own path, -1")
    print("photons (lowered to 0) on the other.  The trailing groups only")
    print("undo the temporary OAM shifts and clean up phases.\n")

    print("== calibration ==")
    name, plates = path_router_stage_groups("a", "b")[-1]
    print(f"The {name}, the last group of the sequence:")
    for plate in plates:
        print(f"  {plate.describe()}")
    print()

    elements = path_router_decomposition("a", "b")

    worst = 0.0
    for path in ("a", "b"):
        for oam in (1, -1):
            for pol in ("H", "V"):
                probe = basis_state(SPACE, pol, oam, path)
                via_elements = apply_elements(probe, elements)
                via_gate = apply_element(probe, oam_sorter("a", "b"))
                worst = max(
                    worst, max_amplitude_difference(via_elements, via_gate)
                )
    print(f"Worst deviation from the canonical router over the +-1 sector:")
    print(f"  {worst:.3e}")


if __name__ == "__main__":
    main()
