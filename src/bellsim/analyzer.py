"""Bell-state analysis: inputs, classification table, verification.

The analyzer circuit maps each of the four polarization Bell states
(prepared at l=0 across the straight path pair) onto sixteen equally
likely coincidence patterns, and the four sixteen-pattern sets are
disjoint: reading one coincidence identifies the input with certainty.

``CLASSIFICATION_TABLE`` is frozen data, not derived from the
simulation, so propagating the four inputs through the circuit and
checking every support pattern against the table is a genuine
cross-check.  ``verify`` runs exactly that; ``oracle_check`` contracts a
batch of inputs with the engine's images of each photon's l=0 input modes
and with the dense matrices' same columns, and compares states and outcomes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from .circuit import PHOTONS, Circuit, builtin_document, parse_circuit
from .engine import (
    DEFAULT_ORIGINS,
    SECTOR_MODES,
    Plan,
    assemble,
    compile_circuit,
    propagate,
    propagate_with_checkpoints,
    restrict_to_circuit,
    sector_columns,
)
from .errors import MalformedPattern, ZeroNorm
from .measurement import (
    PROBABILITY_TOL,
    CoincidencePattern,
    DetectorId,
    OutcomeDistribution,
    _readout_offsets,
    enumerate_patterns,
    sppm_project,
)
from .state import (
    DROP_EPS,
    POL_H,
    POL_V,
    POLARIZATIONS,
    BasisMode,
    ModeSpace,
    TwoPhotonState,
    fidelity,
    global_phase_between,
)

__all__ = [
    "BELL_LABELS",
    "CLASSIFICATION_TABLE",
    "classify",
    "tamper_table",
    "default_circuit",
    "prepare_input",
    "stage_states",
    "analyze",
    "VerificationReport",
    "verify",
    "OracleReport",
    "oracle_check",
]

BELL_LABELS = ("phi+", "phi-", "psi+", "psi-")

ORACLE_SEED = 0xB5A

# -- classification table (frozen data) ---------------------------------
#
# Each row is ((oam_sign_A, pol_A), (oam_sign_B, pol_B)).  The plus-family
# rows pair equal OAM signs with equal polarizations; the minus-family
# rows are their complement.  Straight origin pairs carry the phi labels,
# crossed pairs the psi labels.

_ROWS_PLUS = (
    ((+1, POL_H), (+1, POL_H)),
    ((+1, POL_V), (+1, POL_V)),
    ((+1, POL_H), (-1, POL_V)),
    ((+1, POL_V), (-1, POL_H)),
    ((-1, POL_H), (+1, POL_V)),
    ((-1, POL_V), (+1, POL_H)),
    ((-1, POL_H), (-1, POL_H)),
    ((-1, POL_V), (-1, POL_V)),
)

_ROWS_MINUS = (
    ((+1, POL_H), (+1, POL_V)),
    ((+1, POL_V), (+1, POL_H)),
    ((+1, POL_H), (-1, POL_H)),
    ((+1, POL_V), (-1, POL_V)),
    ((-1, POL_H), (+1, POL_H)),
    ((-1, POL_V), (+1, POL_V)),
    ((-1, POL_H), (-1, POL_V)),
    ((-1, POL_V), (-1, POL_H)),
)

_ORIGINS_A, _ORIGINS_B = DEFAULT_ORIGINS["A"], DEFAULT_ORIGINS["B"]
_STRAIGHT = tuple(zip(_ORIGINS_A, _ORIGINS_B))
_CROSS = tuple(zip(_ORIGINS_A, reversed(_ORIGINS_B)))
#: all 64 coincidence patterns, in canonical order
_PATTERNS = enumerate_patterns(_ORIGINS_A, _ORIGINS_B)

_TABLE_GROUPS = {
    "phi+": (_ROWS_PLUS, _STRAIGHT),
    "phi-": (_ROWS_MINUS, _STRAIGHT),
    "psi+": (_ROWS_PLUS, _CROSS),
    "psi-": (_ROWS_MINUS, _CROSS),
}


def _build_table() -> dict[CoincidencePattern, str]:
    table: dict[CoincidencePattern, str] = {}
    for label, (rows, origin_pairs) in _TABLE_GROUPS.items():
        for (sa, pa), (sb, pb) in rows:
            for oa, ob in origin_pairs:
                pattern = CoincidencePattern(
                    DetectorId(sa, pa, oa), DetectorId(sb, pb, ob)
                )
                if pattern in table:
                    raise AssertionError(f"classification table repeats {pattern}")
                table[pattern] = label
    return table


CLASSIFICATION_TABLE: dict[CoincidencePattern, str] = _build_table()


def _validate_table() -> None:
    if len(CLASSIFICATION_TABLE) != 64:
        raise AssertionError("classification table must hold 64 patterns")
    per_label = {label: 0 for label in BELL_LABELS}
    for label in CLASSIFICATION_TABLE.values():
        per_label[label] += 1
    if any(count != 16 for count in per_label.values()):
        raise AssertionError(f"uneven classification table: {per_label}")
    if set(CLASSIFICATION_TABLE) != set(_PATTERNS):
        raise AssertionError("classification table does not cover the detector set")


_validate_table()


def classification_rows(
    table: dict[CoincidencePattern, str] | None = None,
) -> list[tuple[CoincidencePattern, str]]:
    """(pattern, label) pairs in canonical pattern order."""
    table = CLASSIFICATION_TABLE if table is None else table
    return [(p, table[p]) for p in _PATTERNS]


def classify(
    pattern: CoincidencePattern, table: dict[CoincidencePattern, str] | None = None
) -> str:
    """Label for a coincidence pattern.

    Raises:
        MalformedPattern: if the pattern is not in the table.
    """
    table = CLASSIFICATION_TABLE if table is None else table
    try:
        return table[pattern]
    except KeyError:
        raise MalformedPattern(
            f"pattern {pattern} is not in the classification table"
        ) from None


def tamper_table() -> dict[CoincidencePattern, str]:
    """Copy of the classification table with exactly one pattern relabeled (test hook).

    The first pattern in canonical order moves to the next label
    cyclically, so verification must report a single misclassification.
    """
    table = dict(CLASSIFICATION_TABLE)
    first = _PATTERNS[0]
    old = table[first]
    table[first] = BELL_LABELS[(BELL_LABELS.index(old) + 1) % len(BELL_LABELS)]
    return table


# -- inputs and reference states ----------------------------------------


@lru_cache(maxsize=1)
def default_circuit() -> Circuit:
    return parse_circuit(builtin_document("fig2"))


def _check_label(label: str) -> None:
    if label not in BELL_LABELS:
        raise ValueError(f"unknown input label {label!r}; expected one of {BELL_LABELS}")


def prepare_input(label: str, space: ModeSpace | None = None) -> TwoPhotonState:
    """Polarization Bell pair at l=0, split evenly over the straight paths.

    Photon A rides a1/b1 and photon B rides a2/b2; the path factor is
    (|a1,a2> + |b1,b2>)/sqrt(2).
    """
    _check_label(label)
    space = default_circuit().space() if space is None else space
    return _reference_state(space, "straight", _INPUT_TERMS[label])


# The Bell inputs, and the reference states after each stage family of
# the analyzer circuit, as (sign, pol_A, l_A, pol_B, l_B) terms over a
# straight or crossed path factor.  These are fixed expectations, not
# recomputed.

_H, _V = POL_H, POL_V

_INPUT_TERMS = {
    "phi+": ((+1, _H, 0, _H, 0), (+1, _V, 0, _V, 0)),
    "phi-": ((+1, _H, 0, _H, 0), (-1, _V, 0, _V, 0)),
    "psi+": ((+1, _H, 0, _V, 0), (+1, _V, 0, _H, 0)),
    "psi-": ((+1, _H, 0, _V, 0), (-1, _V, 0, _H, 0)),
}

_STAGE_TERMS: dict[str, dict[str, tuple[str, tuple]]] = {
    "p_cos": {
        "phi+": ("straight", ((+1, _H, +1, _H, +1), (+1, _V, -1, _V, -1))),
        "phi-": ("straight", ((+1, _H, +1, _H, +1), (-1, _V, -1, _V, -1))),
        "psi+": ("straight", ((+1, _H, +1, _V, -1), (+1, _V, -1, _H, +1))),
        "psi-": ("straight", ((+1, _H, +1, _V, -1), (-1, _V, -1, _H, +1))),
    },
    "o_cps": {
        "phi+": ("straight", ((+1, _H, +1, _H, +1), (+1, _V, -1, _V, -1))),
        "phi-": ("straight", ((+1, _H, +1, _H, +1), (-1, _V, -1, _V, -1))),
        "psi+": ("cross", ((+1, _H, +1, _V, -1), (+1, _V, -1, _H, +1))),
        "psi-": ("cross", ((+1, _H, +1, _V, -1), (-1, _V, -1, _H, +1))),
    },
    "dp_stage": {
        "phi+": ("straight", ((+1, _H, +1, _H, -1), (+1, _V, -1, _V, +1))),
        "phi-": ("straight", ((+1, _H, +1, _H, -1), (-1, _V, -1, _V, +1))),
        "psi+": ("cross", ((+1, _H, +1, _V, +1), (+1, _V, -1, _H, -1))),
        "psi-": ("cross", ((+1, _H, +1, _V, +1), (-1, _V, -1, _H, -1))),
    },
    "oh": {
        "phi+": (
            "straight",
            (
                (+1, _H, +1, _H, +1), (-1, _H, +1, _H, -1),
                (+1, _H, -1, _H, +1), (-1, _H, -1, _H, -1),
                (+1, _V, +1, _V, +1), (+1, _V, +1, _V, -1),
                (-1, _V, -1, _V, +1), (-1, _V, -1, _V, -1),
            ),
        ),
        "phi-": (
            "straight",
            (
                (+1, _H, +1, _H, +1), (-1, _H, +1, _H, -1),
                (+1, _H, -1, _H, +1), (-1, _H, -1, _H, -1),
                (-1, _V, +1, _V, +1), (-1, _V, +1, _V, -1),
                (+1, _V, -1, _V, +1), (+1, _V, -1, _V, -1),
            ),
        ),
        "psi+": (
            "cross",
            (
                (+1, _H, +1, _V, +1), (+1, _H, +1, _V, -1),
                (+1, _H, -1, _V, +1), (+1, _H, -1, _V, -1),
                (+1, _V, +1, _H, +1), (-1, _V, +1, _H, -1),
                (-1, _V, -1, _H, +1), (+1, _V, -1, _H, -1),
            ),
        ),
        "psi-": (
            "cross",
            (
                (+1, _H, +1, _V, +1), (+1, _H, +1, _V, -1),
                (+1, _H, -1, _V, +1), (+1, _H, -1, _V, -1),
                (-1, _V, +1, _H, +1), (+1, _V, +1, _H, -1),
                (+1, _V, -1, _H, +1), (-1, _V, -1, _H, -1),
            ),
        ),
    },
    "hwp": {
        "phi+": (
            "straight",
            (
                (+1, _H, +1, _H, +1), (+1, _V, +1, _V, +1),
                (-1, _H, +1, _V, -1), (-1, _V, +1, _H, -1),
                (+1, _H, -1, _V, +1), (+1, _V, -1, _H, +1),
                (-1, _H, -1, _H, -1), (-1, _V, -1, _V, -1),
            ),
        ),
        "phi-": (
            "straight",
            (
                (+1, _H, +1, _V, +1), (+1, _V, +1, _H, +1),
                (-1, _H, +1, _H, -1), (-1, _V, +1, _V, -1),
                (+1, _H, -1, _H, +1), (+1, _V, -1, _V, +1),
                (-1, _H, -1, _V, -1), (-1, _V, -1, _H, -1),
            ),
        ),
        "psi+": (
            "cross",
            (
                (+1, _H, +1, _H, +1), (-1, _V, +1, _V, +1),
                (-1, _H, +1, _V, -1), (+1, _V, +1, _H, -1),
                (-1, _H, -1, _V, +1), (+1, _V, -1, _H, +1),
                (+1, _H, -1, _H, -1), (-1, _V, -1, _V, -1),
            ),
        ),
        "psi-": (
            "cross",
            (
                (+1, _H, +1, _V, +1), (-1, _V, +1, _H, +1),
                (-1, _H, +1, _H, -1), (+1, _V, +1, _V, -1),
                (-1, _H, -1, _H, +1), (+1, _V, -1, _V, +1),
                (+1, _H, -1, _V, -1), (-1, _V, -1, _H, -1),
            ),
        ),
    },
}

_FACTOR_PAIRS = {"straight": _STRAIGHT, "cross": _CROSS}


def _reference_state(space: ModeSpace, factor: str, terms: tuple) -> TwoPhotonState:
    coef = 1.0 / math.sqrt(2 * len(terms))
    amps: dict = {}
    for sign, pol_a, l_a, pol_b, l_b in terms:
        for x, y in _FACTOR_PAIRS[factor]:
            key = (BasisMode(pol_a, l_a, x), BasisMode(pol_b, l_b, y))
            amps[key] = amps.get(key, 0.0) + sign * coef
    return TwoPhotonState(space, amps)


def reference_stage_states(
    label: str, space: ModeSpace | None = None
) -> dict[str, TwoPhotonState]:
    """Expected state after each stage family, keyed by checkpoint name."""
    _check_label(label)
    space = default_circuit().space() if space is None else space
    return {
        name: _reference_state(space, *per_label[label])
        for name, per_label in _STAGE_TERMS.items()
    }


@dataclass(frozen=True)
class StageRecord:
    """One checkpoint against its reference.  ``global_phase`` is the unit c
    with state ~ c*reference, or ``complex(nan, nan)`` when they are orthogonal."""

    checkpoint: str
    fidelity: float
    global_phase: complex
    state: TwoPhotonState
    reference: TwoPhotonState


def stage_states(
    label: str, impl: str | None = None, circuit: Circuit | None = None
) -> list[StageRecord]:
    """Propagate one input and compare each checkpoint to its reference."""
    _check_label(label)
    circuit = default_circuit() if circuit is None else circuit
    plan = compile_circuit(circuit, impl)
    state = prepare_input(label, circuit.space())
    _, marks = propagate_with_checkpoints(plan, state)
    refs = reference_stage_states(label, circuit.space())
    records = []
    for name, _count in plan.checkpoints:
        if name not in refs:
            continue
        got, ref = marks[name], refs[name]
        try:
            phase = global_phase_between(got, ref)
        except ZeroNorm:
            phase = complex(math.nan, math.nan)
        records.append(StageRecord(name, fidelity(got, ref), phase, got, ref))
    return records


# -- end-to-end analysis ------------------------------------------------


def _measurement_impl(plan: Plan) -> str:
    return "decomposed" if "decomposed" in plan.sppm_impl.values() else "canonical"


def analyze(
    label: str, impl: str | None = None, circuit: Circuit | None = None
) -> OutcomeDistribution:
    """Outcome distribution for one Bell input through the analyzer."""
    space = None if circuit is None else circuit.space()
    return analyze_state(prepare_input(label, space), impl, circuit)


def analyze_state(
    state: TwoPhotonState, impl: str | None = None, circuit: Circuit | None = None
) -> OutcomeDistribution:
    """Outcome distribution for an arbitrary prepared input state."""
    circuit = default_circuit() if circuit is None else circuit
    return _distribution(compile_circuit(circuit, impl), state)


def _distribution(plan: Plan, state: TwoPhotonState) -> OutcomeDistribution:
    out = propagate(plan, state)
    return sppm_project(out, plan.origins["A"], plan.origins["B"], _measurement_impl(plan))


# -- verification -------------------------------------------------------

UNIFORM_TOL = 1e-10


@dataclass(frozen=True)
class LabelReport:
    label: str
    success_probability: float
    support_size: int
    max_deviation: float  # worst |p - 1/16| over the 16 expected patterns
    misclassified: tuple[tuple[CoincidencePattern, str], ...]

    @property
    def ok(self) -> bool:
        return (
            self.support_size == 16
            and not self.misclassified
            and self.max_deviation <= UNIFORM_TOL
            and abs(self.success_probability - 1.0) <= UNIFORM_TOL
        )


@dataclass(frozen=True)
class VerificationReport:
    rows: tuple[LabelReport, ...]
    disjoint: bool
    cover: bool

    @property
    def ok(self) -> bool:
        return self.disjoint and self.cover and all(r.ok for r in self.rows)

    @property
    def accuracy(self) -> float:
        """Pattern-weighted identification accuracy across the four inputs."""
        return sum(r.success_probability for r in self.rows) / len(self.rows)

    def to_text(self) -> str:
        lines = []
        for r in self.rows:
            lines.append(
                f"input {r.label:<4}  success {r.success_probability:.12f}  "
                f"patterns {r.support_size:2d}  max|p-1/16| {r.max_deviation:.3e}"
            )
            for pattern, got in r.misclassified:
                lines.append(f"  misclassified: {pattern} -> {got}")
        lines.append(f"supports disjoint: {'yes' if self.disjoint else 'NO'}")
        lines.append(f"table covered:     {'yes' if self.cover else 'NO'}")
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: accuracy {self.accuracy:.12f} over {len(self.rows)} inputs"
        )
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "inputs": [
                {
                    "label": r.label,
                    "success_probability": r.success_probability,
                    "support_size": r.support_size,
                    "max_deviation": r.max_deviation,
                    "misclassified": [
                        {"pattern": str(p), "label": got}
                        for p, got in r.misclassified
                    ],
                }
                for r in self.rows
            ],
            "disjoint": self.disjoint,
            "cover": self.cover,
            "accuracy": self.accuracy,
            "ok": self.ok,
        }


def verify(
    impl: str | None = None,
    circuit: Circuit | None = None,
    table: dict[CoincidencePattern, str] | None = None,
) -> VerificationReport:
    """Propagate all four Bell inputs and grade them against the table."""
    table = CLASSIFICATION_TABLE if table is None else table
    circuit = default_circuit() if circuit is None else circuit
    plan = compile_circuit(circuit, impl)
    rows = []
    supports: list[set[CoincidencePattern]] = []
    for label in BELL_LABELS:
        dist = _distribution(plan, prepare_input(label, circuit.space()))
        support = dist.support()
        supports.append(set(support))
        success = 0.0
        missed = []
        deviation = 0.0
        for pattern, p in dist.items_ordered():
            got = table.get(pattern)
            if got == label:
                success += p
            else:
                missed.append((pattern, got if got is not None else "?"))
            deviation = max(deviation, abs(p - 1.0 / 16.0))
        rows.append(
            LabelReport(label, success, len(support), deviation, tuple(missed))
        )
    union = set().union(*supports)
    disjoint = len(union) == sum(len(s) for s in supports)
    cover = union == set(table)
    return VerificationReport(tuple(rows), disjoint, cover)


# -- dense oracle cross-check -------------------------------------------


@dataclass(frozen=True)
class OracleReport:
    states_checked: int
    max_state_difference: float
    max_tvd: float
    max_unitarity_residual: float
    tol: float = 1e-10

    @property
    def ok(self) -> bool:
        return (
            self.max_state_difference <= self.tol
            and self.max_tvd <= self.tol
            and self.max_unitarity_residual <= self.tol
        )

    def to_text(self) -> str:
        verdict = "PASS" if self.ok else "FAIL"
        return (
            f"states checked:          {self.states_checked}\n"
            f"max state difference:    {self.max_state_difference:.3e}\n"
            f"max distribution TVD:    {self.max_tvd:.3e}\n"
            f"max unitarity residual:  {self.max_unitarity_residual:.3e}\n"
            f"{verdict}: sparse evolution matches the dense operator "
            f"within {self.tol:.0e}\n"
        )

    def to_json_dict(self) -> dict:
        return {
            "states_checked": self.states_checked,
            "max_state_difference": self.max_state_difference,
            "max_tvd": self.max_tvd,
            "max_unitarity_residual": self.max_unitarity_residual,
            "tol": self.tol,
            "ok": self.ok,
        }


#: the input sector's 16 pairs, in the key order of ``random_input_states``' states
_SECTOR_PAIRS = [
    (BasisMode(pa, 0, x), BasisMode(pb, 0, y)) for x, y, pa, pb in product(_ORIGINS_A, _ORIGINS_B, POLARIZATIONS, POLARIZATIONS)
]
#: each pair's place in Psi: photon A's mode in ``SECTOR_MODES["A"]``, photon B's in ``SECTOR_MODES["B"]``
_SECTOR_AT = tuple([SECTOR_MODES[p].index(m) for m in modes] for p, modes in zip(PHOTONS, zip(*_SECTOR_PAIRS)))


def _draw(n: int, seed: int) -> np.ndarray:
    """``n`` random unit vectors over ``_SECTOR_PAIRS``, as ``(n, 16)``."""
    vecs = np.random.default_rng(seed).standard_normal((n, 2, len(_SECTOR_PAIRS)))  # each: real parts, then imaginary
    vecs = vecs[:, 0] + 1j * vecs[:, 1]
    return vecs / np.reshape([np.linalg.norm(v) for v in vecs], (n, 1))  # a batched norm sums in another order


def random_input_states(n: int, seed: int = ORACLE_SEED, space: ModeSpace | None = None) -> list[TwoPhotonState]:
    """Random unit vectors in the l=0 input sector the analyzer accepts."""
    space = default_circuit().space() if space is None else space
    ja, jb = zip(*[(space.index(a), space.index(b)) for a, b in _SECTOR_PAIRS])
    return [TwoPhotonState._indexed(space, list(ja), list(jb), v.tolist()) for v in _draw(n, seed)]


def oracle_check(
    impl: str | None = None,
    circuit: Circuit | None = None,
    n_random: int = 50,
    seed: int = ORACLE_SEED,
) -> OracleReport:
    """Cross-check sparse propagation against the dense matrix oracle, as operators.

    The 4 Bell inputs and ``n_random`` random sector states form one array Psi,
    contracted once per side with each photon's 4 ``sector_columns`` (the
    images ``propagate`` contracts) or the same dense columns, and read by
    ``sppm_project``'s detectors; an input the per-state checks refuse raises
    their error.  Reports the worst amplitude difference, TVD and unitarity residual.
    """
    circuit = default_circuit() if circuit is None else circuit
    plan = compile_circuit(circuit, impl)
    dense = assemble(plan)
    bell = [prepare_input(label, circuit.space()) for label in BELL_LABELS]
    vecs = np.concatenate([[[state.amplitude(pair) for pair in _SECTOR_PAIRS] for state in bell], _draw(n_random, seed)])
    psi = np.zeros((len(vecs), len(SECTOR_MODES["A"]), len(SECTOR_MODES["B"])), dtype=np.complex128)
    psi[:, _SECTOR_AT[0], _SECTOR_AT[1]] = vecs

    # per photon: its sector columns, sparse then dense, on the rows either side reaches
    cols = {p: [plan.space.index(m) for m in SECTOR_MODES[p]] for p in PHOTONS}
    ops = [np.stack([sector_columns(plan, p, len(plan.stages)), u[:, cols[p]]]) for p, u in zip(PHOTONS, (dense.u_a, dense.u_b))]
    rows = [np.flatnonzero(op.any(axis=(0, 2))) for op in ops]
    m_a, m_b = (op[:, r] for op, r in zip(ops, rows))
    joint = m_a[:, None] @ psi @ m_b[:, None].swapaxes(2, 3)  # (side, input, row of A, row of B)
    joint[np.abs(joint) <= DROP_EPS] = 0

    # the readout refuses light on a row no detector reads (an ancilla row too); each other pair is one pattern
    origins, meas_impl = (plan.origins["A"], plan.origins["B"]), _measurement_impl(plan)
    unread_a, unread_b = ([part[j] is None for j in r] for part, r in zip(_readout_offsets(plan.space, *origins, meas_impl), rows))
    read = np.where(np.logical_or.outer(unread_a, unread_b), 0, joint)
    probs = np.abs(read) ** 2

    # light off the detectors, lost probability or parked light: each input in turn runs the per-state checks
    unsure = (joint != read).any(axis=(0, 2, 3)) | (abs(probs.sum(axis=(2, 3)) - 1) > PROBABILITY_TOL).any(axis=0)
    if unsure.any() or any(plan._transfers[p].errors for p in PHOTONS):
        for state, check in zip(bell + random_input_states(n_random, seed, circuit.space()), unsure):
            sparse_out = propagate(plan, state)
            if check:
                dense_out = restrict_to_circuit(plan, dense.apply(state), "dense oracle output")
                for out in (sparse_out, dense_out):
                    sppm_project(out, *origins, meas_impl)
    return OracleReport(
        states_checked=len(psi),
        max_state_difference=float(np.abs(read[0] - read[1]).max(initial=0.0)),
        max_tvd=float(0.5 * np.abs(probs[0] - probs[1]).sum(axis=(1, 2)).max()),
        max_unitarity_residual=max((r.unitarity_residual for r in dense.records), default=0.0),
    )
