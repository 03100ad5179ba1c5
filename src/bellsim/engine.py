"""Compilation, static validation and propagation of circuits, plus a
dense matrix oracle.

``compile_circuit`` turns a parsed :class:`~bellsim.circuit.Circuit` into a
:class:`Plan`: each stage's placed elements (a canonical gate is one
element, a decomposition several), each wrapped here, and only here, as a
:class:`CompiledOp` with its column function; the measurement origins
declared by ``sppm`` stages; and checkpoint positions after the last
stage of each kind.  ``propagate`` pushes each input mode through its
photon's ops once per plan, caching the images on the plan as one transfer
matrix per photon and stage count (a column per input mode, a row per
output mode reached, as its index in ``space.modes()``), and builds each
returned pair state as one contraction ``M_A Psi M_B^T`` of the input
amplitudes with them, in complex128, dropping amplitudes of magnitude
<= 1e-15; the state holds its pairs as those row indices.  The last
state's space and mode indices, with its layout (each photon's columns,
each pair's flat place in Psi), sit in one slot on the plan, so states on
the same indices in the same order fill Psi in one
assignment.  Only the counts the public calls return drop the
ancilla, and ``restrict_to_circuit``'s leak scan runs on a count only if a
row of its transfer matrices, noted per build, lies on the ancilla path.
Light an op cannot take is parked beside its column with the error that
parked it; a state raises that error, naming its stage and element, only
if its joint amplitudes on the parked light do not cancel.  ``compile_circuit``
first refuses a stage that breaks a rule of ``circuit.stage_problems``, the
rules the parser applies; ``validate`` reports each of those, and only for
a circuit that breaks none compiles every plan the CLI can run and reads
its issues off the same pushes.
``assemble`` builds dense per-photon matrices for the same plan from each
op's block in :mod:`bellsim.blocks`: the physics restated, not the column
functions the pushes run, so the two evolutions check each other.  Each
stage's Gram is summed from the same entries with no BLAS call.  Both
follow one rule for light an op cannot take: the push parks it, and its
dense column is zero from that op on.

The dense form is kept factored as (U_A, U_B): the joint operator is
their Kronecker product, applied to a batch of states in one contraction.
A per-photon dimension cap guards against accidentally huge spaces.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

import numpy as np

from . import blocks
from .circuit import ANCILLA_PATH, PHOTONS, STAGE_KINDS, Circuit, label_problems, stage_problems
from .elements import ColumnFn, Element, element_column
from .errors import BellSimError, DimensionCap, LeakedAmplitude, UnsortableOam
from .measurement import readout_error
from .state import DROP_EPS, POLARIZATIONS, BasisMode, ModeSpace, TwoPhotonState, _clean, _mode_table

__all__ = [
    "Plan",
    "compile_circuit",
    "ValidationReport",
    "validate",
    "propagate",
    "propagate_with_checkpoints",
    "restrict_to_circuit",
    "AssembledUnitary",
    "assemble",
]

#: per-photon dense dimension guard (the joint space is this squared)
MAX_PHOTON_DIMENSION = 10_000

#: each photon's measured paths in the analyzer, and a circuit's origins if no sppm stage names any;
#: ``validate`` reports light off the origins only for pushes entering here, the inputs the commands
#: prepare (no command sends photon A in on a2, whose light leaves fig2 off A's origins)
DEFAULT_ORIGINS = {"A": ("a1", "b1"), "B": ("a2", "b2")}
#: each photon's l=0 input sector, the modes the analyzer's inputs enter on: H and V on each of its origins, path-major
SECTOR_MODES = {p: tuple(BasisMode(pol, 0, path) for path in DEFAULT_ORIGINS[p] for pol in POLARIZATIONS) for p in PHOTONS}

_IMPLS = (None, "canonical", "decomposed")
_SEVERITIES = ("error", "warning", "note")


@dataclass(frozen=True)
class CompiledOp:
    """One single-photon op: its column function, and the placed element it
    was built from, which the dense oracle restates; ``None`` for a column
    built in code."""

    label: str
    column: ColumnFn
    spec: Element | None = None


@dataclass(frozen=True)
class CompiledStage:
    index: int  # position in the source stage list
    kind: str
    photon: str
    impl: str
    label: str
    ops: tuple[CompiledOp, ...]


@dataclass(frozen=True)
class Plan:
    circuit: Circuit
    space: ModeSpace  # circuit space, extended with the ancilla if needed
    ancilla: str | None
    stages: tuple[CompiledStage, ...]
    origins: dict[str, tuple[str, ...]]
    sppm_impl: dict[str, str]  # origin path -> canonical | decomposed
    checkpoints: tuple[tuple[str, int], ...]  # (kind, compiled-stage count)
    # (photon, input mode) -> its column in the photon's _Transfer
    _images: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _transfers: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    # ((space, photon A's and B's mode indices), photon A's columns, photon B's columns, flat Psi index per pair)
    # of the last state propagated: one tuple, replaced whole
    _layout: tuple = field(default=(None,), init=False, repr=False, compare=False)


def _resolve(circuit: Circuit, impl_override: str | None):
    """Per-stage impl, and the plan's space and ancilla under an override."""
    if impl_override not in _IMPLS:
        raise ValueError(f"bad impl override: {impl_override!r}")
    specs = [STAGE_KINDS[s.kind] for s in circuit.stages]
    impls = tuple(
        (impl_override or s.impl) if spec.composite else "canonical"
        for s, spec in zip(circuit.stages, specs)
    )
    space = circuit.space()
    if any(spec.ancilla and impl == "decomposed" for spec, impl in zip(specs, impls)):
        return impls, space.extended((ANCILLA_PATH,)), ANCILLA_PATH
    return impls, space, None


def compile_circuit(circuit: Circuit, impl_override: str | None = None) -> Plan:
    """Resolve every stage to its placed elements, each wrapped as an op.

    ``impl_override`` forces canonical or decomposed forms for all
    composite stages and for the default origins' readout when no ``sppm``
    stage names any; primitive stages are unaffected.  Compiling only
    wraps columns, each labelled with its element's ``describe()``: no
    light is pushed through the ops here.

    Raises:
        BellSimError: an element the space cannot take, as "stage N (label): ...".
        ValueError: a bad override, or a stage that breaks a rule of its
            kind, as "stage N (label): ..." with the first of its
            ``circuit.stage_problems`` (only a circuit built in code can
            hold one: the parser rejects them).
    """
    for idx, stage in enumerate(circuit.stages):
        for _, _, message in stage_problems(stage, circuit.paths):  # raise the first
            raise ValueError(f"stage {idx + 1} ({stage.header()}): {message}")
    impls, space, ancilla = _resolve(circuit, impl_override)
    compiled: list[CompiledStage] = []
    origins: dict[str, list[str]] = {p: [] for p in PHOTONS}
    sppm_impl: dict[str, str] = {}
    for idx, (stage, impl) in enumerate(zip(circuit.stages, impls)):
        build = STAGE_KINDS[stage.kind].build
        label = stage.header()
        if build is None:
            if stage.paths[0] not in origins[stage.photon]:  # a repeated sppm counts once
                origins[stage.photon].append(stage.paths[0])
                sppm_impl[stage.paths[0]] = impl
            continue
        try:
            ops = [CompiledOp(e.describe(), element_column(e, space), e) for e in build(stage, impl)]
        except BellSimError as exc:
            raise type(exc)(f"stage {idx + 1} ({label}): {exc}") from exc
        compiled.append(CompiledStage(idx, stage.kind, stage.photon, impl, label, tuple(ops)))

    if not any(origins.values()):
        for photon in PHOTONS:
            origins[photon] = [p for p in DEFAULT_ORIGINS[photon] if p in circuit.paths]
            sppm_impl.update(dict.fromkeys(origins[photon], impl_override or "canonical"))

    last_count = {cs.kind: count for count, cs in enumerate(compiled, start=1)}
    return Plan(
        circuit=circuit,
        space=space,
        ancilla=ancilla,
        stages=tuple(compiled),
        origins={p: tuple(v) for p, v in origins.items()},
        sppm_impl=sppm_impl,
        checkpoints=tuple(sorted(last_count.items(), key=lambda kv: kv[1])),
    )


# -- static validation --------------------------------------------------


@dataclass(frozen=True)
class ValidationIssue:
    severity: str  # "error" | "warning" | "note"
    stage_index: int | None
    message: str

    def __str__(self) -> str:
        where = f"stage {self.stage_index + 1}: " if self.stage_index is not None else ""
        return f"{self.severity}: {where}{self.message}"


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not any(i.severity == "error" for i in self.issues)

    def __str__(self) -> str:
        if not self.issues:
            return "validation: clean"
        return "\n".join(str(i) for i in self.issues)


def _pushed_issues(circuit: Circuit, override: str | None) -> list[ValidationIssue]:
    """One variant's issues, read off ``_push`` of every l=0 basis mode: up to
    its first op that parked light, or for a push that ran to the end, at the readout."""
    try:
        plan = compile_circuit(circuit, override)
    except BellSimError as exc:  # raised as "stage N (label): <build message>"
        return [ValidationIssue("error", int(str(exc).split()[1]) - 1, str(exc.__cause__))]
    declared: dict[tuple[str, str], int] = {}  # the sppm stage declaring each (photon, origin), if any
    for idx, s in enumerate(circuit.stages):
        if STAGE_KINDS[s.kind].build is None:
            declared.setdefault((s.photon, s.paths[0]), idx)
    issues: list[ValidationIssue] = []
    bad: dict[int | None, set[int]] = {}  # stage index (None: the readout) -> OAMs outside l=+1/-1 it receives
    for photon, path, pol in product(PHOTONS, circuit.paths, POLARIZATIONS):
        col = _push(plan, photon, BasisMode(pol, 0, path))
        transfer = plan._transfers[photon]
        images, parked = transfer.columns[col], transfer.parked[col]
        stop = next(iter(parked), None)  # keys are in plan order; read only up to the first
        if stop:
            images = images[: stop[0] + 1]
            index, exc = plan.stages[stop[0]].index, transfer.errors[stop]
            if isinstance(exc, UnsortableOam):
                rejected = [k for k in parked if k[0] == stop[0] and isinstance(transfer.errors[k], UnsortableOam)]
                bad.setdefault(index, set()).update(m.oam for _, _, m in rejected)
            else:
                issues.append(ValidationIssue("error", index, str(exc)))
        else:  # the push ran to the end: the readout reads its final image
            origins = plan.origins[photon]
            for mode, amp in images[-1].items():
                exc = readout_error(photon, mode, amp, origins)
                if isinstance(exc, UnsortableOam):
                    bad.setdefault(declared.get((photon, mode.path)), set()).add(mode.oam)
                elif exc is not None and path in DEFAULT_ORIGINS[photon]:
                    message = f"the readout may receive photon {photon} light on path {mode.path!r}, outside"
                    issues.append(ValidationIssue("warning", None, f"{message} its measured origins {origins}"))
        for cs, image in zip(plan.stages, images[1:]):
            if cs.photon == photon and any(m.path == plan.ancilla for m in image):
                message = f"{cs.kind} may leave light on ancilla path {plan.ancilla}"
                issues.append(ValidationIssue("error", cs.index, message))
                break
    for idx, oams in bad.items():
        kind = "the readout" if idx is None else circuit.stages[idx].kind
        message = f"{kind} may receive OAM outside +1/-1 ({sorted(oams)}) for the reference inputs"
        issues.append(ValidationIssue("warning", idx, message))
    return issues


def validate(circuit: Circuit) -> ValidationReport:
    """Static checks: the declarations and each stage against the parser's rules, then every plan the CLI can run.

    The circuit must pass the rules the parser applies to text: ``lmax``
    and each path label, with no stage, then each stage's
    ``circuit.stage_problems`` at that stage; a circuit built in code that
    breaks one is reported and not compiled.  Each plan the CLI can run (as
    written, and each impl override that differs) is compiled, and each l=0
    basis mode (both polarizations, every declared path, both photons) is
    pushed through it by ``_push``, the push ``propagate`` reads, up to the
    first op that parked light.  That op's error or a compile failure is an
    error (``UnsortableOam`` a warning), as is ancilla light after a stage.
    A push that ran to the end is read by ``readout_error``, as the readout
    reads it: OAM outside l=+1/-1 on an origin warns at the ``sppm`` stage
    that declares it (``the readout`` for fallback origins), and light off
    the origins warns with no stage if the push entered on its photon's
    ``DEFAULT_ORIGINS``, the inputs the analyzer prepares.
    Identical issues are merged; one seen under only some impls names
    them.  Never raises; problems are returned as issues.
    """
    issues = [ValidationIssue("error", None, "lmax must be >= 1")] if circuit.lmax < 1 else []
    issues += [ValidationIssue("error", None, message) for _, _, message in label_problems(circuit.paths)]
    issues += [
        ValidationIssue("error", idx, message)
        for idx, stage in enumerate(circuit.stages)
        for _, _, message in stage_problems(stage, circuit.paths)
    ]

    if not issues:
        variants: dict[tuple, list] = {}
        for override in _IMPLS:
            variants.setdefault(_resolve(circuit, override), []).append(override)
        found: dict[ValidationIssue, list[str]] = {}
        for overrides in variants.values():
            name = " and ".join(o for o in overrides if o) or "as written"
            for issue in dict.fromkeys(_pushed_issues(circuit, overrides[0])):
                found.setdefault(issue, []).append(name)
        for issue, names in found.items():
            if len(names) < len(variants):
                message = f"{issue.message} ({' and '.join(names)} only)"
                issue = ValidationIssue(issue.severity, issue.stage_index, message)
            issues.append(issue)
        issues += [
            ValidationIssue("note", idx, f"{stage.kind} domain restricted to l=+1/-1")
            for idx, stage in enumerate(circuit.stages)
            if STAGE_KINDS[stage.kind].sign_domain and STAGE_KINDS[stage.kind].build is not None
        ]
        issues.sort(key=lambda i: (i.stage_index is None, i.stage_index or 0, _SEVERITIES.index(i.severity)))

    used = {p for s in circuit.stages for p in s.paths}
    issues += [
        ValidationIssue("note", None, f"path {p!r} is declared but not used by any stage")
        for p in circuit.paths
        if p not in used
    ]
    return ValidationReport(tuple(issues))


# -- sparse propagation -------------------------------------------------


def restrict_to_circuit(plan: Plan, state: TwoPhotonState, where: str = "state") -> TwoPhotonState:
    """Strip the compile-time ancilla path, checking it carries no light; a
    state is read as mode indices in the plan's space, where the ancilla's come last.

    Raises:
        LeakedAmplitude: if more than 1e-10 of the probability sits on the
            ancilla (the interferometer did not return it empty).
    """
    if plan.ancilla is None:
        return state
    space = plan.circuit.space()
    ja, jb, values = state.with_space(plan.space)._pairs
    dim = space.dimension  # the ancilla's modes come last in the plan's space: the circuit's keep their indices
    kept = [k for k, (a, b) in enumerate(zip(ja, jb)) if a < dim and b < dim]
    if len(kept) < len(values):
        leak = sum(abs(v) ** 2 for a, b, v in zip(ja, jb, values) if a >= dim or b >= dim)
        if leak > 1e-10:
            raise LeakedAmplitude(f"{where}: probability {leak:.3e} left on ancilla path {plan.ancilla}")
        ja, jb, values = ([x[k] for k in kept] for x in (ja, jb, values))
    # every kept mode was checked in the plan's space and is off the ancilla
    return TwoPhotonState._indexed(space, ja, jb, values)


class _Transfer:
    """One photon's pushed input modes, each as its image after every stage
    count, read as one matrix per count: column j is the j-th pushed mode's
    image, and the rows are the output modes those images reach, each held
    as its index in ``space.modes()``.  Beside each column is the light its
    push parked, and each parked key's error."""

    def __init__(self, space: ModeSpace, ancilla: str | None = None) -> None:
        self.index = _mode_table(space)[1]
        self.ancilla = ancilla
        self.columns: list[list[dict]] = []
        self.parked: list[dict] = []  # per column: (stage, op, mode) -> amplitude
        self.errors: dict[tuple, BellSimError] = {}
        self._built: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self.on_ancilla: dict[int, bool] = {}  # per count: does a row lie on the ancilla path

    def add(self, images: list[dict], parked: dict) -> int:
        self.columns.append(images)
        self.parked.append(parked)
        self._built.clear()  # every count's matrix grows by this column
        return len(self.columns) - 1

    def at(self, count: int) -> tuple[np.ndarray, np.ndarray]:
        """(row mode indices, matrix) after ``count`` stages, built once per growth."""
        if count not in self._built:
            rows: dict[BasisMode, int] = {}
            r, c, v = [], [], []
            for col, images in enumerate(self.columns):
                for out, coeff in images[count].items():
                    r.append(rows.setdefault(out, len(rows)))
                    c.append(col)
                    v.append(coeff)
            mat = np.zeros((len(rows), len(self.columns)), dtype=np.complex128)
            mat[r, c] = v
            self.on_ancilla[count] = any(m.path == self.ancilla for m in rows)
            self._built[count] = (np.array([self.index[m] for m in rows], dtype=np.intp), mat)
        return self._built[count]


def _push(plan: Plan, photon: str, mode: BasisMode) -> int:
    """The input mode's column in its photon's transfer matrices, pushed through
    the photon's ops on first use and cached on the plan.  Light an op cannot
    take (its column raises, or an image fails the space check) is parked
    under (stage position, op position, mode) and leaves the push."""
    if (photon, mode) not in plan._images:
        transfer = plan._transfers.setdefault(photon, _Transfer(plan.space, plan.ancilla))
        amps: dict = {mode: 1.0 + 0.0j}
        images, parked = [amps], {}
        for s, cs in enumerate(plan.stages):
            for o, op in enumerate(cs.ops if cs.photon == photon else ()):
                out: dict = {}
                for m, amp in amps.items():
                    try:
                        terms = op.column(m)
                    except BellSimError as exc:
                        parked[s, o, m] = amp
                        transfer.errors.setdefault((s, o, m), exc)
                        continue
                    for new, coeff in terms:
                        out[new] = out.get(new, 0j) + amp * coeff
                amps = _clean(out)
                for m in list(amps):
                    try:
                        plan.space.check_mode(m)
                    except BellSimError as exc:
                        parked[s, o, m] = amps.pop(m)
                        transfer.errors.setdefault((s, o, m), exc)
            images.append(amps)
        plan._images[photon, mode] = transfer.add(images, parked)
    return plan._images[photon, mode]


def sector_columns(plan: Plan, photon: str, count: int) -> np.ndarray:
    """The photon's ``SECTOR_MODES`` after ``count`` stages: the images ``propagate`` contracts, ``(space.dimension, 4)``."""
    cols = [_push(plan, photon, mode) for mode in SECTOR_MODES[photon]]
    rows, mat = plan._transfers[photon].at(count)
    out = np.zeros((plan.space.dimension, len(cols)), dtype=np.complex128)
    out[rows] = mat[:, cols]
    return out


def _raise_parked(plan: Plan, psi: np.ndarray, cols: tuple, transfers: list) -> None:
    """Raise for the earliest op, in plan order, whose parked light the pair
    state reaches: the parked row over the state's input modes, times Psi,
    times the other photon's images entering that stage.  At a tie the key
    met first, walking the state's input modes, wins."""
    first, exc = (len(plan.stages), 0), None  # (stage, op) of the earliest reached, and its error
    for side, (transfer, own) in enumerate(zip(transfers, cols)):
        other = transfers[1 - side].at
        for c in own:
            for key in transfer.parked[c]:
                if key[:2] >= first:
                    continue
                row = np.array([transfer.parked[j].get(key, 0j) for j in own])
                images = other(key[0])[1][:, cols[1 - side]]
                received = row @ psi @ images.T if side == 0 else images @ psi @ row
                if np.abs(received).max(initial=0.0) > DROP_EPS:
                    first, exc = key[:2], transfer.errors[key]
    if exc is not None:
        cs = plan.stages[first[0]]
        raise type(exc)(f"stage {cs.index + 1} ({cs.label}), element {cs.ops[first[1]].label}: {exc}") from exc


def _layout(plan: Plan, state: TwoPhotonState) -> tuple:
    """The plan's layout slot if it holds the state's space and pairs in the same order, else a new one stored there."""
    key = (state.space, *state._pairs[:2])
    layout = plan._layout  # read once: another call may replace the slot
    if layout[0] == key:
        return layout
    ja, jb, _ = state.with_space(plan.space)._pairs  # raises on a mode outside the plan's space
    modes = _mode_table(plan.space)[0]
    # Psi's rows and columns follow the state's own mode order, not the plan's history
    index = [{j: i for i, j in enumerate(dict.fromkeys(js))} for js in (ja, jb)]
    cols = [np.array([_push(plan, photon, modes[j]) for j in ix], dtype=np.intp) for photon, ix in zip(PHOTONS, index)]
    flat = np.array([index[0][a] * len(index[1]) + index[1][b] for a, b in zip(ja, jb)], dtype=np.intp)
    # columns 0, 1, ... in order are read as a view of the matrix, not copied
    takes = tuple(slice(0, len(c)) if c.tolist() == list(range(len(c))) else c for c in cols)
    layout = (key, *cols, flat, takes)
    object.__setattr__(plan, "_layout", layout)
    return layout


def _states(plan: Plan, state: TwoPhotonState, counts: tuple[int, ...], where: dict | None = None) -> list:
    """The state in the plan's space after the first ``count`` stages, for each
    count: ``M_A Psi M_B^T`` on the columns of the state's own input modes,
    held as the transfer rows' mode indices.  A count named in ``where`` is
    restricted to the circuit's space as ``restrict_to_circuit(plan, state,
    where[count])``, without its scan if no transfer row of the count lies on
    the ancilla path."""
    _, col_a, col_b, flat, (take_a, take_b) = _layout(plan, state)
    psi = np.zeros(len(col_a) * len(col_b), dtype=np.complex128)
    psi[flat] = state._pairs[2]
    psi = psi.reshape(len(col_a), len(col_b))
    ta, tb = transfers = [plan._transfers.get(photon) or _Transfer(plan.space) for photon in PHOTONS]
    if ta.errors or tb.errors:  # some push of the plan parked light
        _raise_parked(plan, psi, (col_a, col_b), transfers)
    out = []
    for count in counts:
        if not count:
            out.append(state.with_space(plan.space))
        else:
            (rows_a, mat_a), (rows_b, mat_b) = ta.at(count), tb.at(count)
            joint = mat_a[:, take_a] @ psi @ mat_b[:, take_b].T
            hit = np.abs(joint) > DROP_EPS
            ia, ib = np.nonzero(hit)
            pairs = rows_a[ia].tolist(), rows_b[ib].tolist(), joint[hit].tolist()
            # every image mode was checked in the plan's space by its push
            out.append(TwoPhotonState._indexed(plan.space, *pairs))
        if where and count in where:
            if plan.ancilla and count and not (ta.on_ancilla[count] or tb.on_ancilla[count]):
                out[-1] = TwoPhotonState._indexed(plan.circuit.space(), *pairs)  # as restrict_to_circuit keeps them
            else:
                out[-1] = restrict_to_circuit(plan, out[-1], where[count])
    return out


def propagate(plan: Plan, state: TwoPhotonState) -> TwoPhotonState:
    """Final state in the circuit's own space (ancilla checked + stripped): one
    contraction with mode images built once per plan; raises if it reaches parked light."""
    count = len(plan.stages)
    (final,) = _states(plan, state, (count,), {count: "after final stage"})
    return final


def propagate_with_checkpoints(
    plan: Plan, state: TwoPhotonState
) -> tuple[TwoPhotonState, dict[str, TwoPhotonState]]:
    """Propagate and also return the state after each kind's last stage."""
    final = len(plan.stages)
    # a checkpoint at the final count names itself in the error, as it is checked first
    where = {final: "after final stage", **{count: f"checkpoint {kind}" for kind, count in plan.checkpoints}}
    counts = tuple(sorted(where))
    at = dict(zip(counts, _states(plan, state, counts, where)))
    return at[final], {kind: at[count] for kind, count in plan.checkpoints}


# -- dense assembly oracle ----------------------------------------------


@dataclass(frozen=True)
class StageMatrixRecord:
    index: int
    kind: str
    photon: str
    impl: str
    label: str
    unitarity_residual: float


def _sum_of_products(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y`` for stacked complex ``x`` or ``y``, each entry's terms added
    in index order (``accumulate``) in real arithmetic: an entry is rounded
    by its own terms alone, so inner indices where its terms are zero change
    nothing (a BLAS call may fuse or regroup a sum by the shapes it is given)."""
    xr, xi = x.real[..., None], x.imag[..., None]
    yr, yi = y.real[..., None, :, :], y.imag[..., None, :, :]
    out = np.zeros(np.broadcast_shapes(x.shape[:-1] + (1,), y.shape[:-2] + (1, y.shape[-1])), dtype=np.complex128)
    if x.shape[-1]:
        out.real = np.add.accumulate(xr * yr - xi * yi, axis=-2)[..., -1, :]
        out.imag = np.add.accumulate(xr * yi + xi * yr, axis=-2)[..., -1, :]
    return out


@dataclass
class AssembledUnitary:
    """Factored dense operator: joint action is kron(u_a, u_b).

    Column j of ``u_a`` (``u_b``) is ``_push``'s final image of basis mode j
    for photon A (B): light an op cannot take is zero from that op on.
    """

    space: ModeSpace
    u_a: np.ndarray
    u_b: np.ndarray
    records: tuple[StageMatrixRecord, ...] = field(default_factory=tuple)

    def apply(self, state: TwoPhotonState) -> TwoPhotonState:
        """``apply_all`` on one state."""
        return self.apply_all([state])[0]

    def apply_all(self, states: "list[TwoPhotonState]") -> "list[TwoPhotonState]":
        """``u_a @ psi_k @ u_b.T`` for every input k in one contraction: each
        psi_k is stacked over the union S_A x S_B of the inputs' modes, and
        only the rows that ``u_a[:, S_A]`` and ``u_b[:, S_B]`` reach are formed."""
        k, a, b, amps = [], [], [], []
        for n, state in enumerate(states):
            ja, jb, values = state.with_space(self.space)._pairs
            k += [n] * len(values)
            a += ja
            b += jb
            amps += values
        s_a, a = np.unique(np.array(a, dtype=np.intp), return_inverse=True)
        s_b, b = np.unique(np.array(b, dtype=np.intp), return_inverse=True)
        psi = np.zeros((len(states), len(s_a), len(s_b)), dtype=np.complex128)
        psi[k, a, b] = amps
        left, right = self.u_a[:, s_a], self.u_b[:, s_b]
        ia, ib = np.flatnonzero(left.any(axis=1)), np.flatnonzero(right.any(axis=1))
        dense = _sum_of_products(_sum_of_products(left[ia], psi), right[ib].T)
        hit = np.abs(dense) > DROP_EPS
        at, rows, cols = np.nonzero(hit)
        ja, jb, values = ia[rows].tolist(), ib[cols].tolist(), dense[hit].tolist()
        ends = np.cumsum(np.bincount(at, minlength=len(states))).tolist()
        # every output row is a place in space.modes(), so nothing is re-checked
        return [TwoPhotonState._indexed(self.space, ja[i:j], jb[i:j], values[i:j]) for i, j in zip([0, *ends], ends)]


class _SparseOp(NamedTuple):
    """One op's matrix M as its nonzero entries sorted by source column:
    column i of M holds ``rows[starts[i]:starts[i + 1]]`` with ``coeffs``."""

    starts: np.ndarray  # per source column, and one past the last: offset of its entries
    rows: np.ndarray
    coeffs: np.ndarray
    valid: np.ndarray | None  # per source column: False where the op cannot take it
    moved: np.ndarray  # per mode: False where both its column and its row are the unit one


def _sparse(rows: np.ndarray, cols: np.ndarray, coeffs: np.ndarray, valid: np.ndarray) -> _SparseOp:
    """An op's ``_SparseOp`` from its entries in source-column order."""
    dim = len(valid)
    count = np.bincount(cols, minlength=dim)
    # a unit row and column holds exactly one entry, a unit one on the diagonal
    unit = np.bincount(rows[(rows == cols) & (coeffs == 1.0)], minlength=dim) == 1
    moved = ~(unit & (count == 1) & (np.bincount(rows, minlength=dim) == 1))
    return _SparseOp(np.concatenate(([0], np.cumsum(count))), rows, coeffs, valid, moved)


def _merge(width: int, *parts: tuple[np.ndarray, np.ndarray, np.ndarray]):
    """The (rows, cols, vals) of all parts, summed per (row, col), in row-then-column order."""
    rows, cols, vals = map(np.concatenate, zip(*parts))
    keys, at = np.unique(rows * width + cols, return_inverse=True)
    vals = np.bincount(at, vals.real, len(keys)) + 1j * np.bincount(at, vals.imag, len(keys))
    return keys // width, keys % width, vals


def _apply(op: _SparseOp, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int):
    """``M @ mat`` for ``mat`` given by its entries, each on ``width`` columns:
    an entry in row i becomes column i of M times it, unless M leaves i alone."""
    hit = op.moved[rows]
    src = rows[hit]
    n = op.starts[src + 1] - op.starts[src]
    at = np.arange(n.sum()) + np.repeat(op.starts[src] - np.cumsum(n) + n, n)  # M's columns src
    images = op.rows[at], np.repeat(cols[hit], n), np.repeat(vals[hit], n) * op.coeffs[at]
    return _merge(width, (rows[~hit], cols[~hit], vals[~hit]), images)


def _unitarity_residual(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, width: int) -> float:
    """max |G - I| for the Gram G = B^H B of a block B of ``width`` columns,
    given by its entries in row order: row r of B, conjugated, is column r
    of B^H.  A column without entries has no diagonal entry in G: it reads 1."""
    starts = np.concatenate(([0], np.cumsum(np.bincount(rows))))
    adjoint = _SparseOp(starts, cols, vals.conj(), None, np.ones(len(starts) - 1, dtype=bool))
    keys, gram_cols, gram = _apply(adjoint, rows, cols, vals, width)
    gram[keys == gram_cols] -= 1.0
    return max(float(np.max(np.abs(gram), initial=0.0)), float(np.sum(keys == gram_cols) < width))


def assemble(plan: Plan) -> AssembledUnitary:
    """Dense per-photon matrices for a plan, with per-stage unitarity checks.

    Each op's matrix is its spec's block, built once per distinct spec.
    Column j of a photon's matrix is ``_push``'s final image of basis mode j:
    light an op cannot take is zero from that op on.  A stage's residual,
    max |G - I| for the Gram G of the columns no op of the stage rejects, is
    taken on those its ops move: any other column, and its row, is the unit
    one in every op of the stage, so its Gram row is the identity row.
    Products are (row, col, value) entries that an op rewrites only in the
    rows it moves; a stage's unit columns ride along as extra columns of its
    photon's product, and G is summed from their entries row by row.

    Raises:
        DimensionCap: if the per-photon dimension exceeds ``MAX_PHOTON_DIMENSION``.
        ValueError: an op without a spec (a column built in code).
    """
    dim = plan.space.dimension
    if dim > MAX_PHOTON_DIMENSION:
        raise DimensionCap(f"per-photon dimension {dim} exceeds cap {MAX_PHOTON_DIMENSION}")
    axis = blocks.axis(plan.space)
    built: dict[tuple, _SparseOp] = {}  # one block per distinct spec

    def op_block(cs: CompiledStage, op: CompiledOp) -> _SparseOp:
        if op.spec is None:
            raise ValueError(f"stage {cs.index + 1} ({cs.label}), element {op.label}: no element or gate to assemble")
        key = (op.spec.kind, op.spec.paths, tuple(sorted(op.spec.params.items())))
        if key not in built:
            built[key] = _sparse(*blocks.block(op.spec, axis))
        return built[key]

    diagonal = np.arange(dim)
    totals = {p: (diagonal, diagonal, np.ones(dim, dtype=np.complex128)) for p in PHOTONS}
    records = []
    for cs in plan.stages:
        ops = [op_block(cs, op) for op in cs.ops]
        valid = np.all([sparse.valid for sparse in ops], axis=0)  # no op of the stage rejects it
        unit = np.flatnonzero(valid & np.any([sparse.moved for sparse in ops], axis=0))
        width = dim + len(unit)  # the unit columns are columns dim, dim + 1, ... of the product
        block = unit, np.arange(dim, width), np.ones(len(unit), dtype=np.complex128)
        rows, cols, vals = _merge(width, totals[cs.photon], block)
        for sparse in ops:
            rows, cols, vals = _apply(sparse, rows, cols, vals, width)
        side = cols >= dim
        totals[cs.photon] = rows[~side], cols[~side], vals[~side]
        residual = _unitarity_residual(rows[side], cols[side] - dim, vals[side], len(unit))
        records.append(StageMatrixRecord(cs.index, cs.kind, cs.photon, cs.impl, cs.label, residual))
    dense = {p: np.zeros((dim, dim), dtype=np.complex128) for p in PHOTONS}
    for p, (rows, cols, vals) in totals.items():
        dense[p][rows, cols] = vals
    return AssembledUnitary(space=plan.space, u_a=dense["A"], u_b=dense["B"], records=tuple(records))
