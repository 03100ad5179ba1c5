"""The three workloads: their set-up, timed passes, and traced mirrors.

Every workload drives bellsim through its public API only
(``bellsim.__all__`` and ``bellsim.cli.main``) and checks the output of
every call it times.  Each has:

- a constructor, which is the set-up that ``setup_s`` times: parse the
  built-in fig2 circuit and prepare what the timed calls take (the
  golden files; the compiled plans and seeded states; the lmax
  variants of fig2);
- ``warm``: untimed calls that fill caches before the timed loop;
- ``timed_pass``: one pass of public calls, each timed and checked;
- ``prepare_mirror`` and ``mirror_pass``: the same call sequence
  repeated through the public layer functions (parse, validate,
  compile, propagate, assemble, apply, restrict, project, classify)
  with a span around each call, the composed results compared with the
  public calls' results.

Samples are seconds.  The keys ``pass``, ``canonical`` and
``decomposed`` feed the end-to-end metrics every workload reports.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import random
import time
from functools import partial

import numpy as np

import bellsim as bs
from bellsim.cli import main as cli_main

from checkout import GOLDEN
from tracing import NullTracer

IMPLS = ("canonical", "decomposed")
TOL = 1e-10
FIG2 = bs.builtin_document("fig2")
#: detector origins of photons A and B in fig2, as the table is keyed
ORIGINS = (("a1", "b1"), ("a2", "b2"))


class Mismatch(Exception):
    """A traced composition disagrees with the public call's result."""


class Book:
    """Counts every checked operation and every failure; drops none."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def fail(self, what: str, problem: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(f"{what}: {problem}")

    def run(self, what: str, fn, check, *args):
        """Time ``fn(*args)``; count it, and count it failed if it raises
        or ``check(result)`` returns a problem.  Returns (result, seconds)."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args)
        except (Exception, SystemExit) as exc:  # a failed op is counted, not fatal
            elapsed = time.perf_counter() - start
            self.fail(what, f"{type(exc).__name__}: {exc}")
            return None, elapsed
        elapsed = time.perf_counter() - start
        problem = check(result) if check is not None else None
        if problem:
            self.fail(what, problem)
        return result, elapsed


def _sector_modes() -> list[tuple[bs.BasisMode, bs.BasisMode]]:
    """The 16 (mode_A, mode_B) pairs of the l=0 input sector."""
    return [
        (bs.BasisMode(pol_a, 0, x), bs.BasisMode(pol_b, 0, y))
        for x in ORIGINS[0]
        for y in ORIGINS[1]
        for pol_a in ("H", "V")
        for pol_b in ("H", "V")
    ]


def random_inputs(seed: int, n: int, space: bs.ModeSpace) -> list[bs.TwoPhotonState]:
    """``n`` seeded random unit vectors in the l=0 input sector."""
    sector = _sector_modes()
    rng = np.random.default_rng(seed)
    vecs = rng.standard_normal((n, len(sector))) + 1j * rng.standard_normal((n, len(sector)))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    return [bs.TwoPhotonState(space, dict(zip(sector, map(complex, v)))) for v in vecs]


def _ms(seconds: list[float]) -> list[float]:
    return [1e3 * t for t in seconds]


def _sum_problem(dist: bs.OutcomeDistribution) -> str | None:
    total = sum(dist.probs.values())
    if abs(total - 1.0) > TOL:
        return f"distribution sums to {total!r}"
    return None


def _meas_impl(plan: bs.Plan, impl: str | None) -> str:
    # mirrors the analyzer: an override wins, else any decomposed sppm stage
    if impl is not None:
        return impl
    return "decomposed" if "decomposed" in plan.sppm_impl.values() else "canonical"


def _project(plan: bs.Plan, state: bs.TwoPhotonState, impl: str) -> bs.OutcomeDistribution:
    return bs.sppm_project(state, plan.origins["A"], plan.origins["B"], impl)


def _classify_all(dist: bs.OutcomeDistribution) -> list[str]:
    return [bs.classify(p) for p in dist.support()]


def _state_diff(x: bs.TwoPhotonState, y: bs.TwoPhotonState) -> float:
    keys = x.amplitudes.keys() | y.amplitudes.keys()
    return max((abs(x.amplitudes.get(k, 0.0) - y.amplitudes.get(k, 0.0)) for k in keys), default=0.0)


class Workload:
    name = ""
    #: what ``warm`` does, printed with the results
    warmup = ""

    def __init__(self, seed: int, tracer=None) -> None:
        self.seed = seed
        self.tr = tracer or NullTracer()
        self.circuit = self.tr.call("circuit.parse", bs.parse_circuit, FIG2)
        self.supports: list[int] = []
        self.dense_fill: dict[str, float] = {}

    def counts(self, lmaxes) -> dict[str, float]:
        """Exact counts: the program's structure at fig2, and what the
        mirrored passes saw (final support sizes, dense fill)."""
        counts: dict[str, float] = {
            f"engine.dim.l{L}": dataclasses.replace(self.circuit, lmax=L).space().dimension
            for L in lmaxes
        }
        for impl in IMPLS:
            plan = bs.compile_circuit(self.circuit, impl)
            counts[f"engine.ops.{impl}"] = sum(len(cs.ops) for cs in plan.stages)
            live = set()
            for label in bs.BELL_LABELS:
                state = bs.prepare_input(label, self.circuit.space())
                final, marks = bs.propagate_with_checkpoints(plan, state)
                for st in (state, final, *marks.values()):
                    for pair in st.amplitudes:
                        live.update(pair)
            counts[f"engine.live_mode_ratio.{impl}"] = len(live) / plan.space.dimension
        counts.update({f"engine.dense_fill.{k}": v for k, v in self.dense_fill.items()})
        counts["state.support"] = sum(self.supports) / len(self.supports) if self.supports else 0.0
        return counts

    def _measure(self, tr, tag, plan, state, impl):
        out = tr.call(f"engine.propagate.{tag}", bs.propagate, plan, state)
        self.supports.append(len(out.amplitudes))
        return out, tr.call(f"measurement.project.{tag}", _project, plan, out, impl)


# -- cli_session ----------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expect: str  # golden output, or for golden=False a line the output must hold
    golden: bool
    role: str = ""  # "canonical" / "decomposed": feeds that end-to-end metric

    @property
    def kind(self) -> str:
        return self.argv[0]

    def flag(self, name: str) -> str | None:
        return self.argv[self.argv.index(name) + 1] if name in self.argv else None


def _cli(argv: tuple[str, ...]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _cli_problem(cmd: Command, result) -> str | None:
    code, out, err = result
    if code != 0 or err:
        return f"exit {code}, stderr {err!r}"
    if cmd.golden and out != cmd.expect:
        return "output differs from the golden file"
    if not cmd.golden and cmd.expect not in out.splitlines():
        return f"output lacks the line {cmd.expect!r}"
    return None


class CliSession(Workload):
    """The CLI golden commands plus three decomposed commands, in-process.

    The seed fixes the order of the commands within each pass.
    """

    name = "cli_session"
    warmup = "1 untimed session pass before the timed loop"

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.rng = random.Random(seed)
        golden = [
            ("run_phi_plus.txt", ("run", "--input", "phi+"), ""),
            ("run_phi_plus.json", ("run", "--input", "phi+", "--format", "json"), ""),
            ("verify.txt", ("verify",), "canonical"),
            ("stages_psi_minus.txt", ("stages", "--input", "psi-"), ""),
            ("describe_fig2.txt", ("describe",), ""),
            ("export_table.txt", ("export-table",), ""),
        ]
        self.commands = [
            Command(argv, (GOLDEN / name).read_text(encoding="utf-8"), True, role)
            for name, argv, role in golden
        ] + [
            Command(("verify", "--impl", "decomposed"),
                    "PASS: accuracy 1.000000000000 over 4 inputs", False, "decomposed"),
            Command(("stages", "--input", "psi-", "--impl", "decomposed"),
                    "all checkpoints within 1e-10: yes", False),
            Command(("run", "--input", "phi+", "--impl", "decomposed"),
                    "success probability: 1.000000000000", False),
        ]

    def _call(self, book: Book, cmd: Command):
        return book.run(" ".join(cmd.argv), _cli, partial(_cli_problem, cmd), cmd.argv)

    def warm(self, book: Book) -> None:
        for cmd in self.commands:
            self._call(book, cmd)

    def timed_pass(self, book: Book, samples) -> None:
        total = 0.0
        for cmd in self.rng.sample(self.commands, len(self.commands)):
            _, elapsed = self._call(book, cmd)
            total += elapsed
            if cmd.role:
                samples[cmd.role].append(elapsed)
        samples["pass"].append(total)

    def report(self, samples) -> list[tuple[str, list[float], str]]:
        """The workload's own metrics as (name, samples in unit, unit)."""
        return [
            ("session_ms", _ms(samples["pass"]), "ms"),
            ("verify_ms.canonical", _ms(samples["canonical"]), "ms"),
            ("verify_ms.decomposed", _ms(samples["decomposed"]), "ms"),
        ]

    # -- traced mirror --

    def prepare_mirror(self, book: Book) -> None:
        """Results of the public calls each mirrored command composes."""
        self.expected = {}
        for cmd in self.commands:
            impl, label = cmd.flag("--impl"), cmd.flag("--input")
            if cmd.kind == "run":
                fn, args = bs.analyze, (label, impl)
            elif cmd.kind == "verify":
                fn, args = bs.verify, (impl,)
            elif cmd.kind == "stages":
                fn, args = bs.stage_states, (label, impl)
            else:
                continue
            self.expected[cmd.argv], _ = book.run(f"public {cmd.kind}", fn, None, *args)

    def mirror_pass(self, tr, book: Book) -> None:
        for cmd in self.rng.sample(self.commands, len(self.commands)):
            with tr.span("cli.main"):
                self._call(book, cmd)
            book.run(f"mirror {' '.join(cmd.argv)}", self._mirror, None, tr, cmd)

    def _mirror(self, tr, cmd: Command) -> None:
        circuit = tr.call("circuit.parse", bs.parse_circuit, FIG2)
        impl, label = cmd.flag("--impl"), cmd.flag("--input")
        expected = self.expected.get(cmd.argv)
        if cmd.kind == "run":
            with tr.span("analyzer.analyze"):
                dist = self._analyze(tr, circuit, label, impl)
            if dist.probs != expected.probs:
                raise Mismatch("distribution differs from analyze()")
        elif cmd.kind == "verify":
            with tr.span("analyzer.verify"):
                rows, disjoint, cover = self._verify(tr, circuit, impl)
            want = [
                (r.label, r.success_probability, r.support_size, r.max_deviation, r.misclassified)
                for r in expected.rows
            ]
            if (rows, disjoint, cover) != (want, expected.disjoint, expected.cover):
                raise Mismatch("grading differs from verify()")
        elif cmd.kind == "stages":
            with tr.span("analyzer.stage_states"):
                tag = impl or "canonical"
                plan = tr.call(f"engine.compile.{tag}", bs.compile_circuit, circuit, impl)
                state = bs.prepare_input(label, circuit.space())
                final, marks = tr.call(
                    f"engine.checkpoints.{tag}", bs.propagate_with_checkpoints, plan, state
                )
                self.supports.append(len(final.amplitudes))
                fids = [bs.fidelity(marks[r.checkpoint], r.reference) for r in expected]
            for rec, fid in zip(expected, fids):
                if marks[rec.checkpoint].amplitudes != rec.state.amplitudes or fid != rec.fidelity:
                    raise Mismatch(f"checkpoint {rec.checkpoint} differs from stage_states()")
        elif cmd.kind == "describe":
            with tr.span("circuit.describe"):
                text = tr.call("circuit.print", bs.print_circuit, circuit)
                report = tr.call("circuit.validate", bs.validate, circuit)
            if text + "-- validation --\n" + str(report) + "\n" != cmd.expect or not report.ok:
                raise Mismatch("canonical text or validation differs from the golden file")
        else:
            with tr.span("analyzer.classification_rows"):
                rows = [(p, bs.classify(p)) for p in bs.enumerate_patterns(*ORIGINS)]
            if "".join(f"{p}  {lab}\n" for p, lab in rows) != cmd.expect:
                raise Mismatch("table rows differ from the golden file")

    def _analyze(self, tr, circuit, label, impl):
        tag = impl or "canonical"  # fig2's stages default to canonical
        plan = tr.call(f"engine.compile.{tag}", bs.compile_circuit, circuit, impl)
        state = bs.prepare_input(label, circuit.space())
        _, dist = self._measure(tr, tag, plan, state, _meas_impl(plan, impl))
        return dist

    def _verify(self, tr, circuit, impl):
        # the grading loop of analyzer.verify
        rows, supports = [], []
        for label in bs.BELL_LABELS:
            dist = self._analyze(tr, circuit, label, impl)
            support = dist.support()
            supports.append(set(support))
            success, deviation, missed = 0.0, 0.0, []
            for pattern, p in dist.items_ordered():
                got = bs.CLASSIFICATION_TABLE.get(pattern)
                if got == label:
                    success += p
                else:
                    missed.append((pattern, got if got is not None else "?"))
                deviation = max(deviation, abs(p - 1.0 / 16.0))
            rows.append((label, success, len(support), deviation, tuple(missed)))
        union = set().union(*supports)
        disjoint = len(union) == sum(len(s) for s in supports)
        return rows, disjoint, union == set(bs.CLASSIFICATION_TABLE)


# -- random_batch ---------------------------------------------------------


class RandomBatch(Workload):
    """1,000 seeded random input-sector states through one plan per impl."""

    name = "random_batch"
    n_states = 1000
    warmup = "the first 50 states through each impl, untimed, before the timed loop"

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        self.plans = {
            impl: self.tr.call(f"engine.compile.{impl}", bs.compile_circuit, self.circuit, impl)
            for impl in IMPLS
        }
        self.states = random_inputs(seed, self.n_states, self.circuit.space())

    def _op(self, plan, impl, state):
        dist = _project(plan, bs.propagate(plan, state), impl)
        return dist, _classify_all(dist)

    @staticmethod
    def _problem(reference, result) -> str | None:
        dist, _labels = result
        problem = _sum_problem(dist)
        if problem is None and reference is not None and dist.tvd(reference) > TOL:
            problem = f"canonical vs decomposed TVD {dist.tvd(reference):.3e}"
        return problem

    def _batch(self, book: Book, samples, states) -> list:
        canonical = []
        for impl in IMPLS:
            plan, total = self.plans[impl], 0.0
            for i, state in enumerate(states):
                ref = canonical[i] if impl == "decomposed" else None
                check = partial(self._problem, ref)
                result, elapsed = book.run(f"{impl} state {i}", self._op, check, plan, impl, state)
                if impl == "canonical":
                    canonical.append(result[0] if result else None)
                if samples is not None:
                    samples[impl].append(elapsed)
                total += elapsed
            if samples is not None:
                samples[f"batch.{impl}"].append(total)
        return canonical

    def warm(self, book: Book) -> None:
        self._batch(book, None, self.states[:50])

    def timed_pass(self, book: Book, samples) -> None:
        self._batch(book, samples, self.states)
        samples["pass"].append(samples["batch.canonical"][-1] + samples["batch.decomposed"][-1])

    def report(self, samples):
        return [
            (f"batch_states_per_s.{impl}",
             [self.n_states / t for t in samples[f"batch.{impl}"]], "1/s")
            for impl in IMPLS
        ]

    # -- traced mirror --

    def prepare_mirror(self, book: Book) -> None:
        self.expected = {}
        for impl in IMPLS:
            plan = self.plans[impl]
            self.expected[impl] = [
                book.run(f"public {impl} state {i}", self._op, None, plan, impl, s)[0]
                for i, s in enumerate(self.states)
            ]

    def mirror_pass(self, tr, book: Book) -> None:
        for impl in IMPLS:
            plan = self.plans[impl]
            for i, state in enumerate(self.states):
                book.run(f"mirror {impl} state {i}", self._mirror, None, tr, plan, impl, i, state)

    def _mirror(self, tr, plan, impl, i, state) -> None:
        _, dist = self._measure(tr, impl, plan, state, impl)
        labels = tr.call("analyzer.classify", _classify_all, dist)
        want = self.expected[impl][i]
        if want is None or (dist.probs, labels) != (want[0].probs, want[1]):
            raise Mismatch("traced composition differs from the untraced calls")


# -- oracle_sweep ---------------------------------------------------------


class OracleSweep(Workload):
    """``oracle_check`` for both impls at three OAM bounds."""

    name = "oracle_sweep"
    lmaxes = (4, 16, 32)
    n_random = 50
    warmup = "oracle_check at lmax 4 for each impl, untimed, before the timed loop"

    def __init__(self, seed: int, tracer=None) -> None:
        super().__init__(seed, tracer)
        # oracle_check compiles and draws its inputs itself, inside the timed call
        self.circuits = {L: dataclasses.replace(self.circuit, lmax=L) for L in self.lmaxes}

    def _problem(self, report) -> str | None:
        if not report.ok or report.states_checked != 4 + self.n_random:
            return f"oracle report not ok: {report.to_json_dict()}"
        return None

    def _check(self, book: Book, impl: str, L: int):
        return book.run(
            f"oracle_check {impl} l{L}", bs.oracle_check, self._problem,
            impl, self.circuits[L], self.n_random, self.seed,
        )

    def warm(self, book: Book) -> None:
        for impl in IMPLS:
            self._check(book, impl, self.lmaxes[0])

    def timed_pass(self, book: Book, samples) -> None:
        total = 0.0
        for impl in IMPLS:
            sweep = 0.0
            for L in self.lmaxes:
                _, elapsed = self._check(book, impl, L)
                samples[f"oracle.{impl}.l{L}"].append(elapsed)
                sweep += elapsed
            samples[impl].append(sweep)
            total += sweep
        samples["pass"].append(total)

    def report(self, samples):
        return [
            (f"oracle_ms.{impl}.l{L}", _ms(samples[f"oracle.{impl}.l{L}"]), "ms")
            for impl in IMPLS
            for L in self.lmaxes
        ]

    # -- traced mirror --

    def prepare_mirror(self, book: Book) -> None:
        self.expected = {
            (impl, L): self._check(book, impl, L)[0] for impl in IMPLS for L in self.lmaxes
        }
        self.inputs = {
            L: [bs.prepare_input(label, c.space()) for label in bs.BELL_LABELS]
            + random_inputs(self.seed, self.n_random, c.space())
            for L, c in self.circuits.items()
        }

    def mirror_pass(self, tr, book: Book) -> None:
        for impl in IMPLS:
            for L in self.lmaxes:
                book.run(f"mirror oracle_check {impl} l{L}", self._mirror, None, tr, impl, L)

    def _mirror(self, tr, impl: str, L: int) -> None:
        # the body of analyzer.oracle_check, one span per layer call
        with tr.span("analyzer.oracle_check"):
            plan = tr.call(f"engine.compile.{impl}", bs.compile_circuit, self.circuits[L], impl)
            dense = tr.call(f"engine.assemble.{impl}.l{L}", bs.assemble, plan)
            residual = max((r.unitarity_residual for r in dense.records), default=0.0)
            worst_state = worst_tvd = 0.0
            for state in self.inputs[L]:
                sparse_out, dist_sparse = self._measure(tr, impl, plan, state, impl)
                applied = tr.call(f"engine.dense_apply.{impl}.l{L}", dense.apply, state)
                dense_out = tr.call(
                    f"engine.restrict.{impl}", bs.restrict_to_circuit, plan, applied, "dense oracle output"
                )
                worst_state = max(worst_state, _state_diff(sparse_out, dense_out))
                dist_dense = tr.call(f"measurement.project.{impl}", _project, plan, dense_out, impl)
                worst_tvd = max(worst_tvd, dist_sparse.tvd(dist_dense))
        dim = plan.space.dimension
        self.dense_fill[f"{impl}.l{L}"] = (
            np.count_nonzero(dense.u_a) + np.count_nonzero(dense.u_b)
        ) / (2 * dim * dim)
        # the random draw is the workload's own, so only the fields that do
        # not depend on it must match exactly; the others must pass the same tol
        want = self.expected[(impl, L)]
        if want is None or (len(self.inputs[L]), residual) != (want.states_checked, want.max_unitarity_residual):
            raise Mismatch("states checked or unitarity residual differs from oracle_check()")
        if max(worst_state, worst_tvd, residual) > want.tol:
            raise Mismatch(f"mirrored oracle exceeds tol: state {worst_state:.3e}, tvd {worst_tvd:.3e}")


WORKLOADS = {w.name: w for w in (CliSession, RandomBatch, OracleSweep)}
