"""Benchmark for bellsim: three workloads, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload cli_session --seed 11 --seconds 30 --trace 0

Workloads (see ``workloads.py``):

- ``cli_session``: the six golden CLI commands plus ``verify``,
  ``stages --input psi-`` and ``run --input phi+`` with
  ``--impl decomposed``, through ``bellsim.cli.main`` in-process.
  Everyday use: small lmax-4 inputs, a compile per input, argument
  parsing and output formatting; no dense code runs.
- ``random_batch``: 1,000 seeded random l=0 input-sector states through
  ``propagate`` -> ``sppm_project`` -> ``classify`` with one plan per
  impl, compiled in set-up.  Per-state propagation and projection take
  nearly all the time; compile and dense code take none.
- ``oracle_sweep``: ``oracle_check`` for both impls at lmax 4, 16 and 32
  with 50 random states.  The only dense workload; its working set grows
  with lmax while the light stays in the same few modes.

Load is a closed loop with one client in one process: each call starts
when the previous one returns.  Caches are warmed before the timed loop.
Passes repeat until about ``--seconds`` have passed.

With ``--trace 0`` the run reports the end-to-end metrics, the same names
on every workload:

- ``setup_s``: median wall time of several fresh interpreters per run
  that import bellsim and run only the workload's set-up (parse fig2,
  read the golden files, compile plans and draw inputs where the
  workload does so outside its timed calls).
- ``pass_ms``: median time of one workload pass (the CLI session; the
  1,000 states through both impls; the full lmax sweep).
- ``canonical_ms`` / ``decomposed_ms``: median time of the workload's
  operation for one impl (``verify`` through the CLI; one state; the
  lmax sweep of ``oracle_check``).

It also prints the workload's own metrics (``session_ms``,
``verify_ms.*``, ``batch_states_per_s.*``, ``oracle_ms.<impl>.l<L>``),
and for every timing its p90 and p99 where at least ten samples lie
beyond them.  Tails are printed, not gated: on a shared 2-core machine
they move by more than any useful bound between identical runs.

With ``--trace 1`` the run repeats each workload's call sequence through
the public layer functions with a span around each call and reports
per-layer metrics: per-call medians of each layer's spans, per-pass self
times of the CLI and analyzer glue, exact counts, and the tracing
overhead (traced over untraced pass time).  A layer the workload never
enters reports 0.

The seed makes the inputs.  Seed 11 is the development seed; seed 29 is
held out for re-checking a performance claim on a seed it was not tuned
on.  Every output operation is checked; failures count in ``failed``.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Results, the machine block
and the spans are also written under ``benchmarks/results/``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from checkout import ROOT, use_checkout_source
from tracing import NullTracer, Tracer, durations

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"
DEV_SEED = 11
HELDOUT_SEED = 29
SETUP_PROBES = 9
LOAD = "closed loop, 1 client, in-process: each call starts when the previous one returns"

LMAXES = (4, 16, 32)
IMPLS = ("canonical", "decomposed")

#: (name, unit) of every per-layer metric, in report order
PER_LAYER = (
    [("circuit.parse_ms", "ms"), ("circuit.validate_ms", "ms"), ("circuit.print_ms", "ms"),
     ("cli.self_ms", "ms"), ("analyzer.self_ms", "ms")]
    + [(f"engine.compile_ms.{i}", "ms") for i in IMPLS]
    + [(f"engine.propagate_us.{i}", "us") for i in IMPLS]
    + [(f"engine.checkpoints_us.{i}", "us") for i in IMPLS]
    + [(f"measurement.project_us.{i}", "us") for i in IMPLS]
    + [(f"engine.assemble_ms.{i}.l{L}", "ms") for i in IMPLS for L in LMAXES]
    + [(f"engine.dense_apply_us.{i}.l{L}", "us") for i in IMPLS for L in LMAXES]
    + [("engine.restrict_us.decomposed", "us")]
    + [(f"engine.dim.l{L}", "count") for L in LMAXES]
    + [(f"engine.ops.{i}", "count") for i in IMPLS]
    + [(f"engine.dense_fill.{i}.l{L}", "ratio") for i in IMPLS for L in LMAXES]
    + [(f"engine.live_mode_ratio.{i}", "ratio") for i in IMPLS]
    + [("state.support", "count"), ("trace.overhead_ratio", "ratio")]
)

#: span name -> (per-layer metric stem, scale from ns); the impl / lmax suffix is kept
_SPAN_METRICS = {
    "circuit.parse": ("circuit.parse_ms", 1e-6),
    "circuit.validate": ("circuit.validate_ms", 1e-6),
    "circuit.print": ("circuit.print_ms", 1e-6),
    "engine.compile": ("engine.compile_ms", 1e-6),
    "engine.propagate": ("engine.propagate_us", 1e-3),
    "engine.checkpoints": ("engine.checkpoints_us", 1e-3),
    "measurement.project": ("measurement.project_us", 1e-3),
    "engine.assemble": ("engine.assemble_ms", 1e-6),
    "engine.dense_apply": ("engine.dense_apply_us", 1e-3),
    "engine.restrict": ("engine.restrict_us", 1e-3),
}


def median(values):
    return statistics.median(values) if values else 0.0


def tails(values) -> str:
    """p90 and p99, each only if at least ten samples lie beyond it."""
    if len(values) < 100:
        return ""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return " ".join(f"p{p} {cuts[p - 1]:.6g}" for p in (90, 99) if len(values) * (100 - p) >= 1000)


def timed_loop(fn, seconds: float) -> None:
    """Call ``fn`` until about ``seconds`` have passed (at least once).

    Another call starts only if it would end nearer the budget than
    stopping now, judged by the median call so far.
    """
    start = time.perf_counter()
    took = []
    while True:
        t = time.perf_counter()
        fn()
        took.append(time.perf_counter() - t)
        if time.perf_counter() - start + statistics.median(took) / 2 >= seconds:
            return


# -- machine block --------------------------------------------------------


def _blas_threads(np) -> int | None:
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for path in glob.glob(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": _blas_threads(np),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
    }


# -- the two kinds of run -------------------------------------------------


def setup_times(workload: str, seed: int, book) -> list[float]:
    """Wall time of fresh interpreters running only the workload's set-up."""
    probe = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    times = []
    for _ in range(SETUP_PROBES):
        book.attempted += 1
        start = time.perf_counter()
        proc = subprocess.run(probe, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0:
            book.fail("set-up probe", (proc.stderr.strip().splitlines() or ["no output"])[-1])
    return times


def end_to_end(wl, seconds: float, book) -> tuple[dict, dict]:
    setup = setup_times(wl.name, wl.seed, book)
    wl.warm(book)
    samples = defaultdict(list)
    timed_loop(lambda: wl.timed_pass(book, samples), seconds)
    ms = {key: [1e3 * t for t in samples[key]] for key in ("pass", "canonical", "decomposed")}
    metrics = {
        "setup_s": (median(setup), "s", setup),
        "pass_ms": (median(ms["pass"]), "ms", ms["pass"]),
        "canonical_ms": (median(ms["canonical"]), "ms", ms["canonical"]),
        "decomposed_ms": (median(ms["decomposed"]), "ms", ms["decomposed"]),
    }
    named = {name: (median(vals), unit, vals) for name, vals, unit in wl.report(samples)}
    return metrics, named


def per_layer(wl, tracer, seconds: float, book) -> dict:
    wl.warm(book)
    wl.prepare_mirror(book)
    null = NullTracer()
    walls = {"untraced": [], "traced": []}
    passes = []

    def pair():
        t = time.perf_counter()
        wl.mirror_pass(null, book)
        walls["untraced"].append(time.perf_counter() - t)
        first = len(tracer.spans)
        t = time.perf_counter()
        wl.mirror_pass(tracer, book)
        walls["traced"].append(time.perf_counter() - t)
        passes.append((first, len(tracer.spans)))

    timed_loop(pair, seconds)

    spans = tracer.spans
    by_name, self_ns = durations(spans)
    samples: dict[str, list[float]] = defaultdict(list)
    for name, took in by_name.items():
        parts = name.split(".")
        if ".".join(parts[:2]) in _SPAN_METRICS:
            metric, scale = _SPAN_METRICS[".".join(parts[:2])]
            samples[".".join([metric, *parts[2:]])] = [scale * t for t in took]
    for first, end in passes:
        roots = [i for i in range(first, end) if spans[i][1] == -1]
        cli = sum(spans[i][3] - spans[i][2] for i in roots if spans[i][0] == "cli.main")
        if cli:
            mirrored = sum(spans[i][3] - spans[i][2] for i in roots if spans[i][0] != "cli.main")
            samples["cli.self_ms"].append(1e-6 * (cli - mirrored))
        glue = sum(self_ns[i] for i in range(first, end) if spans[i][0].startswith("analyzer."))
        samples["analyzer.self_ms"].append(1e-6 * glue)

    counts = wl.counts(LMAXES)
    counts["trace.overhead_ratio"] = median(walls["traced"]) / median(walls["untraced"])
    metrics = {}
    for name, unit in PER_LAYER:
        if name in counts:
            metrics[name] = (counts[name], unit, [counts[name]])
        else:
            vals = samples.get(name, [])
            metrics[name] = (median(vals), unit, vals)
    return metrics


# -- output ---------------------------------------------------------------


def _row(name: str, value: float, unit: str, vals: list) -> str:
    return f"  {name:<34} {value:>14.6g} {unit:<6} n={len(vals):<7} {tails(vals)}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("cli_session", "random_batch", "oracle_sweep"))
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_checkout_source()
    from workloads import WORKLOADS, Book

    book = Book()
    tracer = Tracer() if args.trace else None
    wl = WORKLOADS[args.workload](args.seed, tracer)
    info = machine()
    if args.trace:
        metrics, named = per_layer(wl, tracer, args.seconds, book), {}
    else:
        metrics, named = end_to_end(wl, args.seconds, book)

    header = [
        f"bellsim benchmark: workload {args.workload}, seed {args.seed} "
        f"(development seed {DEV_SEED}, held-out seed {HELDOUT_SEED}), "
        f"trace {args.trace}, {args.seconds:g} s",
        "machine: " + ", ".join(f"{k} {v}" for k, v in info.items()),
        f"load: {LOAD}",
        f"warm-up: {wl.warmup}",
        "metrics (median, then tails with 10+ samples beyond them):",
    ]
    print("\n".join(header))
    for name, (value, unit, vals) in {**metrics, **named}.items():
        print(_row(name, value, unit, vals))
    ratio = book.failed / book.attempted if book.attempted else 1.0
    print(f"  {'fail_ratio':<34} {ratio:>14.6g} {'ratio':<6} n={book.attempted}")
    for message in book.messages:
        print(f"FAILED {message}")

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seeds": {"development": DEV_SEED, "held_out": HELDOUT_SEED},
        "trace": args.trace,
        "seconds": args.seconds,
        "load": LOAD,
        "warmup": wl.warmup,
        "machine": info,
        "metrics": {n: {"value": v, "unit": u, "n": len(vals)}
                    for n, (v, u, vals) in {**metrics, **named}.items()},
        "attempted": book.attempted,
        "failed": book.failed,
        "fail_ratio": ratio,
        "failures": book.messages,
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        spans = {"fields": ["name", "parent", "start_ns", "end_ns"], "spans": tracer.spans}
        Path(f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    print(f"results: {stem.relative_to(ROOT)}.json")

    print(json.dumps({
        "correct": book.failed == 0,
        "attempted": book.attempted,
        "failed": book.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
