"""Circuit model, line-oriented text format, and the stage-kind table.

A circuit document is UTF-8 text:

    # leading comment lines become the circuit description
    lmax 4
    photon A
    photon B
    paths a1 a2 b1 b2
    stage p_cos photon=A paths=a1,b1 q=1/2
    stage sppm photon=A paths=a1

Directives may be preceded/followed by blank lines and ``#`` comments.
``lmax`` (default 4) and the two ``photon`` lines (default A, B) are
optional; ``paths`` must precede any stage that uses them. Stage lines
take ``photon=`` and ``paths=`` plus kind-specific ``key=value`` pairs;
every rejected line gets a line/column diagnostic.

Angles are written either as decimal numbers or as rational multiples of
pi (``pi/8``, ``-pi/4``, ``3pi/4``); the pi forms are preserved exactly
and round-trip through the canonical printer.

Every stage kind is declared once, in ``STAGE_KINDS``, which the parser,
printer, compiler and validator read; every rule a stage must meet is
stated once, in ``stage_problems``: the parser raises the first at its
line and column, ``engine.validate`` reports each, and
``engine.compile_circuit`` refuses the stage.  A stage builds placed
elements; the engine turns them into column functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from fractions import Fraction
from numbers import Integral, Rational
from typing import Callable, NamedTuple

from . import elements as el
from . import gates
from .errors import CircuitSemanticError, CircuitSyntaxError
from .state import DEFAULT_LMAX, POLARIZATIONS, ModeSpace

__all__ = [
    "Stage",
    "Circuit",
    "parse_circuit",
    "print_circuit",
    "builtin_document",
]

#: the two photons every circuit carries, in print order
PHOTONS = ("A", "B")

#: scoped path label for the decomposed OAM-Hadamard interferometer;
#: starts with an underscore so it can never collide with a parsed label
ANCILLA_PATH = "_mzi"


class PiAngle(NamedTuple):
    """An angle stored exactly as a rational multiple of pi."""

    coeff: Fraction


def angle_value(value) -> float:
    """Numeric value (radians) of an angle parameter."""
    if isinstance(value, PiAngle):
        return float(value.coeff) * math.pi
    return float(value)


@dataclass(frozen=True)
class Stage:
    """One placed stage of a circuit."""

    kind: str
    photon: str
    paths: tuple[str, ...]
    params: dict = field(default_factory=dict)
    impl: str = "canonical"

    def header(self) -> str:
        return f"{self.kind} photon={self.photon} paths={','.join(self.paths)}"


@dataclass(frozen=True)
class Circuit:
    """Parsed circuit: declarations plus the ordered stage list."""

    lmax: int
    paths: tuple[str, ...]
    stages: tuple[Stage, ...]
    description: tuple[str, ...] = ()

    def space(self) -> ModeSpace:
        return _space(self.lmax, self.paths)


_space = lru_cache(maxsize=64)(ModeSpace)


# -- stage kinds --------------------------------------------------------


class Param(NamedTuple):
    """One kind-specific key: value type (angle, fraction, int, pol)."""

    key: str
    type: str
    required: bool = True


@dataclass(frozen=True)
class KindSpec:
    """Everything the package knows about one stage kind.

    Attributes:
        arity: exact number of paths, or None for one or more.
        params: kind-specific keys, in canonical print order.
        build: (stage, impl) -> the placed elements the stage compiles to;
            None for the measurement marker, which records a detection
            origin and compiles to no element.
        composite: accepts ``impl=`` (canonical truth table or element
            decomposition).
        sign_domain: the stage only acts on l=+1/-1.
        ancilla: the decomposed form borrows ``ANCILLA_PATH``.
        types: each kind-specific key's value type (``Param.type``).
    """

    name: str
    arity: int | None
    params: tuple[Param, ...]
    build: Callable[[Stage, str], list[el.Element]] | None
    composite: bool = False
    sign_domain: bool = False
    ancilla: bool = False

    @cached_property
    def types(self) -> dict[str, str]:
        return {p.key: p.type for p in self.params}


def _as_element(stage: Stage, impl: str) -> list[el.Element]:
    """The stage as one element of its own kind, its angles in radians."""
    types = STAGE_KINDS[stage.kind].types
    params = {k: angle_value(v) if types[k] == "angle" else v for k, v in stage.params.items()}
    return [el.Element(stage.kind, stage.paths, params)]


def _primitive(name: str, params: tuple[Param, ...], sign_domain: bool = False) -> KindSpec:
    """A kind that compiles to one element; arity is the element's own."""
    arity = 2 if name in el.TWO_PATH_KINDS else None
    return KindSpec(name, arity, params, _as_element, sign_domain=sign_domain)


def _build_p_cos(stage: Stage, impl: str) -> list[el.Element]:
    q = Fraction(stage.params.get("q", Fraction(1, 2)))
    if impl == "canonical":
        return [el.Element("p_cos", stage.paths, {"q": q})]
    return gates.pol_shift_decomposition(q, stage.paths)


def _build_o_cps(stage: Stage, impl: str) -> list[el.Element]:
    if impl == "canonical":
        return [el.oam_sorter(*stage.paths)]
    return gates.path_router_decomposition(*stage.paths)


def _build_oh(stage: Stage, impl: str) -> list[el.Element]:
    if impl == "canonical":
        return _as_element(stage, impl)
    return [e for p in stage.paths for e in gates.oam_hadamard_decomposition(p, ANCILLA_PATH)]


def _build_dp_stage(stage: Stage, impl: str) -> list[el.Element]:
    if impl == "canonical":
        return _as_element(stage, impl)
    return gates.oam_flip_decomposition(stage.paths)


#: every stage kind, in the order diagnostics list them
STAGE_KINDS: dict[str, KindSpec] = {
    spec.name: spec
    for spec in (
        _primitive("qwp", ()),
        _primitive("hwp", (Param("theta", "angle"),)),
        _primitive("qp", (Param("q", "fraction"),)),
        _primitive("spp", (Param("l", "int"),)),
        _primitive("dp", (Param("alpha", "angle"),)),
        _primitive("pp", (Param("phi", "angle"), Param("pol", "pol", False), Param("oam", "int", False))),
        _primitive("mirror", ()),
        _primitive("bs", ()),
        _primitive("pbs", ()),
        _primitive("oam_sorter", (), sign_domain=True),
        _primitive("dl", ()),
        KindSpec("p_cos", None, (Param("q", "fraction", False),), _build_p_cos, composite=True),
        KindSpec("o_cps", 2, (), _build_o_cps, composite=True, sign_domain=True),
        KindSpec("oh", None, (), _build_oh, composite=True, sign_domain=True, ancilla=True),
        KindSpec("dp_stage", None, (), _build_dp_stage, composite=True),
        KindSpec("sppm", 1, (), None, composite=True, sign_domain=True),
    )
}


#: per ``Param.type`` but "pol", the values the parser reads and those that print as text it reads back
_VALUE_TYPES = {"angle": (PiAngle, Integral, float), "fraction": (Rational, float), "int": (Integral,)}

#: an angle's magnitude (rad) must stay below this: past 2**52 consecutive
#: floats are a radian or more apart, and below it 2θ, φ and 2αℓ are finite
MAX_ANGLE = 2.0**52


def _radians(value):
    """An angle's exact value in radians: a float, an int, or a Fraction for
    a ``PiAngle``, so that comparing it with ``MAX_ANGLE`` cannot overflow."""
    return value.coeff * Fraction(math.pi) if isinstance(value, PiAngle) else value


def stage_problems(stage: Stage, declared: tuple[str, ...]):
    """Every rule of its kind that a stage breaks, as (error class, key,
    message): the key whose value the parser points at (``photon``,
    ``paths``, ``impl`` or a parameter), or None where it points at the
    line start (the kind, the path count, a missing key, the 2q rule).

    The parser raises the first at that key's value, ``validate`` reports
    them all, and ``compile_circuit`` raises the first; each adds where
    the stage is, so no message names it.
    """
    spec = STAGE_KINDS.get(stage.kind)
    if spec is None:
        yield CircuitSyntaxError, None, f"unknown stage kind {stage.kind!r}"
    if stage.photon not in PHOTONS:
        yield CircuitSemanticError, "photon", f"unknown photon {stage.photon!r}; expected A or B"
    for p in stage.paths:
        if p not in declared:
            message = f"path {p!r} is not declared (declared: {', '.join(declared) or 'none'})"
            yield CircuitSemanticError, "paths", message
    if spec is None:
        return
    if spec.arity is not None and len(stage.paths) != spec.arity:
        count = ("one path", "two paths")[spec.arity - 1]
        yield CircuitSemanticError, None, f"{stage.kind} needs exactly {count}, got {len(stage.paths)}"
    elif not stage.paths:
        yield CircuitSemanticError, None, f"{stage.kind} needs at least one path"
    elif spec.arity == 2 and stage.paths[0] == stage.paths[1]:
        yield CircuitSemanticError, None, f"{stage.kind} placed on the same path twice ({stage.paths[0]})"
    for p in spec.params:
        if p.required and p.key not in stage.params:
            yield CircuitSyntaxError, None, f"missing required key {p.key}="
    for key, value in stage.params.items():
        tag = spec.types.get(key)
        if tag is None:
            yield CircuitSyntaxError, key, f"unknown key {key!r}"
        elif tag == "pol":
            if value not in POLARIZATIONS:
                yield CircuitSemanticError, key, f"bad polarization {value!r}; expected H or V"
        elif isinstance(value, bool) or not isinstance(value, _VALUE_TYPES[tag]):
            yield CircuitSemanticError, key, f"bad {key} value {value!r}"
        elif tag == "fraction" and (2 * value) % 1:
            yield CircuitSemanticError, None, f"{key} must be an integer or half-integer, got {value}"
        elif tag == "angle" and not abs(_radians(value)) < MAX_ANGLE:
            message = f"{key} must be finite with magnitude below 2**52 rad, got {_format_value(value)}"
            yield CircuitSemanticError, key, message
    if stage.impl not in ("canonical", "decomposed"):
        yield CircuitSemanticError, "impl", f"bad impl {stage.impl!r}; expected canonical or decomposed"
    elif stage.impl != "canonical" and not spec.composite:
        yield CircuitSyntaxError, "impl", "unknown key 'impl'"


# -- parsing ------------------------------------------------------------

_TOKEN_RE = re.compile(r"\S+")
_PATH_RE = re.compile(r"^[A-Za-z][A-Za-z0-9_]*$")
_PI_RE = re.compile(r"^([+-]?)([0-9]+)?pi(?:/([0-9]+))?$")


def label_problems(labels: tuple[str, ...]):
    """Each label of a ``paths`` declaration the parser rejects, as
    (its position, error class, message)."""
    for at, label in enumerate(labels):
        if not _PATH_RE.match(label):
            yield at, CircuitSyntaxError, f"bad path label {label!r}; expected letters/digits/underscore"
        elif label in labels[:at]:
            yield at, CircuitSemanticError, f"duplicate path label {label!r}"


def circuit_problems(circuit: Circuit):
    """Each declaration of a circuit that no text could hold, as a message:
    ``lmax`` an integer (not a bool) of at least 1, ``paths`` a tuple of
    labels ``label_problems`` takes, each stage's ``paths`` a tuple of
    strings and its ``params`` a dict.  Refused, not coerced."""
    if isinstance(circuit.lmax, bool) or not isinstance(circuit.lmax, Integral):
        yield f"lmax must be an integer, got {circuit.lmax!r}"
    elif circuit.lmax < 1:
        yield "lmax must be >= 1"
    if not isinstance(circuit.paths, tuple) or not all(isinstance(label, str) for label in circuit.paths):
        yield f"paths must be a tuple of strings, got {circuit.paths!r}"
    else:
        yield from (message for _, _, message in label_problems(circuit.paths))
    for idx, stage in enumerate(circuit.stages):
        if not isinstance(stage.paths, tuple) or not all(isinstance(label, str) for label in stage.paths):
            yield f"stage {idx + 1}: paths must be a tuple of strings, got {stage.paths!r}"
        if not isinstance(stage.params, dict):
            yield f"stage {idx + 1}: params must be a dict, got {stage.params!r}"


def _tokens(line: str) -> list[tuple[str, int]]:
    """Non-space tokens with their 1-based start columns, comment stripped."""
    cut = line.find("#")
    if cut >= 0:
        line = line[:cut]
    return [(m.group(0), m.start() + 1) for m in _TOKEN_RE.finditer(line)]


#: each number type's reader and parse error
_NUMBERS = {
    "angle": (float, "bad angle {!r}; expected a number or a pi fraction like pi/8"),
    "fraction": (Fraction, "bad fraction {!r}; expected forms like 1/2 or 2"),
    "int": (int, "bad integer {!r}"),
}


def _parse_value(tag: str, text: str, lineno: int, col: int):
    if tag not in _NUMBERS:
        return text  # a pol selector, kept as written: stage_problems checks it
    m = _PI_RE.match(text) if tag == "angle" else None
    if m:
        sign = -1 if m.group(1) == "-" else 1
        num = int(m.group(2)) if m.group(2) else 1
        den = int(m.group(3)) if m.group(3) else 1
        if den == 0:
            raise CircuitSemanticError("zero denominator in angle", lineno, col)
        return PiAngle(Fraction(sign * num, den))
    read, error = _NUMBERS[tag]
    try:
        if not text.isascii() or "_" in text:  # numbers are ASCII digits; read() takes others, and 1_000
            raise ValueError(text)
        return read(text)
    except (ValueError, ZeroDivisionError):
        raise CircuitSyntaxError(error.format(text), lineno, col) from None


def _format_value(value) -> str:
    if isinstance(value, PiAngle):
        sign = "-" if value.coeff < 0 else ""
        coeff = abs(value.coeff)
        num = "" if coeff.numerator == 1 else str(coeff.numerator)
        den = "" if coeff.denominator == 1 else f"/{coeff.denominator}"
        return f"{sign}{num}pi{den}"
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _parse_stage(tokens: list[tuple[str, int]], lineno: int, declared: tuple[str, ...]) -> Stage:
    """Read a stage line, then raise its first ``stage_problems`` at the
    column of the value that breaks it, or at the line start.  Only what
    needs the text is checked here: the token shapes, the kind and each key
    (a value is read by its key's type), duplicate keys, value syntax, and
    that ``photon=`` and ``paths=`` are given."""
    if len(tokens) < 2:
        raise CircuitSyntaxError(
            "missing stage kind; expected one of: " + ", ".join(STAGE_KINDS),
            lineno,
            tokens[0][1] + len(tokens[0][0]),
        )
    kind, kind_col = tokens[1]
    if kind not in STAGE_KINDS:
        raise CircuitSyntaxError(
            f"unknown stage kind {kind!r}; expected one of: " + ", ".join(STAGE_KINDS),
            lineno,
            kind_col,
        )
    spec = STAGE_KINDS[kind]
    allowed = set(spec.types) | {"photon", "paths"} | ({"impl"} if spec.composite else set())

    fields: dict = {}  # photon, paths and impl, as Stage's keyword arguments
    params: dict = {}
    value_cols: dict[str, int] = {}
    for text, col in tokens[2:]:
        if "=" not in text:
            raise CircuitSyntaxError(
                f"expected key=value, got {text!r}", lineno, col
            )
        key, _, raw = text.partition("=")
        if key not in allowed:
            raise CircuitSyntaxError(
                f"unknown key {key!r} for stage {kind}; expected one of: "
                + ", ".join(sorted(allowed)),
                lineno,
                col,
            )
        if key in value_cols:
            raise CircuitSyntaxError(f"duplicate key {key!r}", lineno, col)
        value_cols[key] = col + len(key) + 1
        if key == "paths":
            if not all(raw.split(",")):
                raise CircuitSyntaxError(
                    f"bad path list {raw!r}; expected comma-separated labels",
                    lineno,
                    value_cols[key],
                )
            fields[key] = tuple(raw.split(","))
        elif key in spec.types:
            params[key] = _parse_value(spec.types[key], raw, lineno, value_cols[key])
        else:
            fields[key] = raw

    start = tokens[0][1]
    for key in ("photon", "paths"):
        if key not in fields:
            raise CircuitSyntaxError(f"missing required key {key}=", lineno, start)
    stage = Stage(kind, params=params, **fields)
    for cls, key, message in stage_problems(stage, declared):  # raise the first
        raise cls(message, lineno, value_cols.get(key, start))
    return stage


def parse_circuit(text: str) -> Circuit:
    """Parse a circuit document.

    Raises:
        CircuitSyntaxError: token-level problems, with line/column and the
            expected tokens.
        CircuitSemanticError: well-formed lines with invalid content
            (undeclared path, unknown photon, out-of-range parameter).
    """
    lmax: int | None = None
    paths: tuple[str, ...] | None = None
    photons_seen: list[str] = []
    stages: list[Stage] = []
    description: list[str] = []
    in_preamble = True

    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if in_preamble and stripped.startswith("#"):
            description.append(stripped.lstrip("#").strip())
            continue
        toks = _tokens(line)
        if not toks:
            continue
        in_preamble = False
        head, head_col = toks[0]

        if head == "lmax":
            if lmax is not None:
                raise CircuitSemanticError("duplicate lmax directive", lineno, head_col)
            if len(toks) != 2:
                raise CircuitSyntaxError("expected: lmax <positive integer>", lineno, head_col)
            value = _parse_value("int", toks[1][0], lineno, toks[1][1])
            if value < 1:
                raise CircuitSemanticError("lmax must be >= 1", lineno, toks[1][1])
            lmax = value
        elif head == "photon":
            if len(toks) != 2:
                raise CircuitSyntaxError("expected: photon <A|B>", lineno, head_col)
            label, col = toks[1]
            if label not in PHOTONS:
                raise CircuitSemanticError(
                    f"unknown photon {label!r}; expected A or B", lineno, col
                )
            if label in photons_seen:
                raise CircuitSemanticError(f"duplicate photon {label}", lineno, col)
            if label == "B" and "A" not in photons_seen:
                raise CircuitSemanticError("photon B declared before photon A", lineno, col)
            photons_seen.append(label)
        elif head == "paths":
            if paths is not None:
                raise CircuitSemanticError("duplicate paths directive", lineno, head_col)
            if len(toks) < 2:
                raise CircuitSyntaxError("expected: paths <label> [<label> ...]", lineno, head_col)
            paths = tuple(label for label, _ in toks[1:])
            for at, cls, message in label_problems(paths):  # raise the first
                raise cls(message, lineno, toks[1 + at][1])
        elif head == "stage":
            stages.append(_parse_stage(toks, lineno, paths or ()))
        else:
            raise CircuitSyntaxError(
                f"unknown directive {head!r}; expected one of: lmax, photon, paths, stage",
                lineno,
                head_col,
            )

    while description and not description[-1]:
        description.pop()
    return Circuit(
        lmax=lmax if lmax is not None else DEFAULT_LMAX,
        paths=paths or (),
        stages=tuple(stages),
        description=tuple(description),
    )


# -- canonical printing -------------------------------------------------


def print_circuit(circuit: Circuit) -> str:
    """Canonical serialization; parse(print(parse(x))) == parse(x).

    Raises:
        ValueError: a parameter named ``impl`` (it would print as the
            stage's own ``impl=``), or a description line that would parse
            back otherwise: one with a line break, with leading or trailing
            whitespace, or an empty last line.
    """
    out: list[str] = []
    for at, line in enumerate(circuit.description, start=1):
        # the parser splits lines, strips each comment and drops trailing empty ones
        if "".join(line.splitlines()) != line or line != line.strip() or (at == len(circuit.description) and not line):
            raise ValueError(f"description line {line!r} holds a line break, leading or trailing whitespace, "
                             "or is empty and last: it would not parse back as written")
        out.append(f"# {line}" if line else "#")
    out.append(f"lmax {circuit.lmax}")
    for photon in PHOTONS:
        out.append(f"photon {photon}")
    if circuit.paths:
        out.append("paths " + " ".join(circuit.paths))
    for stage in circuit.stages:
        if "impl" in stage.params:  # it would print as the stage's own impl=
            raise ValueError(f"stage {stage.header()}: a parameter named 'impl' cannot be printed")
        parts = [f"stage {stage.kind}", f"photon={stage.photon}", f"paths={','.join(stage.paths)}"]
        order = [p.key for p in STAGE_KINDS[stage.kind].params]
        order += sorted(k for k in stage.params if k not in order)
        parts += [f"{k}={_format_value(stage.params[k])}" for k in order if k in stage.params]
        if stage.impl != "canonical":
            parts.append(f"impl={stage.impl}")
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


# -- built-in circuits --------------------------------------------------

FIG2_NAME = "fig2"

_FIG2_TEXT = """\
# Deterministic polarization Bell-state analyzer over OAM and path modes.
# Photon A enters on a1/b1 and photon B on a2/b2.
lmax 4
photon A
photon B
paths a1 a2 b1 b2
stage p_cos photon=A paths=a1,b1 q=1/2
stage p_cos photon=B paths=a2,b2 q=1/2
stage o_cps photon=A paths=a1,b1
stage o_cps photon=B paths=a2,b2
stage dp_stage photon=B paths=a2,b2
stage oh photon=A paths=a1,b1
stage oh photon=B paths=a2,b2
stage hwp photon=A paths=a1,b1 theta=pi/8
stage hwp photon=B paths=a2,b2 theta=pi/8
stage sppm photon=A paths=a1
stage sppm photon=A paths=b1
stage sppm photon=B paths=a2
stage sppm photon=B paths=b2
"""

BUILTIN_CIRCUITS: dict[str, str] = {FIG2_NAME: _FIG2_TEXT}


def builtin_document(name: str) -> str:
    """Text of a built-in circuit document (KeyError if unknown)."""
    return BUILTIN_CIRCUITS[name]
