"""The dense oracle's blocks are a second statement of the physics.

``bellsim.blocks`` must not reach the column functions the sparse engine
runs, so a wrong phase in an element's action shows up as a disagreement
between the two evolutions instead of being copied into both.  The
Dove-prism mutant here is the one a CI step builds with ``sed``: the
``1j`` of ``elements._flip`` (the Dove prism, and the mirror) written as
``-1j``.  The canonical gates' truth tables sit in ``ACTIONS`` beside the
elements, and each is mutated here too.
"""

import ast
import pathlib

import pytest

from bellsim import blocks, elements
from bellsim.analyzer import oracle_check
from bellsim.circuit import parse_circuit
from bellsim.elements import ACTIONS, qp_shift

# p_cos lifts both photons to l=+1/-1 so the sorter blocks can read them;
# its canonical and decomposed forms hold no Dove prism, so the dp stage
# is the only one the mutant reaches
_ONE_DOVE_PRISM = parse_circuit(
    "paths a1 a2 b1 b2\n"
    "stage p_cos photon=A paths=a1,b1\n"
    "stage p_cos photon=B paths=a2,b2\n"
    "stage dp photon=A paths=a1 alpha=pi/8\n"
)


def _imports():
    """(module, name) of every import in the blocks module; name is None for ``import x``."""
    tree = ast.parse(pathlib.Path(blocks.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from ((alias.name, None) for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            yield from ((module, alias.name) for alias in node.names)


def test_blocks_import_no_column_function():
    imports = set(_imports())
    names = {name for _, name in imports if name}
    assert "ACTIONS" not in names
    assert not {name for name in names if "column" in name}
    package = {module for module, _ in imports if module.startswith(".") or module.startswith("bellsim")}
    assert package == {".state"}  # no elements, gates, circuit or engine


def test_every_op_kind_has_a_block():
    assert set(blocks.BLOCKS) == set(ACTIONS)


@pytest.fixture
def flipped_dove_prism(monkeypatch):
    flip = elements._flip
    monkeypatch.setattr(elements, "_flip", lambda alpha: lambda mode: [(m, -c) for m, c in flip(alpha)(mode)])


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_oracle_passes_the_dove_prism_circuit(impl):
    assert oracle_check(impl, _ONE_DOVE_PRISM, n_random=5).ok


def test_oracle_catches_a_flipped_dove_prism_in_decomposed_fig2(flipped_dove_prism):
    """fig2's canonical plan holds no Dove prism; its decomposed dp_stage does."""
    report = oracle_check("decomposed", n_random=5)
    assert not report.ok
    assert report.max_state_difference >= 0.1


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_oracle_catches_a_flipped_dove_prism_stage(flipped_dove_prism, impl):
    report = oracle_check(impl, _ONE_DOVE_PRISM, n_random=5)
    assert not report.ok
    assert report.max_state_difference >= 0.1


def _flipped_shift(element, space):
    """p_cos with the sign of its shift flipped: H loses 2q, V gains it."""
    shift = qp_shift(element.params["q"])
    return elements._shift(space, "pol-controlled shift", -shift, shift)


def _negated_on_positive_l(kind):
    """``kind``'s action with each image of a mode at l > 0 negated."""
    action = ACTIONS[kind]

    def make(element, space):
        act = action(element, space)
        return lambda mode: [(m, -c if mode.oam > 0 else c) for m, c in act(mode)]

    return make


def test_oracle_passes_canonical_fig2():
    assert oracle_check("canonical").ok


@pytest.mark.parametrize(
    "kind,mutant",
    [
        ("p_cos", lambda: _flipped_shift),
        ("oh", lambda: _negated_on_positive_l("oh")),
        ("dp_stage", lambda: _negated_on_positive_l("dp_stage")),
    ],
)
def test_oracle_catches_a_mutated_canonical_gate_in_fig2(monkeypatch, kind, mutant):
    """The canonical tables are elements now, and ``blocks`` still restates each apart."""
    monkeypatch.setitem(ACTIONS, kind, mutant())
    report = oracle_check("canonical")
    assert not report.ok
    assert report.max_state_difference >= 0.1
