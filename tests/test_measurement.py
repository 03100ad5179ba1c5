import math
import re

import numpy as np
import pytest

from bellsim import measurement
from bellsim.analyzer import BELL_LABELS, analyze, prepare_input, random_input_states
from bellsim.circuit import builtin_document, parse_circuit
from bellsim.engine import assemble, compile_circuit, propagate, restrict_to_circuit
from bellsim.errors import CalibrationFailure, LeakedAmplitude, OamOverflow, UnknownPath, UnsortableOam
from bellsim.measurement import (
    CoincidencePattern,
    DetectorId,
    OutcomeDistribution,
    detectors_for_origins,
    enumerate_patterns,
    sppm_project,
)
from bellsim.state import BasisMode, ModeSpace, TwoPhotonState
from test_circuit import READOUT_CASES

SPACE = ModeSpace(lmax=4, paths=("a1", "a2", "b1", "b2", "c", "d"))


def _pair(sa, pa, oa, sb, pb, ob):
    return (BasisMode(pa, sa, oa), BasisMode(pb, sb, ob))


# -- identifiers --------------------------------------------------------


def test_detector_enumeration_order():
    dets = detectors_for_origins(("b1", "a1"))
    assert [str(d) for d in dets[:4]] == [
        "D[-1,H,a1]",
        "D[+1,H,a1]",
        "D[-1,V,a1]",
        "D[+1,V,a1]",
    ]
    assert len(dets) == 8
    patterns = enumerate_patterns(("a1", "b1"), ("a2", "b2"))
    assert len(patterns) == 64
    assert str(patterns[0]) == "D[-1,H,a1] & D[-1,H,a2]"
    assert str(patterns[-1]) == "D[+1,V,b1] & D[+1,V,b2]"
    # photon A is the major (outer) axis: B's detectors cycle fastest
    assert str(patterns[1]) == "D[-1,H,a1] & D[+1,H,a2]"
    assert str(patterns[8]) == "D[+1,H,a1] & D[-1,H,a2]"


# -- distributions ------------------------------------------------------


def _uniform_dist():
    patterns = enumerate_patterns(("a1",), ("a2",))
    return OutcomeDistribution(
        ("a1",), ("a2",), {p: 1 / 16 for p in patterns}
    )


def test_distribution_must_sum_to_one():
    patterns = enumerate_patterns(("a1",), ("a2",))
    with pytest.raises(ValueError):
        OutcomeDistribution(("a1",), ("a2",), {patterns[0]: 0.5})
    with pytest.raises(ValueError):
        OutcomeDistribution(
            ("a1",), ("a2",), {patterns[0]: 1.5, patterns[1]: -0.5}
        )


def test_distribution_accessors():
    dist = _uniform_dist()
    patterns = enumerate_patterns(("a1",), ("a2",))
    assert dist.probability(patterns[3]) == pytest.approx(1 / 16)
    assert len(dist.support()) == 16
    assert dist.tvd(dist) == 0.0


def test_tvd_counts_the_keys_of_both_sides():
    patterns = enumerate_patterns(("a1",), ("a2",))
    first = OutcomeDistribution(("a1",), ("a2",), {patterns[0]: 0.5, patterns[1]: 0.5})
    second = OutcomeDistribution(("a1",), ("a2",), {patterns[1]: 0.5, patterns[2]: 0.5})
    assert first.tvd(second) == second.tvd(first) == 0.5
    disjoint = OutcomeDistribution(("a1",), ("a2",), {patterns[2]: 1.0})
    assert first.tvd(disjoint) == disjoint.tvd(first) == 1.0


def test_a_distribution_built_from_a_dict_holds_pattern_ids_until_probs_is_read():
    patterns = enumerate_patterns(("a1", "b1"), ("a2", "b2"))
    probs = {patterns[9]: 0.25, patterns[2]: 0.75}
    dist = OutcomeDistribution(["a1", "b1"], ("a2", "b2"), probs)
    assert "probs" not in vars(dist) and dist._pairs == ([9, 2], [0.25, 0.75])
    assert dist.support() == (patterns[2], patterns[9]) and dist.origins_a == ("a1", "b1")
    assert list(dist.probs.items()) == list(probs.items())


def test_tvd_refuses_distributions_behind_different_origins():
    first = _uniform_dist()
    other = OutcomeDistribution(("b1",), ("a2",), {p: 1 / 16 for p in enumerate_patterns(("b1",), ("a2",))})
    with pytest.raises(ValueError, match="behind different origins"):
        first.tvd(other)
    with pytest.raises(ValueError, match="behind different origins"):
        other.tvd(first)


def test_distribution_refuses_a_pattern_no_detector_behind_its_origins_reads():
    """Such a pattern would sum into ``probs`` and be missing from ``support()``."""
    unread = CoincidencePattern(DetectorId(1, "H", "zz"), DetectorId(1, "H", "a2"))
    with pytest.raises(ValueError, match=r"^no detector behind origins \('a1', 'b1'\) and \('a2', 'b2'\) reads "):
        OutcomeDistribution(("a1", "b1"), ("a2", "b2"), {unread: 1.0})
    read = enumerate_patterns(("a1",), ("a2",))[0]
    with pytest.raises(ValueError, match="reads D\\[-1,H,a1\\] & D\\[-1,H,a2\\]$"):
        OutcomeDistribution(("b1",), ("a2",), {read: 1.0})


# -- projection ---------------------------------------------------------


def test_direct_projection_reads_born_weights():
    amps = {
        _pair(1, "H", "a1", 1, "H", "a2"): math.sqrt(0.25),
        _pair(-1, "V", "b1", 1, "H", "b2"): math.sqrt(0.75),
    }
    st = TwoPhotonState(SPACE, amps)
    dist = sppm_project(st, ("a1", "b1"), ("a2", "b2"))
    assert dist.probability(
        CoincidencePattern(DetectorId(1, "H", "a1"), DetectorId(1, "H", "a2"))
    ) == pytest.approx(0.25)
    assert dist.probability(
        CoincidencePattern(DetectorId(-1, "V", "b1"), DetectorId(1, "H", "b2"))
    ) == pytest.approx(0.75)


def test_projection_rejects_unmeasured_path():
    st = TwoPhotonState(SPACE, {_pair(1, "H", "c", 1, "H", "a2"): 1.0})
    with pytest.raises(LeakedAmplitude):
        sppm_project(st, ("a1", "b1"), ("a2", "b2"))


def test_projection_rejects_unsortable_oam():
    st = TwoPhotonState(SPACE, {_pair(0, "H", "a1", 1, "H", "a2"): 1.0})
    with pytest.raises(UnsortableOam):
        sppm_project(st, ("a1", "b1"), ("a2", "b2"))


_GOOD = _pair(1, "H", "a1", 1, "H", "a2")
_A_OFF = _pair(1, "H", "c", 1, "H", "a2")
_B_OFF = _pair(1, "H", "a1", -1, "V", "d")
_A_L0 = _pair(0, "H", "a1", 1, "H", "a2")
_B_L0 = _pair(1, "V", "b1", 0, "V", "b2")
_A_L0_B_OFF = _pair(0, "H", "a1", 1, "H", "d")
_LEAK_A = "photon A amplitude {} on path 'c', outside the measured origins ('a1', 'b1')"
_LEAK_B = "photon B amplitude {} on path 'd', outside the measured origins ('a2', 'b2')"
_L0 = "photon {} amplitude on l=+0 at {!r}; the sorter blocks only resolve l=+1/-1"

#: (pairs with amplitudes 0.6 then 0.8, error, text): the first pair in dict
#: order that is out of reach is reported, photon A before photon B
_READOUT_ERRORS = [
    ([_A_OFF], LeakedAmplitude, _LEAK_A.format("6.000e-01+0.000e+00j")),
    ([_GOOD, _B_OFF], LeakedAmplitude, _LEAK_B.format("8.000e-01+0.000e+00j")),
    ([_A_L0], UnsortableOam, _L0.format("A", "a1")),
    ([_GOOD, _B_L0], UnsortableOam, _L0.format("B", "b2")),
    ([_A_L0_B_OFF], UnsortableOam, _L0.format("A", "a1")),
    ([_B_OFF, _A_L0], LeakedAmplitude, _LEAK_B.format("6.000e-01+0.000e+00j")),
]


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
@pytest.mark.parametrize(
    "pairs,error,text",
    _READOUT_ERRORS,
    ids=["A-off", "B-off", "A-l0", "B-l0", "A-l0-before-B-off", "earlier-B-off"],
)
def test_readout_error_names_the_first_photon_out_of_reach(impl, pairs, error, text):
    amps = dict(zip(pairs, (0.6 + 0.0j, 0.8 + 0.0j)))
    with pytest.raises(error) as info:
        sppm_project(TwoPhotonState(SPACE, amps), ("a1", "b1"), ("a2", "b2"), impl)
    assert type(info.value) is error
    assert str(info.value) == text


def _random_measurable(rng):
    keys = [
        _pair(sa, pa, oa, sb, pb, ob)
        for oa in ("a1", "b1")
        for ob in ("a2", "b2")
        for sa in (1, -1)
        for sb in (1, -1)
        for pa in ("H", "V")
        for pb in ("H", "V")
    ]
    vec = rng.standard_normal(len(keys)) + 1j * rng.standard_normal(len(keys))
    vec /= np.linalg.norm(vec)
    return TwoPhotonState(SPACE, dict(zip(keys, map(complex, vec))))


def test_decomposed_projection_matches_direct():
    """Routing through explicit PBS + sorters must reproduce the direct
    Born readout exactly, pattern by pattern."""
    rng = np.random.default_rng(0x5EED)
    for _ in range(25):
        st = _random_measurable(rng)
        direct = sppm_project(st, ("a1", "b1"), ("a2", "b2"), impl="canonical")
        routed = sppm_project(st, ("a1", "b1"), ("a2", "b2"), impl="decomposed")
        assert direct.probs == routed.probs


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_readout_is_abs_squared_to_the_last_bit(impl):
    """Each probability is ``abs(a) ** 2`` of its pair's amplitude, in the
    state's key order: ``np.abs(a) ** 2``, ``a * a.conjugate()`` and
    ``re² + im²`` each differ from it in the last bit on some of these states."""
    plan = compile_circuit(parse_circuit(builtin_document("fig2")), impl)
    origins_a, origins_b = plan.origins["A"], plan.origins["B"]
    table = {
        (BasisMode(p.det_a.pol, p.det_a.oam_sign, p.det_a.origin),
         BasisMode(p.det_b.pol, p.det_b.oam_sign, p.det_b.origin)): p
        for p in enumerate_patterns(origins_a, origins_b)
    }
    for state in random_input_states(200, 0xB175, plan.circuit.space()):
        out = propagate(plan, state)
        probs = sppm_project(out, origins_a, origins_b, impl).probs
        want = {table[pair]: abs(a) ** 2 for pair, a in out.amplitudes.items()}
        assert [(k, p.hex()) for k, p in probs.items()] == [(k, p.hex()) for k, p in want.items()]


def _readout(plan, state, impl):
    """``sppm_project`` at the plan's origins: each probability's pattern and
    bits in order, the support, and the distribution; or the error's type and text."""
    try:
        dist = sppm_project(state, plan.origins["A"], plan.origins["B"], impl)
    except (LeakedAmplitude, UnsortableOam) as exc:
        return type(exc), str(exc)
    return [(k, p.hex()) for k, p in dist.probs.items()], dist.support(), dist


def _dict_tvd(x, y):
    """Total variation distance summed over the two ``probs`` dicts, in their order."""
    ps, qs = x.probs, y.probs
    only_other = sum(q for k, q in qs.items() if k not in ps)
    return 0.5 * (sum(abs(p - qs.get(k, 0.0)) for k, p in ps.items()) + only_other)


def _first_missing(state, space):
    """``check_mode``'s error for the first mode of ``state`` that ``space``
    lacks, in key order, photon A before B, as type and text; else None."""
    for mode in (m for pair in state.amplitudes for m in pair):
        try:
            space.check_mode(mode)
        except (OamOverflow, UnknownPath) as exc:
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
@pytest.mark.parametrize("case", ["fig2", *READOUT_CASES])
def test_index_and_dict_built_states_read_out_alike(case, impl):
    """``propagate`` and the constructor hold the same pairs as mode indices
    and build ``amplitudes`` only on first read, in the dict's order; the two
    read out to the same bits, order, support and distribution, and raise
    the same error where no detector reads a pair.  ``with_space`` into a
    space lacking a mode raises for the first in key order.  The oracle's
    sparse and dense readouts have the ``tvd`` of the dict formula, bit for bit."""
    text, _, error = (builtin_document("fig2"), None, None) if case == "fig2" else READOUT_CASES[case]
    plan = compile_circuit(parse_circuit(text), impl)
    space = plan.circuit.space()
    smaller = ModeSpace(1, tuple(reversed(space.paths))), ModeSpace(space.lmax, space.paths[1:])
    inputs = [prepare_input(label, space) for label in BELL_LABELS]
    inputs += random_input_states(200, 0x1D5, space)
    errors = set()
    for state, applied in zip(inputs, assemble(plan).apply_all(inputs)):
        out = propagate(plan, state)
        assert "amplitudes" not in vars(out)  # built on first read, after this readout
        got = _readout(plan, out, impl)
        amps = dict(out.amplitudes)
        built = TwoPhotonState(space, amps)
        assert "amplitudes" not in vars(built) and built._pairs == out._pairs
        assert list(built.amplitudes.items()) == list(amps.items())
        assert got == _readout(plan, built, impl)
        errors.add(got[0] if isinstance(got[0], type) else None)
        for target in smaller:
            missing = _first_missing(out, target)
            try:
                moved = out.with_space(target)
            except (OamOverflow, UnknownPath) as exc:
                assert (type(exc), str(exc)) == missing
            else:
                assert missing is None and list(moved.amplitudes.items()) == list(amps.items())
        if isinstance(got[0], type):
            continue
        dense = _readout(plan, restrict_to_circuit(plan, applied, "dense oracle output"), impl)[2]
        for x, y in ((got[2], dense), (dense, got[2])):
            assert x.tvd(y).hex() == _dict_tvd(x, y).hex()
    assert errors == {error}


@pytest.mark.parametrize("impl", ["canonical", "decomposed"])
def test_empty_state_projection_raises_the_same_error(impl):
    with pytest.raises(ValueError, match=r"^probabilities sum to 0, not 1$"):
        sppm_project(TwoPhotonState(SPACE, {}), ("a1", "b1"), ("a2", "b2"), impl)


def test_projection_bad_impl():
    st = TwoPhotonState(SPACE, {_pair(1, "H", "a1", 1, "H", "a2"): 1.0})
    with pytest.raises(ValueError):
        sppm_project(st, ("a1", "b1"), ("a2", "b2"), impl="magic")


# -- the decomposed readout's routing table --------------------------------


@pytest.fixture
def fresh_routes():
    """Clear the per-origin routing cache around a test that patches it."""
    measurement._routes.cache_clear()
    yield
    measurement._routes.cache_clear()


@pytest.mark.parametrize("origin", ["a1", "b1", "a2", "b2"])
def test_routing_table_sends_each_mode_to_its_own_port(origin):
    routes = measurement._routes(origin)
    assert len(routes) == 4
    for mode, terms in routes.items():
        assert mode.path == origin and mode.oam in (1, -1)
        assert len(terms) == 1
        port, coeff = terms[0]
        assert port == DetectorId(mode.oam, mode.pol, origin)
        assert coeff == 1 + 0j and type(coeff) is complex


def _swapped_port_map(real):
    def swapped(origin):
        ports = real(origin)
        h, v = BasisMode("H", 1, origin), BasisMode("V", 1, measurement._scoped(origin)[1])
        ports[h], ports[v] = ports[v], ports[h]
        return ports

    return swapped


def test_swapped_port_map_fails_calibration(monkeypatch, fresh_routes):
    monkeypatch.setattr(measurement, "_port_map", _swapped_port_map(measurement._port_map))
    st = TwoPhotonState(SPACE, {_pair(1, "H", "a1", 1, "H", "a2"): 1.0})
    assert sppm_project(st, ("a1", "b1"), ("a2", "b2"), impl="canonical").probability(
        CoincidencePattern(DetectorId(1, "H", "a1"), DetectorId(1, "H", "a2"))
    ) == 1.0
    with pytest.raises(CalibrationFailure, match="deviates from direct readout"):
        sppm_project(st, ("a1", "b1"), ("a2", "b2"), impl="decomposed")


def test_port_map_missing_a_port_leaks(monkeypatch, fresh_routes):
    real = measurement._port_map

    def missing(origin):
        ports = real(origin)
        del ports[BasisMode("H", -1, measurement._scoped(origin)[0])]
        return ports

    monkeypatch.setattr(measurement, "_port_map", missing)
    st = TwoPhotonState(SPACE, {_pair(-1, "H", "a1", 1, "H", "a2"): 1.0})
    with pytest.raises(LeakedAmplitude, match="missed every detector port"):
        sppm_project(st, ("a1", "b1"), ("a2", "b2"), impl="decomposed")


def test_every_measured_origin_is_calibrated_not_only_the_touched_ones(monkeypatch, fresh_routes):
    real = measurement._port_map

    def swapped_at_b1(origin):
        return _swapped_port_map(real)(origin) if origin == "b1" else real(origin)

    monkeypatch.setattr(measurement, "_port_map", swapped_at_b1)
    # the state lies only on a1/a2, yet b1 is a measured origin with a wrong table
    st = TwoPhotonState(SPACE, {_pair(1, "H", "a1", -1, "V", "a2"): 1.0})
    with pytest.raises(CalibrationFailure, match="deviates from direct readout"):
        sppm_project(st, ("a1", "b1"), ("a2", "b2"), impl="decomposed")


def test_sppm_stages_pick_the_readout_impl_when_none_is_forced(monkeypatch, fresh_routes):
    text = builtin_document("fig2")
    circuit = parse_circuit(re.sub(r"^(stage sppm .*)$", r"\1 impl=decomposed", text, flags=re.M))
    assert set(compile_circuit(circuit).sppm_impl.values()) == {"decomposed"}
    monkeypatch.setattr(measurement, "_port_map", _swapped_port_map(measurement._port_map))
    with pytest.raises(CalibrationFailure, match="deviates from direct readout"):
        analyze("phi+", None, circuit)
    assert analyze("phi+", "canonical", circuit).probs == analyze("phi+").probs
