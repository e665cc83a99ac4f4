"""Full pipeline: levels, bases, layouts, stats, determinism."""
import hashlib
import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.strategies import sampled_from

from quantir import topology
from quantir.bench import random_circuit as bench_circuit
from quantir.bis import encode
from quantir.circuit import (Circuit, Instruction, depth, flatten, gate_counts,
                             split_trailing_measures)
from quantir.gates import CLS_2Q, GateKind
from quantir.sabre import Layout, SabreConfig
from quantir.sim import routed_fidelity
from quantir.dag import CircuitDag
from quantir.passes import (BASES, cancel_adjacent_inverses, decompose_to_basis,
                            expand_swaps, merge_adjacent_rotations)
from quantir.sabre import _best_trial
from quantir.transpile import (LEVELS, TranspileConfig, TranspileError,
                               TranspileResult, TranspileStats, preprocess,
                               transpile)

from conftest import (check_routing, circuits, count_routes, count_walks,
                      fresh_copy, shared_copy, turn_angles)

# the package re-exports the function ``transpile`` under the module's name
transpile_mod = importlib.import_module("quantir.transpile")

PI = math.pi


def coupled(circuit, graph):
    return all(graph.has_edge(*ins.qubits) for ins in circuit.body
               if ins.kind.opclass == CLS_2Q)


def random_circuit(n, length, seed, p2=0.4):
    rng = random.Random(seed)
    c = Circuit(n)
    for _ in range(length):
        if rng.random() < p2 and n >= 2:
            a, b = rng.sample(range(n), 2)
            c.append_gate(rng.choice([GateKind.CNOT, GateKind.CZ,
                                      GateKind.SWAP]), (a, b))
        else:
            q = rng.randrange(n)
            roll = rng.random()
            if roll < 0.5:
                c.append_gate(rng.choice([GateKind.RX, GateKind.RY,
                                          GateKind.RZ]), (q,),
                              (rng.uniform(-3, 3),))
            else:
                c.append_gate(rng.choice([GateKind.H, GateKind.X, GateKind.S,
                                          GateKind.T, GateKind.X1]), (q,))
    return c


# -- config validation ---------------------------------------------------------

def test_config_defaults():
    cfg = TranspileConfig()
    assert cfg.level == 1 and cfg.basis == "none" and cfg.seed == 0
    assert cfg.routing == SabreConfig()
    assert cfg.sabre() is cfg.routing


@pytest.mark.parametrize("kwargs", [
    {"level": 3}, {"level": -1}, {"basis": "clifford"},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(TranspileError):
        TranspileConfig(**kwargs)


@pytest.mark.parametrize("level", [True, 2.0, "2"])
def test_config_rejects_a_level_that_is_no_integer(level):
    with pytest.raises(TranspileError, match="level must be one of"):
        TranspileConfig(level=level)


def test_config_takes_a_numpy_level():
    assert TranspileConfig(level=np.int64(2)).level == 2


# -- preprocess ------------------------------------------------------------------

def test_preprocess_flattens_and_keeps_basis_none():
    inner = Circuit(2).cnot(0, 1)
    c = Circuit(2).h(0).sub(inner)
    out = preprocess(c, TranspileConfig())
    assert [i.kind for i in out.body] == [GateKind.H, GateKind.CNOT]


def test_preprocess_lowers_off_basis_gates_only():
    c = Circuit(2).rz(0, 0.5).cz(0, 1).h(1)
    out = preprocess(c, TranspileConfig(basis="rz-x1-cz"))
    body = out.body
    assert body[0] == flatten(c).body[0]          # RZ untouched
    assert body[1].kind is GateKind.CZ            # CZ untouched
    assert [i.kind for i in body[2:]] == [GateKind.RZ, GateKind.X1, GateKind.RZ]


def test_preprocess_rejects_mid_circuit_measure():
    c = Circuit(2, 2).h(0).measure(0, 0).x(1)
    with pytest.raises(TranspileError, match="measurement must be final"):
        preprocess(c, TranspileConfig())


def test_preprocess_accepts_trailing_measures():
    c = Circuit(2, 2).h(0).cnot(0, 1).measure(0, 0).measure(1, 1)
    out = preprocess(c, TranspileConfig())
    assert len(out.body) == 4


# -- level behavior on showcase circuits ----------------------------------------

def test_adjacent_rotations_survive_level_0():
    c = Circuit(1).rz(0, 0.3).rz(0, 0.4)
    res = transpile(c, topology.linear(2), TranspileConfig(level=0))
    kinds = [i.kind for i in res.circuit.body]
    assert kinds == [GateKind.RZ, GateKind.RZ]
    assert [i.params[0] for i in res.circuit.body] == [0.3, 0.4]


@pytest.mark.parametrize("level", [1, 2])
def test_adjacent_rotations_merge_at_level_1_and_2(level):
    c = Circuit(1).rz(0, 0.3).rz(0, 0.4)
    res = transpile(c, topology.linear(2), TranspileConfig(level=level))
    body = res.circuit.body
    assert len(body) == 1
    assert body[0].kind is GateKind.RZ
    assert body[0].qubits == (0,)
    assert body[0].params[0] == pytest.approx(0.7)


def test_adjacent_swap_pair_removed_at_level_2():
    c = Circuit(2).swap(0, 1).swap(0, 1)
    res = transpile(c, topology.linear(2), TranspileConfig(level=2))
    assert res.circuit.body == []
    assert res.initial_layout == Layout.identity(2)
    assert res.final_layout == Layout.identity(2)


@pytest.mark.parametrize("level", [0, 1])
def test_adjacent_swap_pair_survives_below_level_2(level):
    c = Circuit(2).swap(0, 1).swap(0, 1)
    res = transpile(c, topology.linear(2), TranspileConfig(level=level))
    assert gate_counts(res.circuit).get(GateKind.SWAP, 0) == 2


# -- semantics across levels, bases, topologies ----------------------------------

GRAPHS = {
    "linear": topology.linear(5),
    "square": topology.square(5),
    "full": topology.full(5),
    "random": topology.random_topology(5, extra_edge_fraction=0.4, seed=2),
}


@pytest.mark.parametrize("graph", GRAPHS.values(), ids=GRAPHS.keys())
@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("basis", ["none", "rz-x1-cz", "rz-rx-cnot"])
def test_pipeline_preserves_semantics(graph, level, basis):
    c = random_circuit(5, 16, seed=level * 7 + len(graph.edges))
    cfg = TranspileConfig(level=level, basis=basis, seed=3)
    res = transpile(c, graph, cfg)
    assert coupled(res.circuit, graph)
    if basis != "none":
        allowed = ({GateKind.RZ, GateKind.X1, GateKind.CZ}
                   if basis == "rz-x1-cz"
                   else {GateKind.RZ, GateKind.RX, GateKind.CNOT})
        assert all(ins.kind in allowed for ins in res.circuit.body)
    fid = routed_fidelity(c, res.circuit, list(res.initial_layout),
                          list(res.final_layout))
    assert fid > 1 - 1e-9


def test_optimized_levels_never_add_gates():
    for seed in range(6):
        c = random_circuit(5, 20, seed=seed)
        sizes = {}
        for level in (0, 1, 2):
            res = transpile(c, GRAPHS["linear"],
                            TranspileConfig(level=level, seed=0))
            sizes[level] = len(res.circuit.body)
        assert sizes[1] <= sizes[0]
        assert sizes[2] <= sizes[1]


# -- measurements -----------------------------------------------------------------

def test_measures_retargeted_through_final_layout():
    c = Circuit(3, 3).cnot(0, 2).cnot(0, 1)
    c.measure(0, 0).measure(1, 1).measure(2, 2)
    res = transpile(c, topology.linear(3), TranspileConfig(level=0, seed=1))
    tail = res.circuit.body[-3:]
    assert all(ins.kind is GateKind.MEASURE for ins in tail)
    for logical, ins in enumerate(tail):
        assert ins.cbit == logical
        assert ins.qubits == (res.final_layout.phys(logical),)
    fid = routed_fidelity(c, res.circuit, list(res.initial_layout),
                          list(res.final_layout))
    assert fid > 1 - 1e-9


def test_measure_only_circuit():
    c = Circuit(2, 2).measure(0, 0).measure(1, 1)
    res = transpile(c, topology.linear(2), TranspileConfig(level=2))
    assert [i.kind for i in res.circuit.body] == [GateKind.MEASURE] * 2
    assert res.initial_layout == Layout.identity(2)


# -- stats ------------------------------------------------------------------------

def test_stats_fields_consistent():
    c = Circuit(3).cnot(0, 2).cnot(1, 2).cnot(0, 1)
    res = transpile(c, topology.linear(3), TranspileConfig(level=0, seed=0))
    st = res.stats
    assert isinstance(st, TranspileStats)
    assert st.depth_before == depth(flatten(c))
    assert st.depth_after == depth(res.circuit)
    assert st.two_q_count == sum(1 for i in res.circuit.body
                                 if i.kind.opclass == CLS_2Q)
    assert st.swaps_inserted == gate_counts(res.circuit).get(GateKind.SWAP, 0)
    assert st.two_q_depth <= st.depth_after
    assert st.two_q_depth >= 1
    assert st.elapsed > 0


def test_stats_two_q_depth_counts_only_two_qubit_layers():
    c = Circuit(2).h(0).h(1).cnot(0, 1).h(0).cnot(0, 1)
    res = transpile(c, topology.linear(2), TranspileConfig(level=0))
    assert res.stats.two_q_depth == 2
    assert res.stats.depth_after == 4


# test-local copies of the loops the two-qubit stats were written as
def _ref_two_q_count(c):
    return sum(1 for ins in c.body if ins.kind.opclass == CLS_2Q)


def _ref_two_q_depth(c):
    wire = [0] * c.num_qubits
    d = 0
    for ins in c.body:
        if ins.kind.opclass == CLS_2Q:
            a, b = ins.qubits
            nxt = max(wire[a], wire[b]) + 1
            wire[a] = wire[b] = nxt
            d = max(d, nxt)
    return d


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=4, max_len=30, measures=True),
       sampled_from(LEVELS), sampled_from(BASES))
def test_stats_two_q_match_reference_loops(c, level, basis):
    res = transpile(c, topology.linear(c.num_qubits),
                    TranspileConfig(level=level, basis=basis))
    assert res.stats.two_q_count == _ref_two_q_count(res.circuit)
    assert res.stats.two_q_depth == _ref_two_q_depth(res.circuit)


def test_empty_circuit():
    res = transpile(Circuit(2), topology.linear(2), TranspileConfig(level=2))
    assert res.circuit.body == []
    assert res.circuit.num_qubits == 2
    assert res.stats.depth_before == 0
    assert res.stats.depth_after == 0
    assert res.stats.two_q_count == 0
    assert res.stats.swaps_inserted == 0


def test_wide_circuit_rejected():
    from quantir.sabre import RoutingError
    with pytest.raises(RoutingError):
        transpile(Circuit(4).h(0), topology.linear(2))


# -- determinism -------------------------------------------------------------------

@pytest.mark.parametrize("basis", ["none", "rz-x1-cz", "rz-rx-cnot"])
def test_transpile_deterministic_to_the_byte(basis):
    c = random_circuit(5, 24, seed=13)
    cfg = TranspileConfig(level=2, basis=basis, seed=5)
    r1 = transpile(c, GRAPHS["square"], cfg)
    r2 = transpile(c, GRAPHS["square"], cfg)
    assert encode(r1.circuit) == encode(r2.circuit)
    assert r1.initial_layout == r2.initial_layout
    assert r1.final_layout == r2.final_layout
    assert r1.stats.swaps_inserted == r2.stats.swaps_inserted


def test_seed_changes_can_change_layout():
    c = random_circuit(5, 24, seed=13)
    layouts = {tuple(transpile(c, GRAPHS["linear"],
                               TranspileConfig(seed=s)).initial_layout)
               for s in range(6)}
    assert len(layouts) > 1


# -- routing replay at device width ------------------------------------------------

@pytest.mark.parametrize("name", ["heavy_hex:5", "square:49"])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_route_replays_to_the_routed_dag_at_device_width(monkeypatch, name, level):
    # the 12-qubit statevector oracle cannot check these widths; the replay can
    kind, n = name.split(":")
    graph = topology.build(kind, int(n))
    width = graph.num_qubits
    c = random_circuit(width, 4 * width, seed=level)
    c.barrier(*range(0, width, 3))
    c.extend(random_circuit(width, width, seed=level + 10).body)
    for q in range(width):
        c.measure(q, q)
    routes = []
    real = transpile_mod._best_trial

    def spy(dag, *args):
        initial, routed, final = real(dag, *args)
        snapshot = Circuit(routed.num_qubits, routed.num_cbits)
        snapshot.extend(routed.body)
        routes.append((dag.circuit, initial, snapshot, final))
        return initial, routed, final

    monkeypatch.setattr(transpile_mod, "_best_trial", spy)
    res = transpile(c, graph, TranspileConfig(level=level))
    (routed_input, initial, routed, final), = routes
    check_routing(routed_input, graph, routed, initial, final)
    assert initial == res.initial_layout and final == res.final_layout
    assert coupled(res.circuit, graph)


def test_winning_trial_route_is_not_recomputed(monkeypatch):
    # also count a direct call from the pipeline, should one come back
    calls = count_routes(monkeypatch, transpile_mod)
    cfg = TranspileConfig(routing=SabreConfig(layout_trials=3))
    transpile(random_circuit(5, 40, seed=2), GRAPHS["linear"], cfg)
    assert len(calls) == 3 * 3  # forward, reverse, forward per trial; no extra route


def test_swap_free_first_route_ends_the_layout_search(monkeypatch):
    calls = count_routes(monkeypatch)
    cfg = TranspileConfig(level=2, routing=SabreConfig(layout_trials=4))
    res = transpile(random_circuit(6, 60, seed=3), topology.full(6), cfg)
    # on a complete graph the first route inserts no SWAP, and it is kept
    assert len(calls) == 1
    assert res.stats.swaps_inserted == 0


# The long multi-swap fronts of a deep circuit on a large sparse device: the
# README's router case.  The digest covers the encoded output and both
# layouts; it was taken before candidate deltas were kept across swaps.
GOLDEN_HEAVY_HEX = "a8e43490469d565a80ea0296f0514ae05dbb649b043f4162a1c430b712681d9c"


def test_golden_heavy_hex_depth_60_level_2():
    res = transpile(bench_circuit(57, 60, seed=0), topology.heavy_hex(5),
                    TranspileConfig(level=2))
    assert res.stats.swaps_inserted == 2644
    assert res.stats.depth_after == 783
    h = hashlib.sha256(encode([res.circuit]))
    h.update(repr((list(res.initial_layout), list(res.final_layout))).encode())
    assert h.hexdigest() == GOLDEN_HEAVY_HEX


# -- golden lowering output ------------------------------------------------------
# sha256 of the encoded output plus both layouts, for every level and both
# native bases, on a device that needs SWAPs (so ``expand_swaps`` and the
# post-route cancellation see routing SWAPs) and on a complete graph.  The
# input holds every gate kind, daggered gates, a daggered sub-circuit, a
# barrier, repeated two-qubit gates and a trailing measure on every wire.

LOWERING_DEVICES = {"linear:8": lambda: topology.linear(8),
                    "full:10": lambda: topology.full(10)}

GOLDEN_LOWERING = {
    "linear:8/0/rz-x1-cz":
        "0ef33d2b93a2a39f814ef3e04feb65cf09bf44671ad9ca18f470af63580681a9",
    "linear:8/0/rz-rx-cnot":
        "1c93ef69930c9b5530a7c8fdebbe4bb416f11719ea847ef8a0069a67963e7336",
    "linear:8/1/rz-x1-cz":
        "901b65e09095e61016f19b8c2e4a5a8e6465acb087a168886fcc24c31bf89860",
    "linear:8/1/rz-rx-cnot":
        "3100e1969739e515d928d944a680a6a426ea252a3844c46078f3d24f06ccedd4",
    "linear:8/2/rz-x1-cz":
        "1db8b5c40e875e4720ca877cabe38bdb7e3c596fdf17d831c792943143ef1dc7",
    "linear:8/2/rz-rx-cnot":
        "0368fe3571f88756608c518a7f85f1d0743b761ed8ac1dad6ad57c5ea02ce4e7",
    "full:10/0/rz-x1-cz":
        "8d7a2228462ab3ad769285993adbaf2a175cd9abfb50fabc26b020fdd5745e71",
    "full:10/0/rz-rx-cnot":
        "f8b8544cfe7e485c2053919c1dcbf576280986f69d73bc92fbae299fc87f1e3d",
    "full:10/1/rz-x1-cz":
        "37192ddd9de63092ffd1b83e8c1aa11027877c18c02bce69932e2f1a82f49788",
    "full:10/1/rz-rx-cnot":
        "7b2a610d19eb6c1cde3b01dc990c3fa27cdc2cc0f650af79ca2d2d805f433afd",
    "full:10/2/rz-x1-cz":
        "ffca0a4d5cbc7ae870bd1925c2b99207c3061024875f5fd91b391a1c70fb2031",
    "full:10/2/rz-rx-cnot":
        "95e3af4a5c119fc1208a37503b6f869d9e23c628200899a7f745a85335db7e8f",
}


def _lowering_circuit(n: int, length: int, seed: int) -> Circuit:
    rng = random.Random(seed)
    paramless = [GateKind.I, GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                 GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG,
                 GateKind.X1]

    def fill(c, count):
        for _ in range(count):
            roll = rng.random()
            dagger = rng.random() < 0.2
            if roll < 0.4:
                a, b = rng.sample(range(n), 2)
                kind = rng.choice([GateKind.CNOT, GateKind.CZ, GateKind.SWAP])
                # some gates twice in a row, so level 2 has pairs to cancel
                for _ in range(2 if rng.random() < 0.25 else 1):
                    c.append_gate(kind, (a, b), dagger=dagger)
            elif roll < 0.7:
                c.append_gate(rng.choice(paramless), (rng.randrange(n),),
                              dagger=dagger)
            elif roll < 0.9:
                c.append_gate(rng.choice([GateKind.RX, GateKind.RY,
                                          GateKind.RZ]), (rng.randrange(n),),
                              (rng.choice([PI / 2, -PI / 2, PI, 0.3, -1.1]),),
                              dagger=dagger)
            elif roll < 0.97:
                c.append_gate(GateKind.U3, (rng.randrange(n),),
                              tuple(rng.uniform(-3, 3) for _ in range(3)),
                              dagger=dagger)
            else:
                c.barrier(*rng.sample(range(n), rng.randint(1, n)))
        return c

    c = fill(Circuit(n), length // 2)
    c.sub(fill(Circuit(n), 8), dagger=True)
    fill(c, length - length // 2)
    for q in range(n):
        c.measure(q, q)
    return c


def _lowering_cases():
    for device in LOWERING_DEVICES:
        for level in (0, 1, 2):
            for basis in ("rz-x1-cz", "rz-rx-cnot"):
                yield f"{device}/{level}/{basis}"


def _lowering_run(case: str) -> str:
    device, level, basis = case.split("/")
    graph = LOWERING_DEVICES[device]()
    width = graph.num_qubits - 1 if device.startswith("linear") else graph.num_qubits
    c = _lowering_circuit(width, 80, seed=len(case))
    res = transpile(c, graph, TranspileConfig(level=int(level), basis=basis,
                                              seed=3))
    h = hashlib.sha256(encode([res.circuit]))
    h.update(repr((list(res.initial_layout), list(res.final_layout))).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", list(_lowering_cases()))
def test_golden_lowering(case):
    assert _lowering_run(case) == GOLDEN_LOWERING[case]


@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("basis", ["rz-x1-cz", "rz-rx-cnot"])
def test_swap_free_route_expands_no_swaps(monkeypatch, level, basis):
    # lowering before routing takes out the input's SWAPs, so a route that
    # inserts none leaves nothing for the post-route expansion
    c = _lowering_circuit(10, 80, seed=1)
    assert gate_counts(c)[GateKind.SWAP]

    def expand(*args):
        raise AssertionError("expand_swaps ran on a swap-free route")

    monkeypatch.setattr(transpile_mod, "expand_swaps", expand)
    res = transpile(c, topology.full(10), TranspileConfig(level=level, basis=basis))
    assert res.stats.swaps_inserted == 0
    assert gate_counts(res.circuit)[GateKind.SWAP] == 0


# -- post-route passes skipped on a settled, swap-free route ---------------------
# transpile skips the post-route merge and cancel when the route inserted no
# SWAP and the pre-route passes left a fixpoint.  The reference below runs
# the same stages with the post-route passes always on.

def _always_post(c, graph, cfg):
    """transpile's stages, the post-route passes run every time; its bytes
    and layouts, and whether transpile may skip those passes."""
    gates, measures = split_trailing_measures(flatten(c))
    pre = decompose_to_basis(gates, cfg.basis)
    if cfg.level >= 1:
        pre = merge_adjacent_rotations(pre)
    settled = True
    if cfg.level >= 2:
        settled = len(cancel_adjacent_inverses(pre)) == len(pre)
        pre = cancel_adjacent_inverses(pre)
    initial, out, final = _best_trial(CircuitDag(pre), graph, cfg.sabre(),
                                      cfg.seed)
    swaps = len(out) - len(pre)
    if cfg.level >= 1:
        out = merge_adjacent_rotations(out)
    if cfg.level >= 2:
        out = cancel_adjacent_inverses(out)
    if swaps:
        out = expand_swaps(out, cfg.basis)
    out.extend(Instruction(GateKind.MEASURE, (final.phys(m.qubits[0]),),
                           cbit=m.cbit) for m in measures)
    return ((encode([out]), list(initial), list(final)),
            cfg.level >= 1 and settled and not swaps)


_SKIP_DEVICES = {"full:6": topology.full(6), "linear:6": topology.linear(6),
                 "heavy_hex:3": topology.heavy_hex(3)}


def _skip_cases(n):
    for seed in range(4):
        yield _lowering_circuit(n, 60, seed)
        for layers in (4, 8):
            c = bench_circuit(n, layers, seed)
            for q in range(n):
                c.measure(q, q)
            yield c


@pytest.mark.parametrize("device", _SKIP_DEVICES)
@pytest.mark.parametrize("level", LEVELS)
@pytest.mark.parametrize("basis", BASES)
def test_skipped_post_route_passes_change_no_byte(device, level, basis):
    graph = _SKIP_DEVICES[device]
    cfg = TranspileConfig(level=level, basis=basis, seed=2)
    skipped = []
    for c in _skip_cases(6):
        want, skip = _always_post(c, graph, cfg)
        assert _compiled(c, graph, level, basis, seed=2) == want
        skipped.append(skip)
    if device == "full:6" and level >= 1:
        # swap-free: level 1 always skips, level 2 when cancel dropped nothing
        assert any(skipped) and (level == 1 or not all(skipped))
    elif device != "full:6":
        assert not all(skipped)  # routes with SWAPs run the passes


def _pass_calls(monkeypatch) -> list:
    """The name of each merge or cancel call transpile makes."""
    calls = []
    for name in ("merge_adjacent_rotations", "cancel_adjacent_inverses"):
        def counted(c, _name=name, _run=getattr(transpile_mod, name)):
            calls.append(_name)
            return _run(c)
        monkeypatch.setattr(transpile_mod, name, counted)
    return calls


def test_compile_lower_shaped_circuit_skips_confirming_walks(monkeypatch):
    # full:10, level 2, rz-x1-cz, read from QASM: merging drops dozens of
    # full turns in one walk, and nothing it leaves next to each other
    # merges or cancels, so neither a confirming walk nor a post-route pass
    # runs
    from quantir import qasm2
    c = bench_circuit(10, 60, 1)
    for q in range(10):
        c.measure(q, q)
    c = qasm2.import_qasm2(qasm2.emit_qasm2(c))
    calls, walks = _pass_calls(monkeypatch), count_walks(monkeypatch)
    res = transpile(c, topology.build("full", 10),
                    TranspileConfig(level=2, basis="rz-x1-cz"))
    assert res.stats.swaps_inserted == 0
    assert calls == ["merge_adjacent_rotations", "cancel_adjacent_inverses"]
    assert len(walks) == 2 and walks[0] > 0 and walks[1] == 0


# -- one instruction object at many positions -----------------------------------
# The QASM reader, lowering and the route builder may put one instruction
# object at many positions of a body, and lowering and the builder key
# tables by object identity.  A body whose equal instructions are one object
# must compile to the same bytes and layouts as the same body with a new
# object at every position.

_SHARING_DEVICES = (topology.full(5), topology.linear(5), topology.heavy_hex(3))


@st.composite
def repeating_circuits(draw):
    """A ``conftest.circuits`` circuit whose gates repeat.

    A ring of CNOTs, which no layout on ``linear`` or ``heavy_hex`` routes
    without a SWAP, follows its gates; then drawn gates of both come again,
    ahead of the trailing measures.
    """
    c = draw(circuits(max_qubits=5, max_len=20, measures=True, barriers=True,
                      angle_values=turn_angles, min_qubits=3))
    gates, measures = split_trailing_measures(flatten(c))
    n = c.num_qubits
    body = gates.body + [Instruction(GateKind.CNOT, (q, (q + 1) % n))
                         for q in range(n)]
    picks = draw(st.lists(st.integers(0, len(body) - 1), max_size=20))
    body += [body[i] for i in picks]
    return Circuit._from_items(n, c.num_cbits, body + measures)


def _compiled(c, graph, level, basis, seed=1):
    res = transpile(c, graph, TranspileConfig(level=level, basis=basis, seed=seed))
    return (encode([res.circuit]), list(res.initial_layout),
            list(res.final_layout))


@settings(max_examples=15, deadline=None)
@given(repeating_circuits())
def test_shared_instructions_compile_like_fresh_ones(c):
    shared, fresh = shared_copy(c), fresh_copy(c)
    assert len({id(ins) for ins in fresh.body}) == len(fresh)
    for graph in _SHARING_DEVICES:
        for level in LEVELS:
            for basis in BASES:
                assert (_compiled(shared, graph, level, basis)
                        == _compiled(fresh, graph, level, basis))


# -- shared operand tuples ----------------------------------------------------
# The route builder gives every instruction on one physical qubit, or one
# ordered pair, the same ``qubits`` tuple, and the re-targeted measurements
# take the builder's; the tuples are most of a compiled body's memory.

@pytest.mark.parametrize("seed", [1, 2, 3])
def test_compiled_body_shares_its_operand_tuples(seed):
    from quantir import qasm2
    n = 10
    c = bench_circuit(n, 60, seed)
    for q in range(n):
        c.measure(q, q)
    c = qasm2.import_qasm2(qasm2.emit_qasm2(c))
    res = transpile(c, topology.build("full", n),
                    TranspileConfig(level=2, basis="rz-x1-cz"))
    body = res.circuit.body
    assert len(body) > 1000 and any(i.kind is GateKind.MEASURE for i in body)
    assert len({id(ins.qubits) for ins in body}) <= n + n * (n - 1)
