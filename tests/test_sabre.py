"""Routing and placement: layouts, swap insertion, oracle equivalence."""
import dataclasses
import hashlib
import random
from collections import deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantir.bench import random_circuit
from quantir.circuit import Circuit, Instruction, depth, flatten, gate_counts
from quantir.dag import CircuitDag
from quantir.gates import CLS_2Q, GateKind
from quantir.sabre import (Layout, RoutingError, SabreConfig, _best_trial,
                           sabre_layout, sabre_route)
from quantir.sim import routed_fidelity
from quantir import sabre, topology

from conftest import TWO_Q, check_routing, circuits, count_routes


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


@pytest.mark.parametrize("bad", [[0.9, 1.2, 2.5], [1.0, 0.0], [True, False],
                                 ["1", "0"], [np.True_, np.False_]])
def test_layout_rejects_entries_that_are_not_integers(bad):
    # int() would truncate or parse each of these into some permutation
    with pytest.raises(RoutingError):
        Layout(bad)
    n = len(bad)
    with pytest.raises(RoutingError):
        sabre_route(CircuitDag(Circuit(n).h(0)), topology.linear(n), bad)


def test_layout_takes_numpy_integers():
    assert Layout(np.array([2, 0, 1])) == Layout([2, 0, 1])
    lay = Layout([np.int32(1), np.int64(0)])
    assert list(lay) == [1, 0] and all(type(p) is int for p in lay)


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
    # safeguard must still terminate routing with a correct circuit.  The
    # fallback runs only after 50 swaps without progress, so the swap count
    # shows whether it ran: the 4-ring needs one swap, the 5-ring stalls
    # for 50 before the fallback brings a front gate together
    cfg = SabreConfig(extended_weight=50.0, decay_delta=0.0,
                      decay_reset_interval=10 ** 9)
    for c, swaps in [(Circuit(4).cnot(0, 2).cnot(1, 3), 1),
                     (Circuit(5).cnot(0, 3).cnot(0, 1).cnot(2, 0), 52)]:
        n = c.num_qubits
        g = topology.CouplingGraph(n, [(i, (i + 1) % n) for i in range(n)])
        routed, final = sabre_route(CircuitDag(c), g, Layout.identity(n), cfg)
        assert gate_counts(routed)[GateKind.SWAP] == swaps
        assert _coupled(routed, g)
        assert routed_fidelity(c, routed, list(range(n)), list(final)) > 1 - 1e-9



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
    {"extended_weight": float("inf")},
])
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        SabreConfig(**kwargs)


@pytest.mark.parametrize("name", ["layout_trials", "extended_set_size",
                                  "decay_reset_interval"])
@pytest.mark.parametrize("value", [2.5, 3.0, "3"])
def test_config_rejects_non_integer_counts(name, value):
    # 2.5 trials passed the >= check, then range() raised TypeError in the
    # layout search; a 2.5-gate extended set never filled, so it took every
    # upcoming two-qubit gate
    with pytest.raises(ValueError, match=name):
        SabreConfig(**{name: value})


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


# -- routing replay check ---------------------------------------------------------

def _replay_example():
    graph = topology.square(9)
    c = _golden_circuit(7, 8, seed=1)
    lay = Layout.identity(9)
    routed, final = sabre_route(CircuitDag(c), graph, lay)
    assert gate_counts(routed)[GateKind.SWAP] > gate_counts(c)[GateKind.SWAP]
    return c, graph, routed, lay, final


def _with_body(routed: Circuit, body) -> Circuit:
    out = Circuit(routed.num_qubits, routed.num_cbits)
    out.extend(body)
    return out


def test_replay_accepts_router_output():
    check_routing(*_replay_example())


def _first(body, kind):
    return next(k for k, ins in enumerate(body) if ins.kind is kind)


@pytest.mark.parametrize("fault", ["drop", "reorder", "param", "off-edge", "final"])
def test_replay_rejects_a_faulty_route(fault):
    c, graph, routed, lay, final = _replay_example()
    body = list(routed.body)
    if fault == "drop":
        del body[_first(body, GateKind.CNOT)]
    elif fault == "reorder":
        # the first two gates that share a wire, exchanged
        k = next(k for k in range(1, len(body))
                 if set(body[k].qubits) & set(body[k - 1].qubits)
                 and body[k] != body[k - 1])
        body[k - 1], body[k] = body[k], body[k - 1]
    elif fault == "param":
        k = _first(body, GateKind.RZ)
        ins = body[k]
        body[k] = Instruction(ins.kind, ins.qubits, (ins.params[0] + 1e-12,))
    elif fault == "off-edge":
        body.insert(0, Instruction(GateKind.SWAP, (0, 8)))
    else:
        final = final.copy()
        final.swap_physical(0, 1)
    with pytest.raises(AssertionError):
        check_routing(c, graph, _with_body(routed, body), lay, final)


@settings(max_examples=40, deadline=None)
@given(circuits(max_qubits=6, max_len=30, measures=True, barriers=True),
       st.integers(min_value=0, max_value=50))
def test_replay_property(c, seed):
    graph = topology.random_topology(6, extra_edge_fraction=0.2, seed=seed)
    lay = Layout.shuffled(6, random.Random(seed))
    routed, final = sabre_route(CircuitDag(c), graph, lay)
    check_routing(c, graph, routed, lay, final)


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


# -- golden routing output ---------------------------------------------------------
# sha256 of the chosen initial layout and of the routed body plus final layout,
# for fixed circuits, seeds and configs.  Routing output is part of the
# contract (deterministic per (seed, config), byte for byte): a router change
# that alters any of these is a behaviour change, not a speed-up.

GOLDEN_GRAPHS = {
    "heavy_hex:3": lambda: topology.heavy_hex(3),
    "heavy_hex:5": lambda: topology.heavy_hex(5),
    "square:16": lambda: topology.square(16),
    "square:49": lambda: topology.square(49),
    "linear:7": lambda: topology.linear(7),
    "full:6": lambda: topology.full(6),
    "random:20": lambda: topology.random_topology(20, seed=3),
}

GOLDEN_CONFIGS = {
    "default": SabreConfig(),
    "no-ext": SabreConfig(extended_set_size=0),
    "decay": SabreConfig(extended_weight=2.0, decay_delta=0.1,
                         decay_reset_interval=2),
}

GOLDEN = {
    "heavy_hex:3/full/default": (
        "3f147044f6707dd26ac5dd10311d82817d423a5f66940ba3e464a5a56710219b",
        "b9dc200986b85562749e4d5e981cc61ebccc6216bd5ae80438c30afcd2e9a527"),
    "heavy_hex:3/full/no-ext": (
        "7dc98f2431b9eb64b2e8a5698ac8b00b324bcacd9595612638971988b0466cfd",
        "2c3399c2f5efe4ee4e2971d9254bc07c5b91c7b74f35f38e1c9ff87d1a98050e"),
    "heavy_hex:3/full/decay": (
        "79541f2c180f6e4e3a4e6d10fc202777a815ec952338207f7b45408a0abdcb21",
        "d1e36c1d20ddf39f1cc34f6b02e91776a1e31f4d058ad68df43bdb05a464ab76"),
    "heavy_hex:3/part/default": (
        "1aee863b6c73478652fb1d929bab148cf7c272118ccaa79cb7fe9c7f83ce781e",
        "ad6680747b0b9a10eb9ddecb403f6a437e1482558a1441d12fe101b4b6fa435a"),
    "heavy_hex:3/part/no-ext": (
        "9abcbfbf221cf1a70223e268614d014a26f7fe1776e1dab3b741cfa6a3844226",
        "89345e46fc6f1007c7ea1cbecc4626cafdec8b54d1c29e649032e317704d8fbd"),
    "heavy_hex:3/part/decay": (
        "97b8a8f4601bb6a4058377734ae1a9117d426b56e99cf229f75a55d7220001ff",
        "8b681202be4f58a5115a3459f5101cb151efaf8e54870a5a86778311a1690b7a"),
    "heavy_hex:5/full/default": (
        "2b8054dff2f62982f489e3aef45f94c9ae2388677374f58dfce6f951a942ccb9",
        "a6e6f321f8423d12a0ef51257879a0476efcb70742a3a5bae119bd9dfb27a0f0"),
    "heavy_hex:5/full/no-ext": (
        "f2bbb7b83b204c485f2530d907b97d696229e63a741f7043fc510c569ff17942",
        "a6d2a506b04e2bc3f83ebb640be2200a8857d661638c2525f363449d0975b0eb"),
    "heavy_hex:5/full/decay": (
        "5c4a9a74b8d408d470f3830ea49f437a2d0db658666ff352af181d5d53727e5c",
        "4b6eb9420ce498fed9a38c24c6bbbf85c0a2be20e194ab3ed81aaac5f73fc173"),
    "heavy_hex:5/part/default": (
        "7aa3cdf8baf47a50e4743dc8ad57e523cb10afed828de1e9dd8b4ab4fe597522",
        "98d5aa547896869e26b3d40258a29323111e771bc4738c26c02495df109f049e"),
    "heavy_hex:5/part/no-ext": (
        "a0279565db417e539094738a84a6b8cf31e6d68c728740e4b2ad77a5d7681a3e",
        "5f85af6dd90cb1752eec987bcc8b65e176ee351ee0b0e5729922313be9e6c6a5"),
    "heavy_hex:5/part/decay": (
        "d8963ab53be8249717d9d395b70634bebd3cabe14b5f94d3e392db663bc11b9c",
        "00e5531c01ea5d2fd9e4c0ce9c3bce44dcc77a5d8d0286f1faa41f099f6605d1"),
    "square:16/full/default": (
        "4c6aadf268506be21ada011d55de64bddde23d066a068741de8f5222c7c18b39",
        "47c5c81510709cdad054c7d7d6f806a8923ec9c550a392216c51b50e0979c974"),
    "square:16/full/no-ext": (
        "288e689fca2b5f00242c9ef0908a0f8aeee4e20069efcf45afa2dc3e2d9560c2",
        "7048c0b57b0035292cbae28036948586b9b1f221d2b600eb54adbc3baa57b84d"),
    "square:16/full/decay": (
        "3532522c7930c72dbd2ddeafaf40c0a0766a4c57f592f2a5041f65980736d0b7",
        "fbdd00fc7d3e54b23598ca1d34ab39d0cca13414a4e2a0311b0a977db4a0bea2"),
    "square:16/part/default": (
        "47a2d01c60e72a3e5ca6c08c4bf54619869bc5339ce1a7cf5f2a71b027057712",
        "52b24617b36380eee8b2e93147e06d2906fe79f1f962743a4b132ca1e4c55cd1"),
    "square:16/part/no-ext": (
        "760809192619cf0bb98168976b1d6ea1cf60edbca760df42d1ac4b42deecf557",
        "c431ff9d84215616b14bd36f324fc6b124605e5b4a93adfae9038c80209407df"),
    "square:16/part/decay": (
        "fec7b89acc035627674caf4512714bb29a630dc39c07528a5c0732aa87614ad0",
        "4f6d9c9ac9ac5b3529d280609a3ec61a3c806fe590ec0d390730dc21e30012fa"),
    "square:49/full/default": (
        "6a8f7bc2c1538c1f22db595b90cf2fccd3c230e5f303004cd3332a2a703b1677",
        "2b0ccc3ed8162e140f0d324160bc4e0b640c844a4b6d28ccf21b7f819cf13fdc"),
    "square:49/full/no-ext": (
        "ed9b1d9c748d574fcc511174c40140b1b4c63df905fa32712ffe0559c7f825a4",
        "0ee33e96db22e7a774c5e8ac338b8f38a615d2e312a84673dcb6957667f9a956"),
    "square:49/full/decay": (
        "895a7429229625888a03ac2963062fe1bde39941f214fcd57d696c091e0ea452",
        "67ddf075de4679905f80613416997059f557ab24fe1277c8dd68b9609bc85b6a"),
    "square:49/part/default": (
        "99371cf387ac4e1c85d5314d090a7145905f91a38b3fb7b277bc1f36befed7fa",
        "7a6810dddb0bb47f871a29f8d8e30f0c5e61d64aa8b97b53a09b3fa4652dbc29"),
    "square:49/part/no-ext": (
        "f3a11f7231d5e62cc4228bb45dae737c861b73b6ae0ce6d704a8df03a26c96a6",
        "977dc8a696e626c66dc92572f644c6320335144baf907d143627d7aa820d6da0"),
    "square:49/part/decay": (
        "0de8a724c0e853e33ad692e78396947617cb0ce91bc054df99c6bfa6349f7ac8",
        "a3b0d5d07272c415c552df37919495971bb69d9b19c5cf04b5e2471914e02b25"),
    "linear:7/full/default": (
        "e0e3fcb118d2001505d8fb248dbec753c2a7391de67f39d14b95cb0819658554",
        "733a4f0a16fcd3fadf1989240dfdee5f2dd16ba543521024e675ab65514a9bec"),
    "linear:7/full/no-ext": (
        "7eb27b667145832a807f7c37c9121be0df0f6e2c178ad69294aa8f6475d2ad02",
        "3cb11374c93d837dd72154b487f53c1f6a1e85330c2452f11d90fa97ae3a7961"),
    "linear:7/full/decay": (
        "90fb0bcb06810670ef04f63da590cf7df987492d6bc88955a531c74f0e51fd6d",
        "469c11f27928911ee3bfa027aeaf5ccb1bd654123bb0c68ce3817441a140dd04"),
    "linear:7/part/default": (
        "b96033d5b10253a65cc9c50dbb9fd59ad49eaf05ebee1da4d7fbd5c9ad495e50",
        "7df63112ce1eadb92fbb846c3ef41e424dcbfe789a65c79444efa29cf73a2fbd"),
    "linear:7/part/no-ext": (
        "0bf2a15fd5e485b4da4bd79787856754434a286c936aea6fb33b476fae20c294",
        "b57c9b72dbd62ff41dc513c924c7db6c4c094367f13637ad5f9677e6327af201"),
    "linear:7/part/decay": (
        "235b6b48e80ee792b11af98fdcbaf181440cd8eefa4e1d1d3b1709e1225a34dc",
        "7e18442c17408e9bd8b15a172017501b6597c1e122053146c00079f4fc6171e5"),
    "full:6/full/default": (
        "90ee8dca2e3ac20eab8d8c65739389ff89f380697afc52ca3bd06b7c9463285f",
        "3481dc8964cb6f1d5732a0f675313b098c0ecfabe4a2777c73dd09c1414dfcf2"),
    "full:6/full/no-ext": (
        "90ee8dca2e3ac20eab8d8c65739389ff89f380697afc52ca3bd06b7c9463285f",
        "59fc90e9cf505c2921ee4507e05a5c6a652761cee923c6ec768418b2223c17d2"),
    "full:6/full/decay": (
        "90ee8dca2e3ac20eab8d8c65739389ff89f380697afc52ca3bd06b7c9463285f",
        "5386debcabb71d497864570b383cb31a98c5a68b858085728c2fd5d69e6747e3"),
    "full:6/part/default": (
        "90ee8dca2e3ac20eab8d8c65739389ff89f380697afc52ca3bd06b7c9463285f",
        "a841b53ba6b5da284907fc61eed970a1f7d43d854c5387ef184f2571b1164eac"),
    "full:6/part/no-ext": (
        "90ee8dca2e3ac20eab8d8c65739389ff89f380697afc52ca3bd06b7c9463285f",
        "36920d17cb32398789f002a05b417c4fcc5961639e65ddd86f9bcc1a93cd85d5"),
    "full:6/part/decay": (
        "90ee8dca2e3ac20eab8d8c65739389ff89f380697afc52ca3bd06b7c9463285f",
        "7618732ec0ef410ec03a258384b9545a6efa278f25faae215b05eae67ac02725"),
    "random:20/full/default": (
        "b52a8448e05070e38243b2497beb77855218dd3fb45aef60ef2d3866923d6d56",
        "c913c85ffa7f59bf4c67db8c6070e57524bc8ffa77bc7435c128a36ef5799f56"),
    "random:20/full/no-ext": (
        "5caa1e0b087d141d243fb08854eccaa1bfaf92f8ac29aefc9bef564a8ee4f9e1",
        "b4eced24c5846b18212ba308e7edf84d6d46679781925f092e2b8d2b9bb055d5"),
    "random:20/full/decay": (
        "1c417d88f0631340c210633f375576516313fe1939c3e8bc19e17fcac27917b8",
        "b850cc3410e73c14a24dfb69b9f26e4736129cd50e589360ee5dd90ad0a4e00c"),
    "random:20/part/default": (
        "e6a29d389b6d9ae9691d4fd39f6acc30978078dc41c72dff923bdcb95d19c654",
        "210e3127229b70d32826d120e3860fe542ad6f30b218b1da0dc14f89e9056cd7"),
    "random:20/part/no-ext": (
        "aed5b36e1907645a384297755cb75ea1e490751a1654a72522af39a5cde04f48",
        "9d8e0b4ba00b67a1ef5869d994af50849a46f02da44071c14bed09a8267e35d6"),
    "random:20/part/decay": (
        "d8c351d724ec06ba7355b51fa2e5d111c5e966fb8a9eb8e317e607dc7fd2e6e6",
        "13691a23c6397c4ad0b61cff691b555e27ebb5ee44b1f45784b8da8cb4c8c2a5"),
}


def _golden_circuit(width: int, layers: int, seed: int) -> Circuit:
    """Random layers of 1q/rotation/2q gates, a mid barrier, trailing measures."""
    rng = random.Random(seed)
    c = Circuit(width, width)
    for layer in range(layers):
        order = list(range(width))
        rng.shuffle(order)
        while order:
            q = order.pop()
            roll = rng.random()
            if order and roll < 0.4:
                c.append_gate(rng.choice([GateKind.CNOT, GateKind.CZ,
                                          GateKind.SWAP]), (q, order.pop()))
            elif roll < 0.7:
                c.append_gate(rng.choice([GateKind.RX, GateKind.RZ]), (q,),
                              (rng.uniform(-3, 3),))
            else:
                c.append_gate(rng.choice([GateKind.H, GateKind.T, GateKind.X1]),
                              (q,), dagger=rng.random() < 0.2)
        if layer == layers // 2 and width >= 3:
            c.barrier(*rng.sample(range(width), 3))
    for q in range(0, width, 2):
        c.measure(q, q)
    return c


def _sha(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(repr(part).encode())
    return h.hexdigest()


def _route_sha(routed: Circuit, final: Layout) -> str:
    return _sha([(ins.kind.name, ins.qubits, ins.params, ins.cbit, ins.dagger)
                 for ins in routed.body], list(final))


def _golden_cases():
    for gname in GOLDEN_GRAPHS:
        for wname in ("full", "part"):
            for cname in GOLDEN_CONFIGS:
                yield f"{gname}/{wname}/{cname}"


def _golden_run(case: str):
    gname, wname, cname = case.split("/")
    graph = GOLDEN_GRAPHS[gname]()
    n = graph.num_qubits
    width = n if wname == "full" else n - max(1, n // 4)
    layers = 4 if n > 30 else 12
    c = _golden_circuit(width, layers, seed=len(case))
    dag = CircuitDag(c)
    cfg = GOLDEN_CONFIGS[cname]
    lay = sabre_layout(dag, graph, cfg, seed=7)
    routed, final = sabre_route(dag, graph, lay, cfg)
    return _sha(list(lay)), _route_sha(routed, final)


@pytest.mark.parametrize("case", list(_golden_cases()))
def test_golden_routing(case):
    assert _golden_run(case) == GOLDEN[case]


# Found by a random search: with no decay, reset after every swap and a heavily
# weighted two-gate extended set, the router oscillates on a line until the
# stall fallback (after max(50, 10 * n) swaps without progress) walks the
# oldest blocked gate together.
STALL_CASE = ([(3, 0), (2, 0), (0, 4), (0, 2), (2, 3)], [3, 2, 4, 1, 0],
              SabreConfig(extended_set_size=2, extended_weight=10.0,
                          decay_delta=0.0, decay_reset_interval=1))
GOLDEN_STALL = "faebc3a400ec506a18095b82b98bd5af5cbf8d22a18a87ce3aaf969ce1999afe"


def test_golden_routing_through_stall_fallback():
    pairs, lay, cfg = STALL_CASE
    c = Circuit(5)
    for a, b in pairs:
        c.cnot(a, b)
    graph = topology.linear(5)
    routed, final = sabre_route(CircuitDag(c), graph, Layout(lay), cfg)
    assert gate_counts(routed)[GateKind.SWAP] >= 50
    assert _coupled(routed, graph)
    assert routed_fidelity(c, routed, lay, list(final)) > 1 - 1e-9
    assert _route_sha(routed, final) == GOLDEN_STALL


# -- cached scoring against a from-scratch reference -------------------------------
# The router keeps each candidate swap's integer deltas across swaps and fronts
# and recomputes only those a swap or a new front can change.  This reference
# keeps nothing: every decision re-scores every sorted candidate by applying
# its swap and re-summing the front and extended-set distances.

def _reference_extended_set(dag, front, size):
    ext, seen, queue = [], set(front), deque(sorted(front))
    while queue and len(ext) < size:
        for v in dag.succs[queue.popleft()]:
            if v in seen:
                continue
            seen.add(v)
            queue.append(v)
            if dag.pairs[v] is not None:
                ext.append(v)
                if len(ext) >= size:
                    break
    return ext


def _reference_route(dag, graph, initial, config):
    n = graph.num_qubits
    dist = graph.distance_matrix().tolist()
    l2p = list(initial)
    indeg = dag.pred_counts()
    front = set(dag.front_layer())
    out = Circuit(n, dag.circuit.num_cbits)
    stall_limit = max(50, 10 * n)
    new_front = True
    while front:
        queue = deque(sorted(front))
        while queue:
            node = queue.popleft()
            ins = dag.body[node]
            pair = dag.pairs[node]
            if pair is not None and dist[l2p[pair[0]]][l2p[pair[1]]] != 1:
                continue
            front.discard(node)
            out.append(Instruction(ins.kind, [l2p[q] for q in ins.qubits],
                                   ins.params, ins.cbit, ins.dagger))
            new_front = True
            for v in dag.succs[node]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    front.add(v)
                    queue.append(v)
        if not front:
            break
        if new_front:
            new_front = False
            decay = [1.0] * n
            since_reset = since_progress = 0
        front_pairs = [dag.pairs[v] for v in sorted(front)]
        ext_pairs = [dag.pairs[v] for v in
                     _reference_extended_set(dag, front, config.extended_set_size)]
        if since_progress >= stall_limit:
            p0, p1 = l2p[front_pairs[0][0]], l2p[front_pairs[0][1]]
            step = min(graph.neighbors(p0), key=lambda nb: (dist[nb][p1], nb))
            best = tuple(sorted((p0, step)))
        else:
            best = best_score = None
            candidates = {tuple(sorted((l2p[q], nb))) for pair in front_pairs
                          for q in pair for nb in graph.neighbors(l2p[q])}
            for a, b in sorted(candidates):
                moved = [{a: b, b: a}.get(p, p) for p in l2p]
                score = sum(dist[moved[q0]][moved[q1]]
                            for q0, q1 in front_pairs) * (1.0 / len(front_pairs))
                if ext_pairs:
                    score += config.extended_weight * sum(
                        dist[moved[q0]][moved[q1]] for q0, q1 in ext_pairs) \
                        * (1.0 / len(ext_pairs))
                score *= max(decay[a], decay[b])
                if best_score is None or score < best_score:
                    best, best_score = (a, b), score
        a, b = best
        out.swap(a, b)
        l2p = [{a: b, b: a}.get(p, p) for p in l2p]
        decay[a] += config.decay_delta
        decay[b] += config.decay_delta
        since_reset += 1
        since_progress += 1
        if since_reset >= config.decay_reset_interval:
            decay = [1.0] * n
            since_reset = 0
    return out, Layout(l2p)


GRAPH_BUILDERS = {
    "linear": lambda n, seed: topology.linear(n),
    "square": lambda n, seed: topology.square(n),
    "random": lambda n, seed: topology.random_topology(
        n, extra_edge_fraction=0.3, seed=seed),
}

routing_configs = st.builds(
    SabreConfig,
    extended_set_size=st.sampled_from([0, 1, 2, 5, 20]),
    extended_weight=st.sampled_from([0.0, 0.5, 2.0, 10.0, 50.0]),
    decay_delta=st.sampled_from([0.0, 0.001, 0.1]),
    decay_reset_interval=st.sampled_from([1, 2, 5, 10 ** 9]))


@st.composite
def dense_circuits(draw, num_qubits: int):
    """Mostly two-qubit gates on random pairs, so fronts take several swaps;
    on all of ``num_qubits`` wires or on all but up to three."""
    n = draw(st.integers(min_value=max(2, num_qubits - 3), max_value=num_qubits))
    c = Circuit(n, n)
    for _ in range(draw(st.integers(min_value=0, max_value=80))):
        roll = draw(st.integers(min_value=0, max_value=9))
        qs = draw(st.permutations(range(n)))
        if roll < 7:
            c.append_gate(draw(st.sampled_from(TWO_Q)), qs[:2])
        elif roll < 9:
            c.h(qs[0])
        else:
            c.barrier(*qs[:draw(st.integers(min_value=1, max_value=n))])
    for q in range(draw(st.integers(min_value=0, max_value=n))):
        c.measure(q, q)
    return c


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(GRAPH_BUILDERS)), st.integers(min_value=2, max_value=24),
       st.integers(min_value=0, max_value=2 ** 16), routing_configs, st.data())
def test_cached_scoring_matches_a_from_scratch_reference(gname, n, seed, cfg, data):
    graph = GRAPH_BUILDERS[gname](n, seed)
    c = data.draw(dense_circuits(n))
    lay = Layout.shuffled(n, random.Random(seed))
    dag = CircuitDag(c)
    routed, final = sabre_route(dag, graph, lay, cfg)
    ref, ref_final = _reference_route(dag, graph, lay, cfg)
    assert routed == ref
    assert final == ref_final


def test_cached_scoring_matches_the_reference_through_the_stall_fallback():
    pairs, lay, cfg = STALL_CASE
    c = Circuit(5)
    for a, b in pairs:
        c.cnot(a, b)
    dag, graph = CircuitDag(c), topology.linear(5)
    routed, final = sabre_route(dag, graph, Layout(lay), cfg)
    assert (routed, final) == _reference_route(dag, graph, Layout(lay), cfg)


# -- layout search exit ------------------------------------------------------------
# Placement stops at the first trial that no later trial can beat.  These pin
# the chosen layout and route of a search that stops after a later trial's
# first pass, and of one that stops after a final pass; the hashes were taken
# from a search that runs every trial.  Found by a random search over
# CNOT/CZ chains on linear:4 with the default four trials.

EXIT_CASES = {
    # trials 0-2 insert swaps on every pass; trial 3's first pass inserts none
    "first-pass": (
        [("CNOT", 0, 1), ("CNOT", 1, 2), ("CNOT", 0, 1), ("CNOT", 1, 2),
         ("H", 0), ("H", 2), ("H", 1), ("H", 0), ("H", 0), ("CZ", 3, 2),
         ("H", 3), ("H", 3)],
        4,
        ("02b6deebe10f247a39a1f40c6e045af149df9c96491adce129613e8b30480780",
         "7465b6a613ae57afb68342d7e6819d7c00118d3edc47cac701e9452ef35c80bc")),
    # trial 0 inserts swaps on every pass; trial 1 on its first pass only
    "final-pass": (
        [("H", 3), ("CNOT", 2, 3), ("H", 2), ("H", 2), ("H", 1), ("H", 2),
         ("CZ", 1, 0), ("CZ", 3, 2), ("H", 1), ("CNOT", 2, 3), ("H", 2),
         ("CNOT", 0, 1)],
        1,
        ("abbf9f39357daba1933a53dc9eacfdc92eb7a183b73daf047afc640a5b923011",
         "612ac3d4e5954100218445a869277a70501ed68a130ad13fa13375a38735c136")),
}


def _exit_case(case: str):
    gates, seed, _ = EXIT_CASES[case]
    c = Circuit(4)
    for name, *qs in gates:
        c.append_gate(GateKind[name], tuple(qs))
    return _best_trial(CircuitDag(c), topology.linear(4), SabreConfig(), seed)


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_golden_layout_search_exit(case):
    initial, routed, final = _exit_case(case)
    assert (_sha(list(initial)), _route_sha(routed, final)) == EXIT_CASES[case][2]


# routes each search makes: three per trial up to the one it stops at, and
# one only for a trial whose first pass is swap-free
EXIT_ROUTES = {"first-pass": 3 * 3 + 1, "final-pass": 3 * 2}


@pytest.mark.parametrize("case", sorted(EXIT_CASES))
def test_layout_search_stops_at_a_swap_free_trial(monkeypatch, case):
    calls = count_routes(monkeypatch)
    _exit_case(case)
    assert len(calls) == EXIT_ROUTES[case]


# -- routing core against its body ---------------------------------------------
# Layout trials run the core alone and are scored from its order list; only the
# winner is built.  The core's counts must describe the body ``_build`` makes.

CORE_GRAPHS = {
    "linear": topology.linear,
    "square": topology.square,
    "heavy_hex": lambda n: topology.heavy_hex(3),  # 19 wires
}


@settings(max_examples=150, deadline=None)
@given(circuits(max_qubits=7, max_len=40, measures=True),
       st.sampled_from(sorted(CORE_GRAPHS)), st.integers(min_value=0, max_value=3),
       st.integers(min_value=0, max_value=2**16), routing_configs)
def test_core_counts_match_the_built_body(c, gname, spare, seed, cfg):
    graph = CORE_GRAPHS[gname](c.num_qubits + spare)
    lay = Layout.shuffled(graph.num_qubits, random.Random(seed))
    dag = CircuitDag(c)
    order, swaps, final = sabre._route_core(dag, graph, lay, cfg)
    built = sabre._build(dag, graph.num_qubits, lay, order)
    assert swaps == gate_counts(built)[GateKind.SWAP] - gate_counts(c)[GateKind.SWAP]
    assert sabre._depth(dag, lay, order) == depth(built)
    assert final == sabre_route(dag, graph, lay, cfg)[1]


@settings(max_examples=60, deadline=None)
@given(circuits(max_qubits=6, max_len=30, measures=True),
       st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=2**16))
def test_swap_free_routes_all_have_the_input_depth(c, spare, seed):
    # what the exit rests on: on a complete graph no route inserts a SWAP, and
    # every layout routes to the same depth, so a later trial can only tie
    graph = topology.full(c.num_qubits + spare)
    lay = Layout.shuffled(graph.num_qubits, random.Random(seed))
    routed, final = sabre_route(CircuitDag(c), graph, lay)
    assert len(routed) == len(flatten(c))
    assert final == lay
    assert depth(routed) == depth(c)


# -- new fronts by difference, and the extended set without a search -------------
# A new front updates the kept state from the gates that left or joined the
# front and the extended set.  Once an extended-set search stops short of its
# size it has found every unexecuted two-qubit gate outside the front, and
# later fronts take those still outside with no search.  These cases route
# heavy-hex devices, which the differential above does not draw, with more
# two-qubit gates than the extended set holds.

HEAVY_HEX = {3: topology.heavy_hex(3), 5: topology.heavy_hex(5)}  # 19, 57 wires

SEARCH_CONFIGS = {
    "default": SabreConfig(),
    "small": SabreConfig(extended_set_size=5),
    "decay": SabreConfig(extended_set_size=12, decay_delta=0.1,
                         decay_reset_interval=3),
}


def _route_counting_searches(dag, graph, lay, cfg):
    """``sabre_route``'s result and the size of each extended set it searched."""
    sizes = []
    search = sabre._extended_set

    def counting(*args):
        ext = search(*args)
        sizes.append(len(ext))
        return ext

    with mock.patch.object(sabre, "_extended_set", counting):
        routed, final = sabre_route(dag, graph, lay, cfg)
    return routed, final, sizes


@pytest.mark.parametrize("d, seed", [(3, 0), (3, 1), (3, 2), (5, 0)])
@pytest.mark.parametrize("cname", sorted(SEARCH_CONFIGS))
def test_heavy_hex_routes_match_the_reference(d, seed, cname):
    graph, cfg = HEAVY_HEX[d], SEARCH_CONFIGS[cname]
    c = random_circuit(graph.num_qubits, 10 if d == 3 else 6, seed)
    for q in range(0, graph.num_qubits, 3):
        c.measure(q, q)
    dag = CircuitDag(c)
    lay = Layout.shuffled(graph.num_qubits, random.Random(seed))
    routed, final, sizes = _route_counting_searches(dag, graph, lay, cfg)
    assert (routed, final) == _reference_route(dag, graph, lay, cfg)
    # the route starts with full searches and ends without any: the first
    # one that stops short is the last
    assert sizes[0] == cfg.extended_set_size
    assert sizes[-1] < cfg.extended_set_size
    assert all(n == cfg.extended_set_size for n in sizes[:-1])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 16), routing_configs, st.data())
def test_heavy_hex_cached_scoring_matches_the_reference(seed, cfg, data):
    graph = HEAVY_HEX[3]
    c = data.draw(dense_circuits(graph.num_qubits))
    lay = Layout.shuffled(graph.num_qubits, random.Random(seed))
    dag = CircuitDag(c)
    assert sabre_route(dag, graph, lay, cfg) == _reference_route(dag, graph, lay, cfg)


def test_routing_tables_are_built_once_per_graph():
    graph = topology.heavy_hex(3)
    dag = CircuitDag(random_circuit(graph.num_qubits, 8, 3))
    lay = Layout.shuffled(graph.num_qubits, random.Random(3))
    first = sabre_route(dag, graph, lay)
    tables = graph._routing
    assert tables is not None
    with mock.patch.object(topology.CouplingGraph, "distance_matrix",
                           side_effect=AssertionError("tables rebuilt")):
        assert sabre_route(dag, graph, lay) == first
    assert graph._routing is tables


def test_graphs_of_one_width_keep_their_own_tables():
    # a line and a ring of six wires, routed in turn: a table kept per width
    # instead of per graph would route one of them on the other's edges
    line = topology.linear(6)
    ring = topology.CouplingGraph(6, [(i, (i + 1) % 6) for i in range(6)])
    c = Circuit(6)
    for a, b in [(0, 5), (1, 4), (2, 5), (0, 3), (4, 1), (5, 0), (3, 1)]:
        c.cnot(a, b)
    dag, lay = CircuitDag(c), Layout.identity(6)
    routes = {}
    for name, graph in [("line", line), ("ring", ring), ("line", line),
                        ("ring", ring)]:
        routed = sabre_route(dag, graph, lay)
        assert routed == _reference_route(dag, graph, lay, SabreConfig())
        assert routes.setdefault(name, routed) == routed
    assert routes["line"] != routes["ring"]


# -- one kept state through the stall fallback -------------------------------------
# The router builds its kept state once and updates it only by difference; a
# stall-fallback swap advances it like a scored swap.  These draw circuits on
# small rings under the heavily weighted, never reset config of
# ``test_stall_safeguard_config_reachable``, where routes often oscillate until
# the fallback walks the oldest blocked gate together.  With no decay every
# candidate's score moves with the kept sums alike, so a wrong sum shows only
# under decay; the differential draws both.

RING_STALL_CONFIG = SabreConfig(extended_weight=50.0, decay_delta=0.0,
                                decay_reset_interval=10 ** 9)


def _ring(n: int):
    return topology.CouplingGraph(n, [(i, (i + 1) % n) for i in range(n)])


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=4, max_value=6), st.sampled_from([0.0, 0.1]),
       st.data())
def test_ring_stall_routes_match_the_reference(n, decay_delta, data):
    pairs = data.draw(st.lists(st.permutations(range(n)).map(lambda p: p[:2]),
                               min_size=1, max_size=8))
    c = Circuit(n)
    for a, b in pairs:
        c.cnot(a, b)
    lay = Layout(data.draw(st.permutations(range(n))))
    dag, graph = CircuitDag(c), _ring(n)
    cfg = dataclasses.replace(RING_STALL_CONFIG, decay_delta=decay_delta)
    assert sabre_route(dag, graph, lay, cfg) == _reference_route(dag, graph, lay, cfg)


def test_stall_fallback_keeps_the_extended_set():
    # the first search stops short of its size, so it holds every two-qubit
    # gate outside the front; the fallback then runs (50 swaps without
    # progress on five wires) and later fronts still need no search
    c = Circuit(5).cnot(0, 3).cnot(0, 1).cnot(2, 0)
    dag, graph, lay = CircuitDag(c), _ring(5), Layout.identity(5)
    routed, final, sizes = _route_counting_searches(dag, graph, lay,
                                                    RING_STALL_CONFIG)
    assert gate_counts(routed)[GateKind.SWAP] >= 50
    assert (routed, final) == _reference_route(dag, graph, lay, RING_STALL_CONFIG)
    assert sizes == [2]


def test_stall_fallback_advances_the_kept_sums():
    # found by a random search: the route runs through the fallback, and
    # later decays order the candidates by the kept sums, so a fallback swap
    # that left them stale would route differently from the reference
    c = Circuit(6).cnot(1, 4).cnot(5, 1).cnot(1, 2).cnot(1, 0)
    dag, graph, lay = CircuitDag(c), _ring(6), Layout([3, 5, 2, 0, 1, 4])
    cfg = dataclasses.replace(RING_STALL_CONFIG, decay_delta=0.1)
    routed, final = sabre_route(dag, graph, lay, cfg)
    assert gate_counts(routed)[GateKind.SWAP] >= 60
    assert (routed, final) == _reference_route(dag, graph, lay, cfg)
