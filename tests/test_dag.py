"""Wire-dependency DAG construction, and the critical-path metric checked
against the longest path through the DAG's predecessor lists."""
from hypothesis import given, settings, strategies as st

from quantir import metrics
from quantir.circuit import Circuit, flatten
from quantir.dag import CircuitDag
from quantir.gates import CLS_2Q, GateKind


def test_ghz_chain():
    c = Circuit(3).h(0).cnot(0, 1).cnot(1, 2)
    d = CircuitDag(c)
    assert len(d) == 3
    assert d.succs == [[1], [2], []]
    assert d.pred_counts() == [0, 1, 1]


def test_parallel_gates_have_no_edges():
    c = Circuit(3).h(0).x(1).z(2)
    d = CircuitDag(c)
    assert d.succs == [[], [], []]
    assert d.pred_counts() == [0, 0, 0]
    assert d.front_layer() == [0, 1, 2]


def test_two_qubit_edge_deduplicated():
    c = Circuit(2).cnot(0, 1).cnot(0, 1)
    d = CircuitDag(c)
    # both wires connect the same pair; the edge is stored once
    assert d.succs == [[1], []]
    assert d.pred_counts() == [0, 1]


def test_cbit_wire_orders_measurements():
    c = Circuit(2, 1).measure(0, 0).measure(1, 0)
    d = CircuitDag(c)
    # distinct qubits, shared classical bit: still ordered
    assert d.succs == [[1], []]
    assert d.pred_counts() == [0, 1]


def test_barrier_fences_its_qubits_only():
    c = Circuit(3).h(0).barrier(0, 1).x(1).z(2)
    d = CircuitDag(c)
    # barrier after h, x after barrier, z untouched by barrier
    assert d.succs == [[1], [2], [], []]
    assert d.pred_counts() == [0, 1, 1, 0]


def test_front_layer_and_pred_counts():
    c = Circuit(3).h(0).h(1).cnot(0, 1).cnot(1, 2)
    d = CircuitDag(c)
    assert d.front_layer() == [0, 1]
    counts = d.pred_counts()
    assert counts == [0, 0, 2, 1]
    counts[0] = 99
    assert d.pred_counts() == [0, 0, 2, 1]  # fresh copy each call


def test_two_qubit_nodes():
    c = Circuit(3, 1).h(0).cnot(0, 1).rz(2, 0.5).swap(1, 2).measure(0, 0)
    d = CircuitDag(c)
    assert d.two_qubit_nodes() == [1, 3]


def test_flattens_subcircuits():
    inner = Circuit(2).cnot(0, 1)
    c = Circuit(2).h(0).sub(inner)
    d = CircuitDag(c)
    assert [ins.kind for ins in d.body] == [GateKind.H, GateKind.CNOT]
    assert d.succs == [[1], []]
    assert d.pred_counts() == [0, 1]


def test_reversed_circuit_keeps_gates():
    c = Circuit(2).h(0).s(1).cnot(0, 1)
    r = CircuitDag(c).reversed_circuit()
    assert [ins.kind for ins in r.body] == [GateKind.CNOT, GateKind.S, GateKind.H]
    assert not any(ins.dagger for ins in r.body)


def test_empty_circuit():
    d = CircuitDag(Circuit(2))
    assert len(d) == 0
    assert d.front_layer() == []
    assert d.two_qubit_nodes() == []


# -- differential check against the eager builder --------------------------------

def _eager(circuit):
    """``(preds, succs, pairs)`` as the builder made them when it kept every
    predecessor list: the reference for the lean build and for the
    critical-path metric."""
    flat = flatten(circuit)
    body = flat.body
    n = len(body)
    preds = [[] for _ in range(n)]
    succs = [[] for _ in range(n)]
    pairs = [None] * n
    last_q = [-1] * flat.num_qubits
    last_c = [-1] * flat.num_cbits
    for i, ins in enumerate(body):
        qs = ins.qubits
        if len(qs) == 2 and ins.kind is not GateKind.BARRIER:
            pairs[i] = qs
        for q in qs:
            p = last_q[q]
            if p >= 0 and (not succs[p] or succs[p][-1] != i):
                succs[p].append(i)
                preds[i].append(p)
            last_q[q] = i
        cb = ins.cbit
        if cb is not None:
            p = last_c[cb]
            if p >= 0 and (not succs[p] or succs[p][-1] != i):
                succs[p].append(i)
                preds[i].append(p)
            last_c[cb] = i
    return preds, succs, pairs


@st.composite
def _dag_circuits(draw):
    """Circuits with one-qubit and wide barriers, measures that share a
    classical bit, repeated two-qubit pairs and daggered sub-circuits."""
    n = draw(st.integers(min_value=1, max_value=5))
    nc = draw(st.integers(min_value=1, max_value=2))
    c = Circuit(n, nc)
    wire = st.integers(min_value=0, max_value=n - 1)
    pair = None
    for _ in range(draw(st.integers(min_value=0, max_value=30))):
        which = draw(st.sampled_from(
            ["1q", "2q", "again", "measure", "barrier", "sub"] if n >= 2
            else ["1q", "measure", "barrier"]))
        if which == "1q":
            c.append_gate(draw(st.sampled_from([GateKind.H, GateKind.T, GateKind.X1])),
                          (draw(wire),), dagger=draw(st.booleans()))
        elif which == "2q" or (which == "again" and pair is None):
            pair = tuple(draw(st.permutations(range(n)))[:2])
            c.append_gate(draw(st.sampled_from([GateKind.CNOT, GateKind.CZ,
                                                GateKind.SWAP])), pair)
        elif which == "again":
            c.append_gate(GateKind.CZ, draw(st.sampled_from([pair, pair[::-1]])))
        elif which == "measure":
            c.measure(draw(wire), draw(st.integers(min_value=0, max_value=nc - 1)))
        elif which == "barrier":
            k = draw(st.integers(min_value=1, max_value=n))
            c.barrier(*draw(st.permutations(range(n)))[:k])
        else:
            inner = Circuit(n, 0)
            a, b = draw(st.permutations(range(n)))[:2]
            inner.s(a).cnot(a, b).rz(b, 0.5).barrier(a, b).t(b)
            c.sub(inner, dagger=draw(st.booleans()))
    return c


@settings(max_examples=300, deadline=None)
@given(c=_dag_circuits())
def test_lean_build_matches_the_eager_builder(c):
    preds, succs, pairs = _eager(c)
    d = CircuitDag(c)
    assert d.succs == succs
    assert d.pairs == pairs
    assert d.pred_counts() == [len(p) for p in preds]
    assert d.front_layer() == [i for i, p in enumerate(preds) if not p]


def _ref_critical_two_q(stripped, e):
    """Two-qubit gates on a longest path, over ``e``, by the loop over
    every node's predecessor lists that the metric was first written as."""
    if e == 0:
        return 0.0
    preds, _, _ = _eager(stripped)
    body = stripped.body
    best_len = best_two = 0
    length = [0] * len(body)
    twoq = [0] * len(body)
    for i, ins in enumerate(body):
        l = t = 0
        for p in preds[i]:
            if length[p] > l or (length[p] == l and twoq[p] > t):
                l, t = length[p], twoq[p]
        if ins.kind.opclass == CLS_2Q:
            t += 1
        l += 1
        length[i], twoq[i] = l, t
        if l > best_len or (l == best_len and t > best_two):
            best_len, best_two = l, t
    return best_two / e


@settings(max_examples=300, deadline=None)
@given(c=_dag_circuits())
def test_critical_path_walk_matches_the_longest_dag_path(c):
    flat = flatten(c)
    stripped = Circuit(flat.num_qubits, flat.num_cbits)
    for ins in flat.body:
        if ins.kind not in (GateKind.MEASURE, GateKind.BARRIER):
            stripped.append(ins)
    e = sum(ins.kind.opclass == CLS_2Q for ins in stripped.body)
    want = _ref_critical_two_q(stripped, e)
    assert metrics.circuit_metrics(c).critical_depth == want
