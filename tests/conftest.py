"""Shared strategies and builders for the test suite."""
from __future__ import annotations

import math
from collections import deque

from hypothesis import strategies as st

from quantir import passes, sabre
from quantir.circuit import Circuit, Instruction, flatten
from quantir.gates import GateKind

PARAMLESS_1Q = [GateKind.I, GateKind.H, GateKind.X, GateKind.Y, GateKind.Z,
                GateKind.S, GateKind.SDG, GateKind.T, GateKind.TDG, GateKind.X1]
ROTATIONS = [GateKind.RX, GateKind.RY, GateKind.RZ]
TWO_Q = [GateKind.CNOT, GateKind.CZ, GateKind.SWAP]

angles = st.floats(min_value=-4 * math.pi, max_value=4 * math.pi,
                   allow_nan=False, allow_infinity=False)
# signed zeros and whole turns, which compare or merge to the edge cases,
# mixed with arbitrary angles
turn_angles = st.one_of(
    st.sampled_from([0.0, -0.0, math.pi / 2, math.pi, 2 * math.pi,
                     -2 * math.pi, 4 * math.pi]),
    angles)


@st.composite
def circuits(draw, max_qubits: int = 5, max_len: int = 24,
             measures: bool = False, barriers: bool = True,
             angle_values=angles, min_qubits: int = 1):
    """Random flat circuit; trailing measures only (when enabled).

    Rotation and U3 angles are drawn from ``angle_values``.
    """
    n = draw(st.integers(min_value=min_qubits, max_value=max_qubits))
    c = Circuit(n)
    length = draw(st.integers(min_value=0, max_value=max_len))
    for _ in range(length):
        choices = ["1q", "rot", "u3"]
        if n >= 2:
            choices.append("2q")
        if barriers:
            choices.append("barrier")
        which = draw(st.sampled_from(choices))
        q = draw(st.integers(min_value=0, max_value=n - 1))
        dag = draw(st.booleans())
        if which == "1q":
            kind = draw(st.sampled_from(PARAMLESS_1Q))
            c.append_gate(kind, (q,), (), dagger=dag)
        elif which == "rot":
            kind = draw(st.sampled_from(ROTATIONS))
            c.append_gate(kind, (q,), (draw(angle_values),), dagger=dag)
        elif which == "u3":
            c.append_gate(GateKind.U3, (q,),
                          (draw(angle_values), draw(angle_values),
                           draw(angle_values)), dagger=dag)
        elif which == "2q":
            q2 = draw(st.integers(min_value=0, max_value=n - 2))
            if q2 >= q:
                q2 += 1
            kind = draw(st.sampled_from(TWO_Q))
            c.append_gate(kind, (q, q2), (), dagger=dag)
        else:
            k = draw(st.integers(min_value=1, max_value=n))
            qs = draw(st.permutations(range(n)))[:k]
            c.barrier(*qs)
    if measures and draw(st.booleans()):
        k = draw(st.integers(min_value=1, max_value=n))
        for i, q in enumerate(sorted(draw(st.permutations(range(n)))[:k])):
            c.measure(q, i)
    return c


def _bits(ins: Instruction) -> tuple:
    # float.hex tells -0.0 from 0.0, as Instruction equality does
    return (ins.opcode, ins.qubits, tuple(p.hex() for p in ins.params),
            ins.cbit)


def shared_copy(c: Circuit) -> Circuit:
    """``flatten(c)`` with all equal instructions one object."""
    flat = flatten(c)
    first: dict = {}
    body = [first.setdefault(_bits(ins), ins) for ins in flat.body]
    return Circuit._from_items(flat.num_qubits, flat.num_cbits, body, flat.name)


def fresh_copy(c: Circuit) -> Circuit:
    """``flatten(c)`` with a new instruction object at every position."""
    flat = flatten(c)
    body = [Instruction(ins.kind, ins.qubits, ins.params, ins.cbit, ins.dagger)
            for ins in flat.body]
    return Circuit._from_items(flat.num_qubits, flat.num_cbits, body, flat.name)


def ghz(n: int = 3) -> Circuit:
    c = Circuit(n)
    c.h(0)
    for i in range(n - 1):
        c.cnot(i, i + 1)
    return c


def count_routes(monkeypatch, *importers) -> list:
    """Count the routing passes made while the test runs.

    Wraps ``sabre._route_core``, which every route and layout trial pass runs
    once; also under that name in each module of ``importers``, should one
    bind it directly.  Returns the list that gains one entry per pass.
    """
    calls = []
    real = sabre._route_core

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(sabre, "_route_core", counting)
    for module in importers:
        monkeypatch.setattr(module, "_route_core", counting, raising=False)
    return calls


def count_walks(monkeypatch) -> list:
    """The drop count of each ``passes._peephole`` walk made while the test
    runs: wraps ``passes._walk``, which runs one walk per call."""
    drops = []
    real = passes._walk

    def counting(*args):
        out, dropped = real(*args)
        drops.append(len(dropped))
        return out, dropped

    monkeypatch.setattr(passes, "_walk", counting)
    return drops


def check_routing(circuit: Circuit, graph, routed: Circuit, initial, final) -> None:
    """Replay a routed circuit onto logical wires; assert it routes ``circuit``.

    Walking the routed body, each gate mapped back through the current layout
    must be the next input gate on every qubit wire (and classical bit) it
    touches.  Any other gate must be a SWAP the router inserted; it moves the
    layout.  Every two-qubit gate sits on a coupling edge.  At the end every
    input gate has been matched and the layout equals ``final``.  Linear time,
    no statevector, so it works at any width.
    """
    body = flatten(circuit).body
    p2l = [0] * graph.num_qubits
    for logical, phys in enumerate(initial):
        p2l[phys] = logical
    wires = [deque() for _ in range(graph.num_qubits)]
    cbits = [deque() for _ in range(circuit.num_cbits)]
    for i, ins in enumerate(body):
        for q in ins.qubits:
            wires[q].append(i)
        if ins.cbit is not None:
            cbits[ins.cbit].append(i)
    for k, ins in enumerate(routed.body):
        if len(ins.qubits) == 2 and ins.kind is not GateKind.BARRIER:
            assert graph.has_edge(*ins.qubits), f"routed gate {k} {ins!r} is off the coupling graph"
        logical = tuple(p2l[p] for p in ins.qubits)
        i = wires[logical[0]][0] if wires[logical[0]] else None
        if (i is not None and all(wires[q] and wires[q][0] == i for q in logical)
                and (ins.cbit is None or cbits[ins.cbit] and cbits[ins.cbit][0] == i)
                and body[i] == Instruction(ins.kind, logical, ins.params, ins.cbit,
                                           ins.dagger)):
            for q in logical:
                wires[q].popleft()
            if ins.cbit is not None:
                cbits[ins.cbit].popleft()
            continue
        assert ins.kind is GateKind.SWAP, \
            f"routed gate {k} {ins!r} is not the next input gate on its wires"
        a, b = ins.qubits
        p2l[a], p2l[b] = p2l[b], p2l[a]
    left = sum(map(len, wires))
    assert not left, f"{left} input gate operands never appeared in the routed circuit"
    assert all(final.phys(q) == p for p, q in enumerate(p2l)), \
        "replayed layout differs from the final layout"


def parse_dot(text: str):
    """Minimal DOT checker: digraph { node/edge statements with attrs }.

    Returns (nodes, edges): nodes maps id -> attr dict, edges is a list of
    (tail, head, attr dict).  Raises ValueError on anything outside the
    tiny grammar the renderer emits.
    """
    import re

    token = re.compile(r'''\s*(?:
        (?P<id>[A-Za-z_][A-Za-z0-9_]*) |
        (?P<quoted>"(?:[^"\\]|\\.)*") |
        (?P<punct>->|[{}\[\]=;,])
    )''', re.X)

    tokens = []
    pos = 0
    while pos < len(text):
        m = token.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ValueError(f"bad token at {pos}: {text[pos:pos + 20]!r}")
        pos = m.end()
        if m.lastgroup == "quoted":
            raw = m.group("quoted")[1:-1]
            # undo only quote/backslash escapes; label escapes like \n stay
            tokens.append(("id", re.sub(r'\\([\\"])', r'\1', raw)))
        elif m.lastgroup == "id":
            tokens.append(("id", m.group("id")))
        else:
            tokens.append(("punct", m.group("punct")))

    def expect(kind, value=None):
        nonlocal i
        if i >= len(tokens):
            raise ValueError("unexpected end of input")
        t, v = tokens[i]
        if t != kind or (value is not None and v != value):
            raise ValueError(f"expected {value or kind}, got {v!r}")
        i += 1
        return v

    def parse_attrs():
        nonlocal i
        attrs = {}
        if i < len(tokens) and tokens[i] == ("punct", "["):
            i += 1
            while True:
                key = expect("id")
                expect("punct", "=")
                attrs[key] = expect("id")
                if tokens[i] == ("punct", ","):
                    i += 1
                    continue
                break
            expect("punct", "]")
        return attrs

    i = 0
    expect("id", "digraph")
    if tokens[i][0] == "id":  # optional graph name
        i += 1
    expect("punct", "{")
    nodes: dict[str, dict] = {}
    edges: list[tuple[str, str, dict]] = []
    while tokens[i] != ("punct", "}"):
        name = expect("id")
        if i < len(tokens) and tokens[i] == ("punct", "->"):
            i += 1
            head = expect("id")
            edges.append((name, head, parse_attrs()))
        else:
            nodes[name] = parse_attrs()
        if i < len(tokens) and tokens[i] == ("punct", ";"):
            i += 1
    expect("punct", "}")
    if i != len(tokens):
        raise ValueError("trailing tokens after closing brace")
    return nodes, edges
