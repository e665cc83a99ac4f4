"""ASCII rendering smoke tests (layout is not a stability contract)."""
from quantir.circuit import Circuit
from quantir.draw import draw

from conftest import ghz


def test_one_line_per_wire_all_same_length():
    text = draw(ghz(4))
    lines = text.splitlines()
    assert len(lines) == 4
    assert len({len(line) for line in lines}) == 1
    assert text.endswith("\n")


def test_ghz_tokens():
    text = draw(ghz(3))
    assert "[H]" in text and "*" in text and "+" in text
    assert text.splitlines()[0].startswith("q0: ")


def test_gate_labels():
    c = Circuit(2, 1)
    c.rz(0, 0.5)
    c.x1(1, dagger=True)
    c.u3(0, 0.1, 0.2, 0.3)
    c.swap(0, 1)
    c.cz(0, 1)
    c.barrier(0, 1)
    c.measure(1, 0)
    text = draw(c)
    assert "[RZ(0.5)]" in text
    assert "[X1']" in text
    assert "[U3(0.1,0.2,0.3)]" in text
    assert "x" in text and ":" in text
    assert "[M->c0]" in text


def test_distant_operands_draw_connector():
    c = Circuit(3)
    c.cnot(0, 2)
    lines = draw(c).splitlines()
    assert "*" in lines[0] and "|" in lines[1] and "+" in lines[2]


def test_blocked_span_pushes_same_column_gate():
    c = Circuit(3)
    c.h(1)
    c.cnot(0, 2)
    lines = draw(c).splitlines()
    # the connector through wire 1 lands after the H box, never over it
    assert lines[1].index("|") > lines[1].index("[H]")


def test_empty_and_flattening():
    assert draw(Circuit(2)).count("\n") == 2
    inner = Circuit(1)
    inner.t(0)
    outer = Circuit(1)
    outer.sub(inner)
    assert "[T]" in draw(outer)


def test_deterministic():
    c = ghz(5)
    assert draw(c) == draw(c)


def test_no_wires_draws_nothing():
    assert draw(Circuit(0)) == ""
