import math

import numpy as np
import pytest
from hypothesis import given, settings

from quantir.circuit import Circuit, Instruction, flatten
from quantir.gates import GateKind
from quantir.sim import (
    MAX_SIM_QUBITS, SimulationError, circuit_unitary, equivalent,
    fidelity_up_to_phase, gate_matrix, permute_state, random_state,
    routed_fidelity, simulate, strip_trailing_measures,
)

from conftest import circuits, ghz

RNG = np.random.default_rng(1234)


class TestGateMatrices:
    def test_x1_is_sqrt_x(self):
        m = gate_matrix(GateKind.X1)
        assert np.allclose(m @ m, gate_matrix(GateKind.X))

    def test_all_unitary(self):
        for kind in GateKind:
            if kind in (GateKind.MEASURE, GateKind.BARRIER):
                continue
            n = 1 if kind.opclass < 3 else 2
            params = {1: (0.7,), 3: (0.7, 0.3, 0.9)}.get(
                {GateKind.RX: 1, GateKind.RY: 1, GateKind.RZ: 1,
                 GateKind.U3: 3}.get(kind, 0), ())
            m = gate_matrix(kind, params)
            assert np.allclose(m @ m.conj().T, np.eye(2 ** n)), kind

    @pytest.mark.parametrize("kind", [GateKind.MEASURE, GateKind.BARRIER])
    def test_non_unitary_kinds_rejected(self, kind):
        with pytest.raises(SimulationError) as e:
            gate_matrix(kind)
        assert str(e.value) == f"{kind.name} has no unitary"

    def test_dagger_is_adjoint(self):
        for kind, params in [(GateKind.S, ()), (GateKind.X1, ()),
                             (GateKind.RX, (0.4,)), (GateKind.U3, (0.4, 1.0, 2.0))]:
            assert np.allclose(gate_matrix(kind, params, dagger=True),
                               gate_matrix(kind, params).conj().T)

    def test_phase_gates(self):
        assert np.allclose(gate_matrix(GateKind.S) @ gate_matrix(GateKind.S),
                           gate_matrix(GateKind.Z))
        assert np.allclose(gate_matrix(GateKind.T) @ gate_matrix(GateKind.T),
                           gate_matrix(GateKind.S))


class TestSimulate:
    def test_ghz(self):
        s = simulate(ghz(3))
        want = np.zeros(8, dtype=complex)
        want[0] = want[7] = 1 / math.sqrt(2)
        assert np.allclose(s, want)

    def test_qubit0_is_lsb(self):
        s = simulate(Circuit(2).x(0))
        assert abs(s[1]) == pytest.approx(1.0)  # |01> -> index 1
        s = simulate(Circuit(2).x(1))
        assert abs(s[2]) == pytest.approx(1.0)

    def test_cnot_direction(self):
        # control 1, target 0
        s = simulate(Circuit(2).x(1).cnot(1, 0))
        assert abs(s[3]) == pytest.approx(1.0)
        s = simulate(Circuit(2).x(0).cnot(1, 0))
        assert abs(s[1]) == pytest.approx(1.0)  # control clear: no flip

    def test_swap(self):
        s = simulate(Circuit(2).x(0).swap(0, 1))
        assert abs(s[2]) == pytest.approx(1.0)

    def test_measure_rejected(self):
        with pytest.raises(SimulationError):
            simulate(Circuit(1, 1).measure(0, 0))

    def test_barrier_ignored(self):
        a = simulate(Circuit(2).h(0).barrier(0, 1).cnot(0, 1))
        b = simulate(ghz(2))
        assert np.allclose(a, b)

    def test_width_cap(self):
        with pytest.raises(SimulationError):
            simulate(Circuit(MAX_SIM_QUBITS + 1))

    def test_narrower_width_rejected(self):
        with pytest.raises(SimulationError) as e:
            simulate(Circuit(3), num_qubits=2)
        assert str(e.value) == "num_qubits narrower than the circuit"

    def test_state_of_wrong_length_rejected(self):
        with pytest.raises(SimulationError) as e:
            simulate(Circuit(2).h(0), state=np.ones(3))
        assert str(e.value) == "state must have length 4"

    def test_padding(self):
        s = simulate(Circuit(1).x(0), num_qubits=3)
        assert abs(s[1]) == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(circuits(max_qubits=4, max_len=16))
    def test_circuit_followed_by_dagger_is_identity(self, c):
        full = Circuit(c.num_qubits).sub(c).sub(c, dagger=True)
        psi = random_state(c.num_qubits, RNG)
        out = simulate(full, psi.copy())
        assert fidelity_up_to_phase(psi, out) > 1 - 1e-9

    @settings(max_examples=40, deadline=None)
    @given(circuits(max_qubits=4, max_len=16))
    def test_norm_preserved(self, c):
        out = simulate(c)
        assert np.linalg.norm(out) == pytest.approx(1.0)


class TestHelpers:
    def test_fidelity_phase_invariant(self):
        psi = random_state(3, RNG)
        assert fidelity_up_to_phase(psi, np.exp(1j * 0.7) * psi) == pytest.approx(1.0)

    def test_random_state_normalized(self):
        assert np.linalg.norm(random_state(5, RNG)) == pytest.approx(1.0)

    def test_permute_state_roundtrip(self):
        n = 3
        l2p = [2, 0, 1]
        psi = random_state(n, RNG)
        moved = permute_state(psi, l2p, n)
        p2l = [0] * n
        for l, p in enumerate(l2p):
            p2l[p] = l
        back = permute_state(moved, p2l, n)
        assert np.allclose(back, psi)

    def test_permute_state_moves_wires(self):
        # logical 0 excited, mapped to physical 2
        psi = np.zeros(8, dtype=complex)
        psi[1] = 1.0
        out = permute_state(psi, [2, 0, 1], 3)
        assert abs(out[4]) == pytest.approx(1.0)

    def test_strip_trailing_measures(self):
        c = Circuit(2).h(0).measure(0, 0).measure(1, 1)
        out = strip_trailing_measures(c)
        assert [i.kind for i in out.body] == [GateKind.H]

    def test_mid_circuit_measure_rejected(self):
        c = Circuit(2)
        c.measure(0, 0)
        c.h(1)
        with pytest.raises(ValueError, match="measurement must be final"):
            strip_trailing_measures(c)


class TestRoutedEquivalence:
    def test_identity_layouts(self):
        c = ghz(3)
        assert equivalent(c, c, [0, 1, 2], [0, 1, 2])

    def test_swap_inserted_version(self):
        # route CNOT(0,2) on a path 0-1-2 by swapping 0 into 1
        orig = Circuit(3).cnot(0, 2)
        routed = Circuit(3).swap(0, 1).cnot(1, 2)
        assert equivalent(orig, routed, [0, 1, 2], [1, 0, 2])

    def test_initial_relabeling(self):
        # logical wires placed as l->p: 0->1, 1->0
        orig = Circuit(2).x(0)
        routed = Circuit(2).x(1)
        assert equivalent(orig, routed, [1, 0], [1, 0])

    def test_detects_wrong_circuit(self):
        assert not equivalent(Circuit(2).x(0), Circuit(2).y(0), [0, 1], [0, 1])

    def test_padding_narrow_original(self):
        orig = Circuit(2).cnot(0, 1)
        routed = Circuit(3).cnot(0, 1)
        assert equivalent(orig, routed, [0, 1, 2], [0, 1, 2])

    def test_bad_layout_rejected(self):
        with pytest.raises(SimulationError):
            routed_fidelity(Circuit(2), Circuit(2), [0, 0], [0, 1])


def test_circuit_unitary_h():
    u = circuit_unitary(Circuit(1).h(0))
    assert np.allclose(u, np.array([[1, 1], [1, -1]]) / math.sqrt(2))
