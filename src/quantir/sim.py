"""Dense statevector simulation, the correctness oracle for everything else.

Amplitude index convention: qubit 0 is the least significant bit of the
basis index.  Capped at 12 qubits; this is a verification tool, not a
simulator product.
"""
from __future__ import annotations

import cmath
import math

import numpy as np

from .circuit import Circuit, Instruction, flatten, split_trailing_measures
from .gates import GateKind

MAX_SIM_QUBITS = 12


class SimulationError(ValueError):
    """Circuit cannot be simulated (too wide, or contains MEASURE)."""


_H = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
_X1 = np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex) / 2  # sqrt(X)

_FIXED_1Q = {
    GateKind.I: np.eye(2, dtype=complex),
    GateKind.H: _H,
    GateKind.X: _X,
    GateKind.Y: _Y,
    GateKind.Z: _Z,
    GateKind.S: np.diag([1, 1j]).astype(complex),
    GateKind.SDG: np.diag([1, -1j]).astype(complex),
    GateKind.T: np.diag([1, cmath.exp(1j * math.pi / 4)]),
    GateKind.TDG: np.diag([1, cmath.exp(-1j * math.pi / 4)]),
    GateKind.X1: _X1,
}

# two-qubit matrices in the basis |x_a x_b> with a the first operand
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
_CZ = np.diag([1, 1, 1, -1]).astype(complex)
_SWAP = np.array([[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
_FIXED_2Q = {GateKind.CNOT: _CNOT, GateKind.CZ: _CZ, GateKind.SWAP: _SWAP}


def gate_matrix(kind: GateKind, params=(), dagger: bool = False) -> np.ndarray:
    """Unitary of one gate kind (2x2 or 4x4)."""
    if kind in _FIXED_1Q:
        m = _FIXED_1Q[kind]
        return m.conj().T if dagger else m.copy()
    if kind in _FIXED_2Q:
        m = _FIXED_2Q[kind]
        return m.conj().T if dagger else m.copy()
    if kind is GateKind.RX:
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        m = np.array([[c, -1j * s], [-1j * s, c]])
    elif kind is GateKind.RY:
        (theta,) = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        m = np.array([[c, -s], [s, c]], dtype=complex)
    elif kind is GateKind.RZ:
        (theta,) = params
        m = np.diag([cmath.exp(-1j * theta / 2), cmath.exp(1j * theta / 2)])
    elif kind is GateKind.U3:
        theta, phi, lam = params
        c, s = math.cos(theta / 2), math.sin(theta / 2)
        m = np.array([
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ])
    else:
        raise SimulationError(f"{kind.name} has no unitary")
    return m.conj().T if dagger else m


def _apply_1q(state: np.ndarray, m: np.ndarray, q: int, n: int) -> np.ndarray:
    t = state.reshape(1 << (n - q - 1), 2, 1 << q)
    return np.einsum("ab,xbz->xaz", m, t).reshape(-1)


def _apply_2q(state: np.ndarray, m: np.ndarray, a: int, b: int, n: int) -> np.ndarray:
    hi, lo = (a, b) if a > b else (b, a)
    t = state.reshape(1 << (n - hi - 1), 2, 1 << (hi - lo - 1), 2, 1 << lo)
    m4 = m.reshape(2, 2, 2, 2)  # [i_a, i_b, k_a, k_b]
    if a == hi:
        out = np.einsum("ABab,xaybz->xAyBz", m4, t)
    else:
        out = np.einsum("ABab,xbyaz->xByAz", m4, t)
    return out.reshape(-1)


def apply_instruction(state: np.ndarray, ins: Instruction, n: int) -> np.ndarray:
    kind = ins.kind
    if kind is GateKind.BARRIER or kind is GateKind.I:
        return state
    if kind is GateKind.MEASURE:
        raise SimulationError("cannot simulate MEASURE; strip measurements first")
    m = gate_matrix(kind, ins.params, ins.dagger)
    if len(ins.qubits) == 1:
        return _apply_1q(state, m, ins.qubits[0], n)
    return _apply_2q(state, m, ins.qubits[0], ins.qubits[1], n)


def simulate(c: Circuit, state: np.ndarray | None = None,
             num_qubits: int | None = None) -> np.ndarray:
    """Run a measurement-free circuit on a statevector.

    ``num_qubits`` widens the register (extra wires idle); defaults to the
    circuit's own width.  Starts from |0...0> unless ``state`` is given.
    """
    n = c.num_qubits if num_qubits is None else num_qubits
    if n < c.num_qubits:
        raise SimulationError("num_qubits narrower than the circuit")
    if n > MAX_SIM_QUBITS:
        raise SimulationError(f"statevector oracle capped at {MAX_SIM_QUBITS} qubits, got {n}")
    if state is None:
        state = np.zeros(1 << n, dtype=complex)
        state[0] = 1.0
    else:
        state = np.asarray(state, dtype=complex)
        if state.shape != (1 << n,):
            raise SimulationError(f"state must have length {1 << n}")
    for ins in flatten(c).body:
        state = apply_instruction(state, ins, n)
    return state


def circuit_unitary(c: Circuit) -> np.ndarray:
    """Full unitary of a measurement-free circuit (small circuits only)."""
    n = c.num_qubits
    dim = 1 << n
    cols = []
    for b in range(dim):
        e = np.zeros(dim, dtype=complex)
        e[b] = 1.0
        cols.append(simulate(c, e))
    return np.stack(cols, axis=1)


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish random state: normalized complex Gaussian amplitudes."""
    v = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return v / np.linalg.norm(v)


def fidelity_up_to_phase(a: np.ndarray, b: np.ndarray) -> float:
    """|<a|b>| for normalized states: 1.0 means equal up to global phase."""
    return float(abs(np.vdot(a, b)))


def permute_state(state: np.ndarray, l2p, n: int) -> np.ndarray:
    """Relabel wires: logical wire l's amplitude moves to physical wire l2p[l]."""
    basis = np.arange(1 << n)
    logical = np.zeros(1 << n, dtype=np.int64)
    for l in range(n):
        logical |= ((basis >> l2p[l]) & 1) << l
    return state[logical]


def strip_trailing_measures(c: Circuit) -> Circuit:
    """Drop the trailing MEASURE suffix; error if a measure sits mid-body."""
    return split_trailing_measures(c)[0]


def routed_fidelity(original: Circuit, routed: Circuit, initial_layout,
                    final_layout, trials: int = 3, seed: int = 0) -> float:
    """Worst-case fidelity of a routed circuit against the original.

    The routed circuit acts on physical wires: inputs are permuted through
    ``initial_layout`` (logical -> physical) and outputs back through
    ``final_layout``.  Random input states, seeded.
    """
    original = strip_trailing_measures(original)
    routed = strip_trailing_measures(routed)
    n = routed.num_qubits
    l2p_init = list(initial_layout)
    l2p_final = list(final_layout)
    if sorted(l2p_init) != list(range(n)) or sorted(l2p_final) != list(range(n)):
        raise SimulationError("layouts must be permutations of the physical wires")
    rng = np.random.default_rng(seed)
    worst = 1.0
    for _ in range(max(1, trials)):
        psi = random_state(n, rng)
        want = simulate(original, psi, num_qubits=n)
        got_phys = simulate(routed, permute_state(psi, l2p_init, n))
        # invert the final relabeling: physical wire p holds logical p2l[p]
        p2l = [0] * n
        for l, p in enumerate(l2p_final):
            p2l[p] = l
        got = permute_state(got_phys, p2l, n)
        worst = min(worst, fidelity_up_to_phase(want, got))
    return worst


def equivalent(original: Circuit, routed: Circuit, initial_layout, final_layout,
               trials: int = 3, seed: int = 0, tol: float = 1e-9) -> bool:
    """True when the routed circuit matches the original up to global phase."""
    return routed_fidelity(original, routed, initial_layout, final_layout,
                           trials=trials, seed=seed) >= 1.0 - tol
