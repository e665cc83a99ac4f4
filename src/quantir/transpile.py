"""End-to-end compilation: preprocess, place, route, optimize, lower.

``transpile`` runs a staged pipeline controlled by ``TranspileConfig.level``:

* level 0 — preprocess (flatten + basis lowering), placement, routing, and
  expansion of routing SWAPs into the basis.  No optimization.
* level 1 — level 0 plus same-axis rotation merging before placement and
  after routing.
* level 2 — level 1 plus inverse-pair cancellation at both points.  The
  post-routing cancellation runs before SWAP expansion so adjacent routing
  SWAPs can annihilate.

After routing, levels 1 and 2 run their passes again unless the route
inserted no SWAP and the pre-route body is already a fixpoint of them: at
level 1 always, at level 2 when the pre-route cancellation dropped nothing.
A swap-free route only relabels the wires of a topological order of the
DAG, so every wire keeps its sequence and the passes would change nothing.

Everything is deterministic per (circuit, graph, config).
"""
from __future__ import annotations

import operator
import time
from dataclasses import dataclass

from .circuit import (Circuit, CircuitError, Instruction, depth, flatten,
                      layered_depth, split_trailing_measures)
from .dag import CircuitDag
from .gates import CLS_2Q, GateKind
from .passes import (BASES, cancel_adjacent_inverses, decompose_to_basis,
                     expand_swaps, merge_adjacent_rotations)
from .sabre import Layout, SabreConfig, _best_trial, _physical_singles
from .topology import CouplingGraph

__all__ = ["TranspileConfig", "TranspileStats", "TranspileResult",
           "TranspileError", "preprocess", "transpile"]

LEVELS = (0, 1, 2)


class TranspileError(ValueError):
    """Transpilation input or configuration is invalid."""


@dataclass(frozen=True)
class TranspileConfig:
    """Pipeline knobs; ``routing`` holds the router's own."""

    level: int = 1
    basis: str = "none"
    seed: int = 0
    routing: SabreConfig = SabreConfig()

    def __post_init__(self):
        # any integer, NumPy's too; 2.0 and True equal levels 2 and 1
        try:
            known = type(self.level) is not bool and operator.index(self.level) in LEVELS
        except TypeError:
            known = False
        if not known:
            raise TranspileError(f"level must be one of {LEVELS}, "
                                 f"got {self.level!r}")
        if self.basis not in BASES:
            raise TranspileError(f"basis must be one of {BASES}, "
                                 f"got {self.basis!r}")

    def sabre(self) -> SabreConfig:
        return self.routing


@dataclass(frozen=True)
class TranspileStats:
    swaps_inserted: int
    depth_before: int
    depth_after: int
    two_q_count: int
    two_q_depth: int
    elapsed: float  # seconds


@dataclass(frozen=True)
class TranspileResult:
    circuit: Circuit
    initial_layout: Layout
    final_layout: Layout
    stats: TranspileStats


def _split_measures(flat: Circuit) -> tuple[Circuit, list[Instruction]]:
    try:
        return split_trailing_measures(flat)
    except CircuitError:
        raise TranspileError("measurement must be final") from None


def preprocess(circuit: Circuit, config: TranspileConfig) -> Circuit:
    """Flatten, check measurement placement, lower to the target basis."""
    flat = flatten(circuit)
    _split_measures(flat)
    return decompose_to_basis(flat, config.basis)


def transpile(circuit: Circuit, graph: CouplingGraph,
              config: TranspileConfig = TranspileConfig()) -> TranspileResult:
    """Compile ``circuit`` for ``graph``; see the module overview."""
    t0 = time.perf_counter()
    flat = flatten(circuit)
    depth_before = depth(flat)

    # split off the (validated trailing) measurements; they are re-attached
    # at the end, re-targeted through the final layout
    gates, measures = _split_measures(flat)
    pre = decompose_to_basis(gates, config.basis)

    if config.level >= 1:
        pre = merge_adjacent_rotations(pre)
    settled = True  # pre is a fixpoint of every pass the level runs
    if config.level >= 2:
        merged = len(pre)
        pre = cancel_adjacent_inverses(pre)
        # cancellation only drops, so a kept length means it changed nothing
        settled = len(pre) == merged

    dag = CircuitDag(pre)
    initial, routed, final = _best_trial(dag, graph, config.sabre(), config.seed)
    swaps_inserted = len(routed) - len(pre)  # every node plus its SWAPs

    out = routed
    # a swap-free route relabels a topological order of the DAG, which keeps
    # every wire's sequence, so the passes would leave a settled body as it is
    if swaps_inserted or not settled:
        if config.level >= 1:
            out = merge_adjacent_rotations(out)
        if config.level >= 2:
            out = cancel_adjacent_inverses(out)
    if config.basis != "none" and swaps_inserted:
        # lowering before routing took out every input SWAP, so with no
        # routing SWAP there is nothing to expand
        out = expand_swaps(out, config.basis)

    raw, measure = Instruction._raw, GateKind.MEASURE
    ones = _physical_singles(out.num_qubits)
    out = Circuit._from_items(out.num_qubits, out.num_cbits, out.body + [
        raw(measure, ones[final.phys(m.qubits[0])], (), m.cbit, False)
        for m in measures], out.name)

    two_q = [ins.qubits for ins in out.body if ins.kind.opclass == CLS_2Q]
    stats = TranspileStats(
        swaps_inserted=swaps_inserted,
        depth_before=depth_before,
        depth_after=depth(out),
        two_q_count=len(two_q),
        two_q_depth=layered_depth(out.num_qubits, two_q),
        elapsed=time.perf_counter() - t0,
    )
    return TranspileResult(out, initial, final, stats)
