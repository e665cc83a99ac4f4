import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from quantir.topology import (
    CouplingGraph, TopologyError, build, full, heavy_hex, linear,
    random_topology, square,
)


class TestCouplingGraph:
    def test_basic(self):
        g = CouplingGraph(3, [(0, 1), (2, 1)])
        assert g.edges == ((0, 1), (1, 2))
        assert g.neighbors(1) == (0, 2)
        assert g.degree(1) == 2
        assert g.has_edge(1, 0) and not g.has_edge(0, 2)

    def test_duplicate_and_reversed_edges_collapse(self):
        g = CouplingGraph(2, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_disconnected_rejected(self):
        with pytest.raises(TopologyError, match="not connected"):
            CouplingGraph(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            CouplingGraph(2, [(0, 0), (0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(TopologyError, match="out of range"):
            CouplingGraph(2, [(0, 5)])

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            CouplingGraph(0, [])

    @pytest.mark.parametrize("n,edges,message", [
        (3.9, [(0, 1), (1, 2)], "qubit count must be an integer, got 3.9"),
        ("3", [(0, 1), (1, 2)], "qubit count must be an integer, got '3'"),
        (True, [], "qubit count must be an integer, got True"),
        (3, [(0, 1), (1, 2.7)], "edge entry must be an integer, got 2.7"),
        (3, [("0", "1"), (1, 2)], "edge entry must be an integer, got '0'"),
        (3, [(0, 1), (True, 2)], "edge entry must be an integer, got True"),
    ], ids=["float-n", "str-n", "bool-n", "float-edge", "str-edge", "bool-edge"])
    def test_non_integers_rejected(self, n, edges, message):
        with pytest.raises(TopologyError) as exc:
            CouplingGraph(n, edges)
        assert str(exc.value) == message

    def test_numpy_integers_accepted(self):
        g = CouplingGraph(np.int64(3), [(np.int32(0), np.int64(1)), (1, 2)])
        assert g.num_qubits == 3 and type(g.num_qubits) is int
        assert g.edges == ((0, 1), (1, 2))
        assert all(type(q) is int for e in g.edges for q in e)

    def test_single_node(self):
        g = CouplingGraph(1, [])
        assert g.num_qubits == 1 and g.edges == ()

    def test_distances(self):
        g = linear(5)
        assert g.distance(0, 4) == 4
        assert g.distance(2, 2) == 0
        m = g.distance_matrix()
        assert m.shape == (5, 5)
        assert (m == m.T).all()
        assert m[0, 3] == 3

    def test_distance_matrix_cached(self):
        g = linear(4)
        assert g.distance_matrix() is g.distance_matrix()


class TestJson:
    def test_roundtrip(self):
        g = square(7)
        g2 = CouplingGraph.from_json(g.to_json())
        assert g2 == g

    def test_shape(self):
        obj = json.loads(linear(3).to_json())
        assert obj == {"n": 3, "edges": [[0, 1], [1, 2]]}

    @pytest.mark.parametrize("text", [
        "not json", "[]", '{"n": 3}', '{"edges": []}',
        '{"n": "3", "edges": []}', '{"n": 3, "edges": [[0]]}',
        '{"n": 3, "edges": [[0, "1"]]}', '{"n": 2, "edges": [[0, 1, 2]]}',
    ])
    def test_malformed(self, text):
        with pytest.raises(TopologyError):
            CouplingGraph.from_json(text)

    @pytest.mark.parametrize("text", [
        '{"n": true, "edges": []}',
        '{"n": 2, "edges": [[true, false]]}',
    ])
    def test_rejects_booleans(self, text):
        # JSON true and false are not qubit counts or indices
        with pytest.raises(TopologyError):
            CouplingGraph.from_json(text)


class TestBuilders:
    def test_linear(self):
        g = linear(4)
        assert g.edges == ((0, 1), (1, 2), (2, 3))

    def test_square_exact(self):
        g = square(4)  # 2x2
        assert g.edges == ((0, 1), (0, 2), (1, 3), (2, 3))

    def test_square_ragged(self):
        g = square(7)  # 2 rows x 4 cols, last cell missing
        assert g.num_qubits == 7
        assert (0, 4) in g.edges and (3, 6) not in g.edges

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12, 17, 72])
    def test_square_connected_all_sizes(self, n):
        assert square(n).num_qubits == n  # constructor checks connectivity

    def test_full(self):
        g = full(4)
        assert len(g.edges) == 6
        assert (g.distance_matrix()[~np.eye(4, dtype=bool)] == 1).all()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_is_connected_tree_plus_extras(self, seed):
        n = 12
        g = random_topology(n, extra_edge_fraction=0.25, seed=seed)
        assert g.num_qubits == n
        assert len(g.edges) == (n - 1) + round(0.25 * n)

    def test_random_deterministic(self):
        assert random_topology(9, seed=3) == random_topology(9, seed=3)
        assert random_topology(9, seed=3) != random_topology(9, seed=4)

    def test_random_small(self):
        assert random_topology(1, extra_edge_fraction=0).num_qubits == 1
        assert random_topology(2, extra_edge_fraction=0).edges == ((0, 1),)

    def test_random_fraction_capped_by_complete_graph(self):
        g = random_topology(4, extra_edge_fraction=10.0, seed=0)
        assert len(g.edges) == 6

    @pytest.mark.parametrize("d,count", [(3, 19), (5, 57), (7, 115)])
    def test_heavy_hex_counts(self, d, count):
        g = heavy_hex(d)
        assert g.num_qubits == count
        assert g.num_qubits == (5 * d * d - 2 * d - 1) // 2

    def test_heavy_hex_degree_bound(self):
        # row qubits: <=2 horizontal + <=2 bridges; bridges always 2
        g = heavy_hex(5)
        assert max(g.degree(q) for q in range(g.num_qubits)) <= 4

    def test_heavy_hex_bridges_have_degree_two(self):
        d = 3
        g = heavy_hex(d)
        for q in range(d * (2 * d - 1), g.num_qubits):
            assert g.degree(q) == 2

    @pytest.mark.parametrize("d", [1, 2, 4, 0, -3])
    def test_heavy_hex_bad_distance(self, d):
        with pytest.raises(TopologyError):
            heavy_hex(d)

    def test_build_factory(self):
        assert build("linear", 5) == linear(5)
        assert build("heavy_hex", 3) == heavy_hex(3)
        with pytest.raises(TopologyError, match="unknown topology"):
            build("torus", 5)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=1, max_value=40), st.integers(0, 5))
    def test_random_always_valid(self, n, seed):
        g = random_topology(n, seed=seed)
        assert g.num_qubits == n  # constructor enforces connectivity


@pytest.mark.parametrize("build, what", [(square, "square"),
                                         (random_topology, "random")])
def test_topology_with_no_qubit_is_refused(build, what):
    with pytest.raises(TopologyError) as e:
        build(0)
    assert str(e.value) == f"{what} topology needs at least one qubit"
