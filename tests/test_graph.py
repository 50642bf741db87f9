"""Task-graph construction, random generation, analyses and the text format."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path_max_weight
from trisched.graph import (
    TaskGraph,
    bottom_levels,
    chain,
    dump_dag,
    fork,
    fork_identical,
    generate_random,
    parse_dag,
    topological_order,
)
from trisched.model import Task


class TestTaskGraph:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph((Task(0, 1.0), Task(0, 2.0)), frozenset())

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph((Task(0, 1.0),), frozenset({(0, 0)}))

    def test_dangling_edge_rejected(self):
        with pytest.raises(ValueError):
            TaskGraph((Task(0, 1.0),), frozenset({(0, 5)}))

    def test_cycle_detected_with_offending_node(self):
        with pytest.raises(ValueError, match="cycle"):
            TaskGraph(
                (Task(0, 1.0), Task(1, 1.0)), frozenset({(0, 1), (1, 0)})
            )

    def test_hash_is_the_dataclass_value(self):
        g = generate_random(40, 80, seed=3)
        twin = parse_dag(dump_dag(g))
        assert twin == g and twin is not g
        assert hash(twin) == hash(g) == hash((g.tasks, g.edges))


class TestShapes:
    def test_chain_edges(self):
        g = chain([1.0, 2.0, 3.0])
        assert g.edges == frozenset({(0, 1), (1, 2)})
        assert [t.weight for t in g.tasks] == [1.0, 2.0, 3.0]

    def test_fork_edges(self):
        g = fork(1.0, [2.0, 5.0])
        assert g.edges == frozenset({(0, 1), (0, 2)})
        assert g.weight(0) == 1.0 and g.weight(2) == 5.0

    def test_fork_identical(self):
        g = fork_identical(3, 2.0)
        assert len(g) == 4
        assert all(t.weight == 2.0 for t in g.tasks)


class TestGenerateRandom:
    def test_two_nodes_one_edge_is_a_chain(self):
        g = generate_random(2, 1, seed=11)
        assert g.edges == frozenset({(0, 1)}) or g.edges == frozenset({(1, 0)})
        assert topological_order(g) in ([0, 1], [1, 0])

    def test_deterministic(self):
        a = generate_random(100, 300, seed=5)
        b = generate_random(100, 300, seed=5)
        assert a.tasks == b.tasks and a.edges == b.edges

    def test_different_seeds_differ(self):
        a = generate_random(30, 60, seed=1)
        b = generate_random(30, 60, seed=2)
        assert a.edges != b.edges or a.tasks != b.tasks

    def test_counts_and_weight_range(self):
        g = generate_random(100, 300, seed=3)
        assert len(g) == 100 and len(g.edges) == 300
        assert all(0.0 < t.weight <= 10.0 for t in g.tasks)

    def test_custom_weight_range(self):
        g = generate_random(20, 10, weight_range=(1.0, 2.0), seed=3)
        assert all(1.0 <= t.weight <= 2.0 for t in g.tasks)

    def test_too_many_edges_rejected(self):
        with pytest.raises(ValueError):
            generate_random(4, 7, seed=0)

    @given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_always_acyclic_with_exact_counts(self, n, seed):
        m = min(3 * n, n * (n - 1) // 2)
        g = generate_random(n, m, seed=seed)
        order = topological_order(g)  # raises on a cycle
        assert len(order) == n and len(g.edges) == m


class TestBottomLevels:
    def test_chain(self):
        bl = bottom_levels(chain([2.0, 3.0]))
        assert bl == {0: 5.0, 1: 3.0}

    def test_isolated_task(self):
        bl = bottom_levels(TaskGraph((Task(0, 7.0),), frozenset()))
        assert bl == {0: 7.0}

    def test_fork(self):
        bl = bottom_levels(fork(1.0, [2.0, 5.0]))
        assert bl[0] == 6.0 and bl[1] == 2.0 and bl[2] == 5.0

    def test_matches_path_enumeration(self):
        rng = random.Random(13)
        for _ in range(20):
            n = rng.randint(1, 10)
            m = rng.randint(0, n * (n - 1) // 2)
            g = generate_random(n, m, seed=rng.randint(0, 10 ** 6))
            bl = bottom_levels(g)
            for t in g.tasks:
                assert bl[t.id] == pytest.approx(path_max_weight(g, t.id), rel=1e-12)


class TestOrderings:
    def test_chain_identity_order(self):
        assert topological_order(chain([1.0] * 5)) == [0, 1, 2, 3, 4]

    def test_fork_source_first(self):
        assert topological_order(fork(1.0, [1.0, 1.0]))[0] == 0

    def test_random_graph_edges_all_forward(self):
        g = generate_random(100, 300, seed=9)
        pos = {tid: i for i, tid in enumerate(topological_order(g))}
        assert all(pos[u] < pos[v] for u, v in g.edges)

    def test_predecessors(self):
        g = fork(1.0, [2.0, 3.0])
        assert g.predecessors(0) == []
        assert g.predecessors(1) == [0]


class TestDagFormat:
    def test_round_trip(self):
        g = generate_random(12, 20, seed=4)
        h = parse_dag(dump_dag(g))
        assert h.tasks == g.tasks and h.edges == g.edges

    def test_round_trip_no_edges(self):
        g = generate_random(5, 0, seed=4)
        h = parse_dag(dump_dag(g))
        assert h.tasks == g.tasks and h.edges == g.edges

    def test_non_finite_weights_rejected(self):
        for text in ("1 0\n0 nan\n", "1 0\n0 inf\n"):
            with pytest.raises(ValueError):
                parse_dag(text)

    def test_weight_range_without_positive_values_rejected(self):
        for weight_range in ((-2.0, -1.0), (0.0, 0.0), (-1.0, 0.0), (math.nan, 1.0)):
            with pytest.raises(ValueError):
                generate_random(3, 1, weight_range=weight_range, seed=0)
