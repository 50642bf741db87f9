"""Task-graph representation, deterministic random generation and analyses.

Graphs are immutable after construction. Random generation uses the stdlib
Mersenne Twister (``random.Random``) seeded explicitly, so a given seed
always yields the same graph.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

from .model import Task


@dataclass(frozen=True)
class TaskGraph:
    """Weighted DAG: ordered task list plus precedence edges (pred, succ)."""

    tasks: tuple[Task, ...]
    edges: frozenset[tuple[int, int]]
    _succs: dict = field(init=False, repr=False, compare=False)
    _preds: dict = field(init=False, repr=False, compare=False)
    _topo: tuple = field(init=False, repr=False, compare=False)
    _by_id: dict = field(init=False, repr=False, compare=False)
    # Every task id by decreasing weight, ties by id: the greedy walks' order.
    _by_weight: tuple = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)
    # Per-graph memos of data derived from the graph and one more value:
    # ``schedule._indexed`` keyed by the mapping, ``schedule._thresholds`` by
    # the platform, ``heuristics._floors`` by ``("f_inf", platform)``. They
    # live as long as the graph, and an equal graph has its own, so a lookup
    # never compares two graphs.
    _memo: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate task ids")
        id_set = set(ids)
        succs: dict[int, list[int]] = {i: [] for i in ids}
        preds: dict[int, list[int]] = {i: [] for i in ids}
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on task {u}")
            if u not in id_set or v not in id_set:
                raise ValueError(f"edge ({u}, {v}) references unknown task")
            succs[u].append(v)
            preds[v].append(u)
        for lst in succs.values():
            lst.sort()
        for lst in preds.values():
            lst.sort()
        object.__setattr__(self, "_succs", succs)
        object.__setattr__(self, "_preds", preds)
        object.__setattr__(self, "_topo", tuple(_kahn(ids, succs, preds)))
        object.__setattr__(self, "_by_id", {t.id: t for t in self.tasks})
        object.__setattr__(self, "_by_weight", tuple(
            t.id for t in sorted(self.tasks, key=lambda t: (-t.weight, t.id))))
        object.__setattr__(self, "_hash", hash((self.tasks, self.edges)))
        object.__setattr__(self, "_memo", {})

    def __hash__(self) -> int:
        # The value the dataclass would compute, but once: the graph is
        # immutable and memo keys that hold it (the type-B tail's) hash it.
        return self._hash

    def successors(self, tid: int) -> list[int]:
        return list(self._succs[tid])

    def predecessors(self, tid: int) -> list[int]:
        return list(self._preds[tid])

    def weight(self, tid: int) -> float:
        return self._by_id[tid].weight

    def __len__(self) -> int:
        return len(self.tasks)


def _kahn(ids, succs, preds):
    """Deterministic topological order (smallest id first among ready nodes)."""
    import heapq

    indeg = {i: len(preds[i]) for i in ids}
    ready = [i for i in ids if indeg[i] == 0]
    heapq.heapify(ready)
    order = []
    while ready:
        u = heapq.heappop(ready)
        order.append(u)
        for v in succs[u]:
            indeg[v] -= 1
            if indeg[v] == 0:
                heapq.heappush(ready, v)
    if len(order) != len(ids):
        stuck = min(i for i in ids if indeg[i] > 0)
        raise ValueError(f"graph has a cycle through task {stuck}")
    return order


def topological_order(g: TaskGraph) -> list[int]:
    return list(g._topo)


def chain(weights) -> TaskGraph:
    """Linear chain T_0 -> T_1 -> ... with the given weights."""
    tasks = tuple(Task(i, float(w)) for i, w in enumerate(weights))
    edges = frozenset((i, i + 1) for i in range(len(tasks) - 1))
    return TaskGraph(tasks, edges)


def fork(source_weight: float, leaf_weights) -> TaskGraph:
    """Fork: source T_0 with an edge to each leaf T_1..T_n."""
    tasks = [Task(0, float(source_weight))]
    tasks += [Task(i + 1, float(w)) for i, w in enumerate(leaf_weights)]
    edges = frozenset((0, i + 1) for i in range(len(tasks) - 1))
    return TaskGraph(tuple(tasks), edges)


def fork_identical(n_leaves: int, w: float) -> TaskGraph:
    return fork(w, [w] * n_leaves)


def generate_random(n: int, m: int, weight_range=(0.0, 10.0), seed: int = 0) -> TaskGraph:
    """Random DAG: n nodes, m edges drawn uniformly among forward pairs.

    Edges are sampled without replacement from the pairs (i, j) with i < j
    under the natural node order, so the result is acyclic by construction.
    Weights are uniform in weight_range; a draw that is not positive is
    resampled, so the range must reach above 0 (ValueError otherwise). Fully
    determined by the seed.
    """
    max_edges = n * (n - 1) // 2
    if m > max_edges:
        raise ValueError(f"m={m} exceeds the {max_edges} possible forward edges")
    lo, hi = weight_range
    if not max(lo, hi) > 0.0:
        raise ValueError(f"weight_range {weight_range} holds no positive weight")
    rng = random.Random(seed)
    weights = []
    for _ in range(n):
        w = rng.uniform(lo, hi)
        while w <= 0.0:
            w = rng.uniform(lo, hi)
        weights.append(w)
    all_pairs = list(itertools.combinations(range(n), 2))
    edges = frozenset(rng.sample(all_pairs, m))
    tasks = tuple(Task(i, weights[i]) for i in range(n))
    return TaskGraph(tasks, edges)


def bottom_levels(g: TaskGraph) -> dict[int, float]:
    """bl(T) = w + max over successors of bl(succ); leaves get their weight."""
    bl: dict[int, float] = {}
    for tid in reversed(g._topo):
        succ_bl = max((bl[s] for s in g.successors(tid)), default=0.0)
        bl[tid] = g.weight(tid) + succ_bl
    return bl


def dump_dag(g: TaskGraph) -> str:
    """Text format: header 'n m', then n 'id weight' lines, then m 'pred succ' lines."""
    lines = [f"{len(g.tasks)} {len(g.edges)}"]
    for t in g.tasks:
        lines.append(f"{t.id} {t.weight!r}")
    for u, v in sorted(g.edges):
        lines.append(f"{u} {v}")
    return "\n".join(lines) + "\n"


def parse_dag(text: str) -> TaskGraph:
    tokens = text.split()
    if len(tokens) < 2:
        raise ValueError("truncated DAG file: missing header")
    n, m = int(tokens[0]), int(tokens[1])
    need = 2 + 2 * n + 2 * m
    if len(tokens) < need:
        raise ValueError(f"truncated DAG file: expected {need} tokens, got {len(tokens)}")
    pos = 2
    tasks = []
    for _ in range(n):
        tid, w = int(tokens[pos]), float(tokens[pos + 1])
        tasks.append(Task(tid, w))
        pos += 2
    edges = set()
    for _ in range(m):
        u, v = int(tokens[pos]), int(tokens[pos + 1])
        if (u, v) in edges:
            raise ValueError(f"duplicate edge ({u}, {v})")
        edges.add((u, v))
        pos += 2
    return TaskGraph(tuple(tasks), frozenset(edges))
