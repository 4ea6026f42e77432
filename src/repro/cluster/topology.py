"""Two-layer partial fat-tree interconnect model.

The Supercloud nodes are wired by 100 Gb/s Omnipath in a two-layer
partial fat-tree.  The scheduler uses the topology to place multi-node
jobs "as densely as possible, either on the same node or on
neighboring nodes on the network interconnect" (paper Sec. V).  We
model leaf switches each serving a fixed radix of nodes and a core
layer connecting every leaf.  Distance queries are arithmetic on the
leaf index; :attr:`FatTreeTopology.graph` builds the same wiring as a
:mod:`networkx` graph on first access, for inspection only.
"""

from __future__ import annotations

import functools
import itertools

from repro.errors import ReproError


class FatTreeTopology:
    """A two-layer fat tree: nodes -> leaf switches -> core switches.

    Parameters
    ----------
    num_nodes:
        Number of compute nodes.
    leaf_radix:
        Compute nodes attached to one leaf switch.
    num_core:
        Core switches; every leaf uplinks to every core ("partial"
        means the uplink bandwidth is tapered, which does not affect
        hop distances).
    """

    def __init__(self, num_nodes: int, leaf_radix: int = 32, num_core: int = 2) -> None:
        if num_nodes <= 0 or leaf_radix <= 0 or num_core <= 0:
            raise ReproError("topology sizes must be positive")
        self.num_nodes = num_nodes
        self.leaf_radix = leaf_radix
        self.num_core = num_core
        self.num_leaves = (num_nodes + leaf_radix - 1) // leaf_radix

    @functools.cached_property
    def graph(self):
        """The switch wiring as a :class:`networkx.Graph` (built lazily)."""
        import networkx as nx

        graph = nx.Graph()
        for node in range(self.num_nodes):
            graph.add_edge(("node", node), ("leaf", self._leaf_of(node)))
        for leaf, core in itertools.product(range(self.num_leaves), range(self.num_core)):
            graph.add_edge(("leaf", leaf), ("core", core))
        return graph

    def _leaf_of(self, node: int) -> int:
        return node // self.leaf_radix

    def leaf_of(self, node: int) -> int:
        """Leaf switch index serving ``node``."""
        self._check_node(node)
        return self._leaf_of(node)

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise ReproError(f"node {node} out of range [0, {self.num_nodes})")

    def hop_distance(self, a: int, b: int) -> int:
        """Switch hops between two nodes (0 if same node, 2 if same
        leaf, 4 across the core)."""
        self._check_node(a)
        self._check_node(b)
        if a == b:
            return 0
        if self._leaf_of(a) == self._leaf_of(b):
            return 2
        return 4

    def group_span(self, nodes: list[int]) -> int:
        """Worst-case hop distance within a placement group.

        Dense placements (span 0 or 2) keep NCCL all-reduce traffic off
        the tapered core uplinks.
        """
        if not nodes:
            return 0
        return max(self.hop_distance(a, b) for a in nodes for b in nodes)

    def neighbors_by_distance(self, node: int) -> list[int]:
        """All other nodes ordered by hop distance then index — the
        scheduler's candidate order for growing a multi-node placement."""
        self._check_node(node)
        others = [n for n in range(self.num_nodes) if n != node]
        return sorted(others, key=lambda n: (self.hop_distance(node, n), n))

    def bisection_links(self) -> int:
        """Number of leaf-to-core links crossing the bisection."""
        return self.num_leaves * self.num_core
