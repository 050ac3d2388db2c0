"""The maximal cliques of the search loop's shrinking graph.

MARIOH's search loop (Algorithm 3) lists the maximal cliques of the
intermediate graph ``G'`` on every iteration.  :class:`CliqueCandidatePool`
memoizes that listing on the graph's ``structure_version``: iterations
that convert nothing, or only decrement weights, reuse the previous
list, and any edge that vanished triggers a fresh listing of the live
graph.  The list is derived from the graph at a version rather than
maintained beside it, so it cannot fall out of sync with the graph.
"""

from __future__ import annotations

from typing import Dict, List

from repro.hypergraph.cliques import Clique, maximal_cliques
from repro.hypergraph.graph import Node, WeightedGraph


class CliqueCandidatePool:
    """:func:`~repro.hypergraph.cliques.maximal_cliques_list` of
    ``graph``, listed again only when the graph's structure changed."""

    def __init__(self, graph: WeightedGraph) -> None:
        self._graph = graph
        self._list()

    def _list(self) -> None:
        members = {clique: sorted(clique) for clique in maximal_cliques(self._graph)}
        self._members: Dict[Clique, List[Node]] = members
        self._cliques: List[Clique] = sorted(
            members, key=lambda clique: (len(clique), members[clique])
        )
        self._version = self._graph.structure_version

    def current(self) -> List[Clique]:
        """The maximal cliques of the live graph, in
        :func:`~repro.hypergraph.cliques.maximal_cliques_list` order.
        Callers must not mutate the returned list."""
        if self._version != self._graph.structure_version:
            self._list()
        return self._cliques

    def sorted_members(self, clique: Clique) -> List[Node]:
        """Sorted member list of ``clique``, served from the listing's
        cache for listed cliques (callers must not mutate it)."""
        members = self._members.get(clique)
        return members if members is not None else sorted(clique)
