"""The Annotations Connectivity Graph (paper §6.2-6.3, Figures 6 & 7).

Nodes are annotated tuples; an edge connects two tuples iff they share at
least one annotation.  An edge's weight is "the ratio between the common
annotations to the total number of annotations attached to both tuples" —
the Jaccard ratio of the two annotation sets — so weights live in (0, 1]
and are recomputed from the live sets (never stale).

The module also hosts the two bookkeeping structures built on the ACG:

* :class:`StabilityTracker` — Definition 6.1: over non-overlapping batches
  of B annotations with M total attachments adding N new edges, the ACG is
  *stable* iff ``N / M < mu``;
* :class:`HopProfile` — the histogram of Figure 7: for every discovered
  attachment, the shortest unweighted hop distance from the tuple to the
  annotation's focal, used to auto-select the spreading radius K.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..annotations.engine import AnnotationManager
from ..storage.compat import Connection
from ..types import TupleRef

#: Hop distance reported when a tuple cannot be reached from the focal.
UNREACHABLE = -1


class AnnotationsConnectivityGraph:
    """Incremental co-annotation graph over tuples.

    Nodes are interned: a tuple gets a dense int id on its first
    attachment (``_id_of`` / ``_ref_of``), and the adjacency, the
    per-tuple annotation sets and the per-annotation tuple sets all hold
    ids.  Traversals therefore hash plain ints instead of
    :class:`TupleRef` dataclasses; the public methods translate at the
    boundary.  Ids are never reused: a tuple whose last annotation is
    removed keeps its id with empty sets and reads as absent.
    """

    def __init__(self) -> None:
        self._id_of: Dict[TupleRef, int] = {}
        self._ref_of: List[TupleRef] = []
        self._adjacency: List[Set[int]] = []
        self._annotations_of: List[Set[int]] = []
        self._tuples_of: Dict[int, Set[int]] = {}
        self._node_count = 0
        self._edge_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def build_from_manager(
        cls,
        manager: AnnotationManager,
        as_of: Optional[int] = None,
    ) -> "AnnotationsConnectivityGraph":
        """Build at once from all true attachments in the store (§8.1:
        "The ACG is built at once and not in an incremental fashion").

        With ``as_of`` the graph is reconstructed from the commit log —
        the exact co-annotation topology that existed at that commit,
        which lets candidate scoring replay a historical graph.
        """
        graph = cls()
        for annotation_id, ref in manager.store.true_attachment_pairs(as_of=as_of):
            graph.add_attachment(annotation_id, ref)
        return graph

    def _intern(self, ref: TupleRef) -> int:
        node = self._id_of.get(ref)
        if node is None:
            node = len(self._ref_of)
            self._id_of[ref] = node
            self._ref_of.append(ref)
            self._adjacency.append(set())
            self._annotations_of.append(set())
        return node

    def _live_id(self, ref: TupleRef) -> Optional[int]:
        """The id of ``ref`` while it carries an annotation, else None."""
        node = self._id_of.get(ref)
        if node is None or not self._annotations_of[node]:
            return None
        return node

    def add_attachment(self, annotation_id: int, ref: TupleRef) -> int:
        """Record one attachment; returns the number of *new* ACG edges."""
        node = self._intern(ref)
        siblings = self._tuples_of.setdefault(annotation_id, set())
        if node in siblings:
            return 0
        annotations = self._annotations_of[node]
        if not annotations:
            self._node_count += 1
        annotations.add(annotation_id)
        adjacency = self._adjacency
        neighbors = adjacency[node]
        new_edges = 0
        for sibling in siblings:
            if sibling not in neighbors:
                neighbors.add(sibling)
                adjacency[sibling].add(node)
                new_edges += 1
        siblings.add(node)
        self._edge_count += new_edges
        return new_edges

    def remove_annotation(self, annotation_id: int) -> int:
        """Remove every attachment of one annotation; returns edges dropped.

        The inverse of the ``add_attachment`` calls made for the
        annotation — used by the pipeline's fault boundary to restore the
        in-memory graph after the persistent Stage 0 writes roll back.
        An edge survives only while the two tuples still share at least
        one *other* annotation (the live-set semantics of :meth:`weight`).
        The tuples keep their ids, with empty sets once nothing is left.
        """
        nodes = self._tuples_of.pop(annotation_id, set())
        annotations_of = self._annotations_of
        for node in nodes:
            annotations_of[node].discard(annotation_id)
            if not annotations_of[node]:
                self._node_count -= 1
        adjacency = self._adjacency
        removed = 0
        for node in nodes:
            neighbors = adjacency[node]
            for neighbor in list(neighbors):
                if annotations_of[node].isdisjoint(annotations_of[neighbor]):
                    neighbors.discard(neighbor)
                    adjacency[neighbor].discard(node)
                    removed += 1
        self._edge_count -= removed
        return removed

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self._node_count

    @property
    def edge_count(self) -> int:
        return self._edge_count

    def contains(self, ref: TupleRef) -> bool:
        return self._live_id(ref) is not None

    def neighbors(self, ref: TupleRef) -> FrozenSet[TupleRef]:
        node = self._id_of.get(ref)
        if node is None:
            return frozenset()
        ref_of = self._ref_of
        return frozenset(ref_of[n] for n in self._adjacency[node])

    def annotations_of(self, ref: TupleRef) -> FrozenSet[int]:
        node = self._id_of.get(ref)
        if node is None:
            return frozenset()
        return frozenset(self._annotations_of[node])

    def weight(self, a: TupleRef, b: TupleRef) -> float:
        """Edge weight: |common annotations| / |total annotations on both|.

        0.0 when the tuples share no annotation (no edge).
        """
        first = self._id_of.get(a)
        second = self._id_of.get(b)
        if first is None or second is None:
            return 0.0
        return self._weight(first, second)

    def _weight(self, a: int, b: int) -> float:
        first = self._annotations_of[a]
        second = self._annotations_of[b]
        common = len(first & second)
        if common == 0:
            return 0.0
        return common / len(first | second)

    # ------------------------------------------------------------------
    # Traversals
    # ------------------------------------------------------------------

    def k_hop_neighbors(
        self, seeds: Iterable[TupleRef], k: int, include_seeds: bool = True
    ) -> FrozenSet[TupleRef]:
        """All tuples within ``k`` hops of any seed (BFS, unweighted)."""
        seed_ids = {n for n in map(self._live_id, seeds) if n is not None}
        adjacency = self._adjacency
        visited = set(seed_ids)
        frontier = list(seed_ids)
        for _ in range(k):
            following: List[int] = []
            for node in frontier:
                for neighbor in adjacency[node]:
                    if neighbor not in visited:
                        visited.add(neighbor)
                        following.append(neighbor)
            if not following:
                break
            frontier = following
        if not include_seeds:
            visited -= seed_ids
        ref_of = self._ref_of
        return frozenset(ref_of[n] for n in visited)

    def best_path_weight(self, source: TupleRef, target: TupleRef, max_hops: int) -> float:
        """Maximum edge-weight *product* over paths of at most ``max_hops``.

        This is the quantity the paper's multi-hop extension of the focal
        adjustment rewards by ("multiplying the weights of the in-between
        edges").  Computed by bounded dynamic programming: ``best[v]`` is
        the best product reaching ``v`` within ``h`` hops.  Returns 0.0
        when no path of that length exists.
        """
        if source == target:
            return 1.0
        start = self._live_id(source)
        goal = self._live_id(target)
        if start is None or goal is None:
            return 0.0
        adjacency = self._adjacency
        best: Dict[int, float] = {start: 1.0}
        for _ in range(max(0, max_hops)):
            frontier: Dict[int, float] = {}
            for node, product in best.items():
                for neighbor in adjacency[node]:
                    candidate = product * self._weight(node, neighbor)
                    if candidate > best.get(neighbor, 0.0) and candidate > frontier.get(
                        neighbor, 0.0
                    ):
                        frontier[neighbor] = candidate
            if not frontier:
                break
            for node, product in frontier.items():
                if product > best.get(node, 0.0):
                    best[node] = product
        return best.get(goal, 0.0)

    def shortest_hops(self, ref: TupleRef, seeds: Iterable[TupleRef]) -> int:
        """Shortest unweighted hop count from ``ref`` to any seed.

        Returns 0 when ``ref`` is itself a seed, :data:`UNREACHABLE` when
        no path exists (or ``ref`` is not in the graph).

        Level-synchronous bidirectional BFS: one side grows from ``ref``,
        the other from all seeds at once, and each step expands the
        smaller frontier by one full level.  Before the first contact the
        two balls are disjoint, so the distance exceeds the sum of their
        radii; the level that makes contact therefore meets the other
        ball only at its rim and every meeting gives the exact distance
        the one-sided BFS finds.  An exhausted frontier means the two
        sides lie in different components.
        """
        seed_ids = {n for n in map(self._live_id, seeds) if n is not None}
        if not seed_ids:
            return UNREACHABLE
        source = self._live_id(ref)
        if source is None:
            return UNREACHABLE
        if source in seed_ids:
            return 0
        adjacency = self._adjacency
        near: Dict[int, int] = {source: 0}
        far: Dict[int, int] = dict.fromkeys(seed_ids, 0)
        near_frontier = [source]
        far_frontier = list(seed_ids)
        near_depth = far_depth = 0
        while near_frontier and far_frontier:
            if len(near_frontier) <= len(far_frontier):
                near_depth += 1
                near_frontier, hops = _expand_level(
                    adjacency, near_frontier, near_depth, near, far
                )
            else:
                far_depth += 1
                far_frontier, hops = _expand_level(
                    adjacency, far_frontier, far_depth, far, near
                )
            if hops != UNREACHABLE:
                return hops
        return UNREACHABLE


def _expand_level(
    adjacency: Sequence[Set[int]],
    frontier: List[int],
    depth: int,
    seen: Dict[int, int],
    other: Dict[int, int],
) -> Tuple[List[int], int]:
    """Grow one BFS side by a level, to nodes at ``depth``.

    Returns the new frontier and ``min(depth + other[v])`` over every
    neighbor ``v`` the level finds on the other side, or
    :data:`UNREACHABLE` when it touches none.
    """
    following: List[int] = []
    hops = UNREACHABLE
    for node in frontier:
        for neighbor in adjacency[node]:
            if neighbor in other:
                meeting = depth + other[neighbor]
                if hops == UNREACHABLE or meeting < hops:
                    hops = meeting
            elif neighbor not in seen:
                seen[neighbor] = depth
                following.append(neighbor)
    return following, hops


# ----------------------------------------------------------------------
# Stability (Definition 6.1)
# ----------------------------------------------------------------------


@dataclass
class StabilityTracker:
    """Non-overlapping-batch stability detection over the ACG.

    For each batch of ``batch_size`` annotations with ``M`` total
    attachments and ``N`` newly added ACG edges, the graph is stable iff
    ``N / M < mu``.  The flag is re-evaluated per completed batch; counters
    reset between batches.
    """

    batch_size: int
    mu: float
    stable: bool = False
    _batch_annotations: int = 0
    _batch_attachments: int = 0
    _batch_new_edges: int = 0
    #: (batch M, batch N, resulting stability) per completed batch.
    history: List[Tuple[int, int, bool]] = field(default_factory=list)

    def record_annotation(self, attachments: int, new_edges: int) -> Optional[bool]:
        """Record one processed annotation; returns the new stability flag
        when this annotation completed a batch, else None."""
        self._batch_annotations += 1
        self._batch_attachments += attachments
        self._batch_new_edges += new_edges
        if self._batch_annotations < self.batch_size:
            return None
        m = max(1, self._batch_attachments)
        self.stable = (self._batch_new_edges / m) < self.mu
        self.history.append((self._batch_attachments, self._batch_new_edges, self.stable))
        self._batch_annotations = 0
        self._batch_attachments = 0
        self._batch_new_edges = 0
        return self.stable


# ----------------------------------------------------------------------
# Hop-distance profile (Figure 7)
# ----------------------------------------------------------------------


@dataclass
class HopProfile:
    """Histogram of shortest hop distances of discovered attachments."""

    buckets: Dict[int, int] = field(default_factory=dict)
    unreachable: int = 0

    def record(self, hops: int) -> None:
        if hops == UNREACHABLE:
            self.unreachable += 1
            return
        self.buckets[hops] = self.buckets.get(hops, 0) + 1

    @property
    def total(self) -> int:
        return sum(self.buckets.values()) + self.unreachable

    def coverage(self, k: int) -> float:
        """Expected fraction of candidates within ``k`` hops of the focal."""
        if self.total == 0:
            return 0.0
        covered = sum(count for hops, count in self.buckets.items() if hops <= k)
        return covered / self.total

    def select_k(self, target_recall: float, k_max: int = 16) -> int:
        """Smallest K whose historical coverage meets ``target_recall``.

        With no history, falls back to ``k_max`` (search wide until the
        profile has data).
        """
        if self.total == 0:
            return k_max
        for k in range(0, k_max + 1):
            if self.coverage(k) >= target_recall:
                return max(1, k)
        return k_max

    def as_rows(self, k_max: Optional[int] = None) -> List[Tuple[int, int, float]]:
        """(k, count, cumulative coverage) rows for reporting."""
        if not self.buckets:
            return []
        top = k_max if k_max is not None else max(self.buckets)
        return [(k, self.buckets.get(k, 0), self.coverage(k)) for k in range(top + 1)]


class PersistentHopProfile(HopProfile):
    """A hop profile mirrored into the ``_nebula_hop_profile`` table.

    The histogram loads from the table at construction and every
    :meth:`record` upserts its bucket, so the radius-selection history
    survives process restarts — a freshly opened service selects K from
    everything the database has seen, not from an empty profile.

    ``record`` runs inside the pipeline's ingestion SAVEPOINT, so a
    rolled-back annotation reverts its bucket increments together with
    the in-memory restore in ``Nebula._abort_insert`` (one annotation) or
    ``Nebula._abort_batch`` (a whole batch).  Both also remove the
    annotation from the ACG; the interned ids of its tuples outlive the
    rollback, with empty adjacency.  Unreachable discoveries persist
    under ``hops = -1`` (:data:`UNREACHABLE`).
    """

    def __init__(self, connection: "Connection") -> None:
        super().__init__()
        self.connection = connection
        connection.execute(
            "CREATE TABLE IF NOT EXISTS _nebula_hop_profile ("
            "hops INTEGER PRIMARY KEY, count INTEGER NOT NULL)"
        )
        for hops, count in connection.execute(
            "SELECT hops, count FROM _nebula_hop_profile"
        ):
            if int(hops) == UNREACHABLE:
                self.unreachable = int(count)
            else:
                self.buckets[int(hops)] = int(count)

    def record(self, hops: int) -> None:
        super().record(hops)
        self.connection.execute(
            "INSERT INTO _nebula_hop_profile (hops, count) VALUES (?, 1) "
            "ON CONFLICT (hops) DO UPDATE SET count = count + 1",
            (int(hops),),
        )
