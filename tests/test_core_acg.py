"""Unit + property tests for the ACG, stability tracking, and hop profile."""

from collections import deque

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import BioDatabaseSpec, Nebula, NebulaConfig, generate_bio_database
from repro.annotations.engine import AnnotationManager
from repro.core.acg import (
    UNREACHABLE,
    AnnotationsConnectivityGraph,
    HopProfile,
    StabilityTracker,
)
from repro.datagen.workload import WorkloadSpec, generate_workload
from repro.perf import AnnotationRequest
from repro.types import CellRef, TupleRef

from conftest import build_figure1_connection


def _ref(i: int) -> TupleRef:
    return TupleRef("Gene", i)


class TestGraphConstruction:
    def test_shared_annotation_creates_edge(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        new_edges = acg.add_attachment(1, _ref(2))
        assert new_edges == 1
        assert _ref(2) in acg.neighbors(_ref(1))

    def test_duplicate_attachment_ignored(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(1, _ref(2))
        assert acg.add_attachment(1, _ref(2)) == 0
        assert acg.edge_count == 1

    def test_existing_edge_not_recounted(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(1, _ref(2))
        acg.add_attachment(2, _ref(1))
        assert acg.add_attachment(2, _ref(2)) == 0  # edge already exists
        assert acg.edge_count == 1

    def test_clique_per_annotation(self):
        acg = AnnotationsConnectivityGraph()
        for i in range(1, 5):
            acg.add_attachment(7, _ref(i))
        assert acg.edge_count == 6  # C(4, 2)

    def test_build_from_manager(self):
        manager = AnnotationManager(build_figure1_connection())
        manager.add_annotation("a", attach_to=[CellRef("Gene", 1), CellRef("Gene", 2)])
        manager.add_annotation("b", attach_to=[CellRef("Gene", 2), CellRef("Gene", 3)])
        acg = AnnotationsConnectivityGraph.build_from_manager(manager)
        assert acg.node_count == 3
        assert acg.edge_count == 2


class TestWeights:
    def test_jaccard_weight(self):
        acg = AnnotationsConnectivityGraph()
        # t1: {1, 2}; t2: {1, 3} -> common 1, union 3.
        for ann, refs in [(1, [1, 2]), (2, [1]), (3, [2])]:
            for r in refs:
                acg.add_attachment(ann, _ref(r))
        assert acg.weight(_ref(1), _ref(2)) == pytest.approx(1 / 3)

    def test_weight_symmetric(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(1, _ref(2))
        assert acg.weight(_ref(1), _ref(2)) == acg.weight(_ref(2), _ref(1))

    def test_no_common_annotation_zero(self):
        acg = AnnotationsConnectivityGraph()
        acg.add_attachment(1, _ref(1))
        acg.add_attachment(2, _ref(2))
        assert acg.weight(_ref(1), _ref(2)) == 0.0

    def test_identical_sets_weight_one(self):
        acg = AnnotationsConnectivityGraph()
        for ann in (1, 2):
            acg.add_attachment(ann, _ref(1))
            acg.add_attachment(ann, _ref(2))
        assert acg.weight(_ref(1), _ref(2)) == 1.0


class TestTraversals:
    @pytest.fixture
    def chain(self):
        # 1 - 2 - 3 - 4 via chained annotations.
        acg = AnnotationsConnectivityGraph()
        for ann, (a, b) in enumerate([(1, 2), (2, 3), (3, 4)], start=1):
            acg.add_attachment(ann, _ref(a))
            acg.add_attachment(ann, _ref(b))
        return acg

    def test_k_hop_expansion(self, chain):
        assert chain.k_hop_neighbors([_ref(1)], 1) == frozenset({_ref(1), _ref(2)})
        assert chain.k_hop_neighbors([_ref(1)], 2) == frozenset(
            {_ref(1), _ref(2), _ref(3)}
        )

    def test_k_hop_excluding_seeds(self, chain):
        assert chain.k_hop_neighbors([_ref(1)], 1, include_seeds=False) == frozenset(
            {_ref(2)}
        )

    def test_k_hop_multiple_seeds(self, chain):
        reached = chain.k_hop_neighbors([_ref(1), _ref(4)], 1)
        assert reached == frozenset({_ref(1), _ref(2), _ref(3), _ref(4)})

    def test_k_hop_unknown_seed(self, chain):
        assert chain.k_hop_neighbors([_ref(99)], 2) == frozenset()

    def test_shortest_hops(self, chain):
        assert chain.shortest_hops(_ref(4), [_ref(1)]) == 3
        assert chain.shortest_hops(_ref(1), [_ref(1)]) == 0
        assert chain.shortest_hops(_ref(2), [_ref(1), _ref(3)]) == 1

    def test_shortest_hops_unreachable(self, chain):
        chain.add_attachment(99, _ref(50))  # isolated node
        assert chain.shortest_hops(_ref(50), [_ref(1)]) == UNREACHABLE
        assert chain.shortest_hops(_ref(99), [_ref(1)]) == UNREACHABLE


@given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 8)), max_size=40))
def test_acg_invariants(attachments):
    """Property: edge symmetry, no self loops, edge count consistency."""
    acg = AnnotationsConnectivityGraph()
    for annotation_id, tuple_index in attachments:
        acg.add_attachment(annotation_id, _ref(tuple_index))
    seen_edges = set()
    for node in [_ref(i) for i in range(1, 9)]:
        for neighbor in acg.neighbors(node):
            assert neighbor != node
            assert node in acg.neighbors(neighbor)
            assert acg.weight(node, neighbor) > 0.0
            seen_edges.add(frozenset((node, neighbor)))
    assert len(seen_edges) == acg.edge_count


@given(st.lists(st.integers(0, 6), max_size=60))
def test_k_hop_monotone_in_k(hops_points):
    """Property: the K-hop neighborhood grows monotonically with K."""
    acg = AnnotationsConnectivityGraph()
    for ann, (a, b) in enumerate([(1, 2), (2, 3), (2, 4), (4, 5)], start=1):
        acg.add_attachment(ann, _ref(a))
        acg.add_attachment(ann, _ref(b))
    previous = frozenset()
    for k in range(0, 5):
        current = acg.k_hop_neighbors([_ref(1)], k)
        assert previous <= current
        previous = current


# ----------------------------------------------------------------------
# Exactness against a plain reference graph
# ----------------------------------------------------------------------


def _reference_hops(neighbors, present, ref, seeds):
    """Plain one-sided BFS from ``ref`` to the nearest present seed."""
    targets = {s for s in seeds if present(s)}
    if not targets or not present(ref):
        return UNREACHABLE
    depth = {ref: 0}
    queue = deque([ref])
    while queue:
        node = queue.popleft()
        if node in targets:
            return depth[node]
        for neighbor in neighbors(node):
            if neighbor not in depth:
                depth[neighbor] = depth[node] + 1
                queue.append(neighbor)
    return UNREACHABLE


def _reference_within(adjacency, seeds, k):
    """Tuples within ``k`` hops of any present seed, by plain BFS."""
    depth = {s: 0 for s in seeds if s in adjacency}
    queue = deque(depth)
    while queue:
        node = queue.popleft()
        if depth[node] < k:
            for neighbor in adjacency[node]:
                if neighbor not in depth:
                    depth[neighbor] = depth[node] + 1
                    queue.append(neighbor)
    return depth


class _ReferenceGraph:
    """The ACG recomputed from scratch from the live attachment list."""

    def __init__(self, live):
        self.annotations = {}
        for annotation_id, refs in live.items():
            for ref in refs:
                self.annotations.setdefault(ref, set()).add(annotation_id)
        self.adjacency = {ref: set() for ref in self.annotations}
        for refs in live.values():
            for a in refs:
                self.adjacency[a].update(b for b in refs if b != a)

    @property
    def edge_count(self):
        return sum(len(n) for n in self.adjacency.values()) // 2

    def weight(self, a, b):
        first = self.annotations.get(a, set())
        second = self.annotations.get(b, set())
        if not first & second:
            return 0.0
        return len(first & second) / len(first | second)

    def hops(self, ref, seeds):
        return _reference_hops(
            self.adjacency.__getitem__, self.adjacency.__contains__, ref, seeds
        )


#: Tuples 1-12 may be attached; 13 and 14 never are (absent refs/seeds).
_UNIVERSE = [_ref(i) for i in range(1, 15)]

_OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(1, 5), st.integers(1, 12)),
        st.tuples(st.just("remove"), st.integers(1, 5), st.just(0)),
    ),
    max_size=60,
)


def _assert_matches_reference(acg, live):
    reference = _ReferenceGraph(live)
    assert acg.node_count == len(reference.adjacency)
    assert acg.edge_count == reference.edge_count
    for ref in _UNIVERSE:
        assert acg.contains(ref) == (ref in reference.adjacency)
        assert acg.neighbors(ref) == frozenset(reference.adjacency.get(ref, ()))
        for other in _UNIVERSE:
            assert acg.weight(ref, other) == reference.weight(ref, other)
    return reference


@settings(max_examples=150, deadline=None)
@given(_OPERATIONS, st.lists(st.sampled_from(_UNIVERSE), max_size=4))
# Annotation 1 still joins tuples 1 and 2 after annotation 2 is removed.
@example([("add", 1, 1), ("add", 1, 2), ("add", 2, 1), ("add", 2, 2),
          ("add", 2, 3), ("remove", 2, 0)], [_ref(3), _ref(2)])
# A removed annotation leaves tuples 3 and 4 with no annotation at all.
@example([("add", 1, 1), ("add", 1, 2), ("add", 2, 3), ("add", 2, 4),
          ("remove", 2, 0)], [_ref(3), _ref(1)])
# Two components (1-2-3 and 5-6); seeds on both sides plus an absent one.
@example([("add", 1, 1), ("add", 1, 2), ("add", 2, 2), ("add", 2, 3),
          ("add", 3, 5), ("add", 3, 6)], [_ref(3), _ref(13)])
def test_graph_matches_reference_under_add_and_remove(operations, seeds):
    """Property: every public read equals a graph rebuilt from scratch,
    through interleaved attachments and annotation rollbacks."""
    acg = AnnotationsConnectivityGraph()
    live = {}
    reference = _ReferenceGraph(live)
    for kind, annotation_id, index in operations:
        before = reference.edge_count
        if kind == "add":
            edge_delta = acg.add_attachment(annotation_id, _ref(index))
            live.setdefault(annotation_id, set()).add(_ref(index))
        else:
            edge_delta = -acg.remove_annotation(annotation_id)
            live.pop(annotation_id, None)
        reference = _assert_matches_reference(acg, live)
        assert edge_delta == reference.edge_count - before
    seed_sets = [seeds, seeds + [_ref(13)], [_ref(14)], []]
    seed_sets += [[ref] for ref in _UNIVERSE]
    for seed_set in seed_sets:
        for ref in _UNIVERSE:
            assert acg.shortest_hops(ref, seed_set) == reference.hops(ref, seed_set)
        for k in range(0, 8):
            depth = _reference_within(reference.adjacency, seed_set, k)
            assert acg.k_hop_neighbors(seed_set, k) == frozenset(depth)
            assert acg.k_hop_neighbors(seed_set, k, include_seeds=False) == frozenset(
                ref for ref, d in depth.items() if d > 0
            )


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 30), st.integers(1, 30)), max_size=45),
    st.lists(st.integers(1, 30), min_size=1, max_size=5),
)
def test_shortest_hops_exact_on_sparse_graphs(pairs, seed_indices):
    """Property: on sparse pair-annotation graphs (long chains, many
    components, frontiers of unequal size) the bidirectional search
    returns exactly the one-sided BFS distance."""
    acg = AnnotationsConnectivityGraph()
    live = {}
    for annotation_id, (a, b) in enumerate(pairs, start=1):
        for index in (a, b):
            acg.add_attachment(annotation_id, _ref(index))
            live.setdefault(annotation_id, set()).add(_ref(index))
    reference = _ReferenceGraph(live)
    seeds = [_ref(i) for i in seed_indices]
    for index in range(1, 32):
        ref = _ref(index)
        assert acg.shortest_hops(ref, seeds) == reference.hops(ref, seeds)


def test_shortest_hops_on_long_chain_with_fan_out():
    """A 60-hop chain whose far end fans out: the seed side's frontier
    stays small while the ref side's grows, so both sides expand."""
    acg = AnnotationsConnectivityGraph()
    for i in range(1, 61):
        acg.add_attachment(i, _ref(i))
        acg.add_attachment(i, _ref(i + 1))
    for j in range(100, 140):
        acg.add_attachment(1000, _ref(61))
        acg.add_attachment(1000, _ref(j))
    assert acg.shortest_hops(_ref(1), [_ref(120)]) == 61
    assert acg.shortest_hops(_ref(120), [_ref(1)]) == 61
    assert acg.shortest_hops(_ref(30), [_ref(1), _ref(100)]) == 29


class TestPipelineHopProfileParity:
    """Every hop distance the pipeline records equals a reference BFS
    over the public ``neighbors()``, on both ingestion paths."""

    @pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
    def test_profile_equals_reference_histogram(self, batched, monkeypatch):
        db = generate_bio_database(
            BioDatabaseSpec(genes=60, proteins=36, publications=240, seed=11)
        )
        nebula = Nebula(
            db.connection, db.meta, NebulaConfig(epsilon=0.6), aliases=db.aliases
        )
        acg = nebula.acg
        search = acg.shortest_hops
        reference = HopProfile()

        def checked(ref, seeds):
            seeds = list(seeds)
            hops = search(ref, seeds)
            expected = _reference_hops(acg.neighbors, acg.contains, ref, seeds)
            assert hops == expected, (ref, seeds)
            reference.record(expected)
            return hops

        monkeypatch.setattr(acg, "shortest_hops", checked)
        assert nebula.profile.total == 0
        workload = generate_workload(db, WorkloadSpec(seed=61))
        requests = [
            AnnotationRequest.build(a.text, a.focal(1))
            for a in workload.annotations[:24]
        ]
        for start in range(0, len(requests), 6):
            chunk = requests[start:start + 6]
            if batched:
                nebula.insert_annotations(chunk)
            else:
                for request in chunk:
                    nebula.insert_annotation(
                        request.text, attach_to=request.focal, author=request.author
                    )
            for task in nebula.pending_tasks():
                nebula.verify_attachment(task.task_id)

        assert reference.total > 0
        assert nebula.profile.buckets == reference.buckets
        assert nebula.profile.unreachable == reference.unreachable


class TestStabilityTracker:
    def test_stable_when_few_new_edges(self):
        tracker = StabilityTracker(batch_size=2, mu=0.5)
        assert tracker.record_annotation(attachments=4, new_edges=0) is None
        result = tracker.record_annotation(attachments=4, new_edges=1)
        assert result is True  # 1/8 < 0.5
        assert tracker.stable

    def test_unstable_when_many_new_edges(self):
        tracker = StabilityTracker(batch_size=1, mu=0.1)
        assert tracker.record_annotation(attachments=2, new_edges=2) is False
        assert not tracker.stable

    def test_counters_reset_between_batches(self):
        tracker = StabilityTracker(batch_size=1, mu=0.5)
        tracker.record_annotation(attachments=10, new_edges=9)  # unstable
        tracker.record_annotation(attachments=10, new_edges=0)  # stable again
        assert tracker.stable
        assert len(tracker.history) == 2

    def test_flag_can_flip_back(self):
        tracker = StabilityTracker(batch_size=1, mu=0.5)
        tracker.record_annotation(attachments=2, new_edges=0)
        assert tracker.stable
        tracker.record_annotation(attachments=2, new_edges=2)
        assert not tracker.stable

    def test_zero_attachment_batch(self):
        tracker = StabilityTracker(batch_size=1, mu=0.5)
        assert tracker.record_annotation(attachments=0, new_edges=0) is True


class TestHopProfile:
    def test_record_and_coverage(self):
        profile = HopProfile()
        for hops in [1, 1, 2, 2, 2, 3]:
            profile.record(hops)
        assert profile.total == 6
        assert profile.coverage(1) == pytest.approx(2 / 6)
        assert profile.coverage(2) == pytest.approx(5 / 6)
        assert profile.coverage(3) == 1.0

    def test_unreachable_counts_against_coverage(self):
        profile = HopProfile()
        profile.record(1)
        profile.record(UNREACHABLE)
        assert profile.coverage(5) == pytest.approx(0.5)

    def test_select_k(self):
        profile = HopProfile()
        for hops in [1] * 71 + [2] * 22 + [3] * 7:
            profile.record(hops)
        assert profile.select_k(0.90) == 2
        assert profile.select_k(0.95) == 3

    def test_select_k_no_history(self):
        assert HopProfile().select_k(0.9, k_max=5) == 5

    def test_as_rows(self):
        profile = HopProfile()
        profile.record(0)
        profile.record(2)
        rows = profile.as_rows()
        assert rows[0] == (0, 1, 0.5)
        assert rows[2] == (2, 1, 1.0)
        assert rows[1][1] == 0
