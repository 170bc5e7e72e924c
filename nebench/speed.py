"""The machine's speed, measured beside the work it is used to scale.

On a shared host the speed of a core drifts by 10-25% over minutes: the
neighbours' load moves the cache and memory bandwidth a process gets, so
CPU time moves with it as much as wall time.  Two runs of the same code
minutes apart then differ by more than any regression worth catching.

A :class:`Speedometer` times a fixed reference kernel in short slices,
one after each unit of the workload's work, in the same thread.  A slice
mixes what the program spends its time on: Python string and dict work,
an indexed SQLite range scan, and a breadth-first walk over a graph
larger than the core's caches (like the ACG hop search).  The kernel is
the benchmark's own code and never calls the program, so a change to the
program cannot move it; only the machine can.  A round's timings are
then scaled to a reference speed: a duration ``d`` measured while a
slice took ``k`` ms on average is reported as ``d * REFERENCE_MS / k``.

Measured on a 2-core host, rounds of ingest-8x ran at 44-69 ann/s raw
and 55-67 ann/s scaled; five ingest-1x runs of one seed spread +-19%
raw and +-2% scaled.  The walk is what the 1x mix lacks at 8x, where
hop search makes the program more sensitive to memory speed than the
kernel, so some of the drift remains.
"""

from __future__ import annotations

import random
import sqlite3
import statistics
import time
from collections import deque
from typing import Dict, List, Set, Tuple

#: Mean slice time (ms) the scaled timings refer to: about one slice
#: interleaved with the workload on a 2-core host, so scaled values read
#: close to raw ones there.
REFERENCE_MS = 0.25

_TEXT = (
    "We examined genes JW0012 and later JW0017 too, while the protein kinase "
    "family of polypeptide accession P12345 binds locus symbol thrA. "
) * 3
_ROWS = 4000
#: Graph of the walk: ~17 MB of dict-of-sets adjacency keyed by tuples,
#: as the ACG is; each slice visits ``_WALK`` nodes from a new start.
_NODES = 20_000
_DEGREE = 4
_WALK = 200


class Speedometer:
    """Times slices of the reference kernel; one per run, reset each round."""

    def __init__(self) -> None:
        self._db = sqlite3.connect(":memory:")
        self._db.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v TEXT)")
        self._db.executemany(
            "INSERT INTO t VALUES (?, ?)",
            [(i, f"gene protein {i * 7919 % 10007} kinase") for i in range(_ROWS)],
        )
        rng = random.Random(0)
        self._graph: Dict[Tuple[str, int], Set[Tuple[str, int]]] = {
            ("node", i): set() for i in range(_NODES)
        }
        for i in range(_NODES):
            for _ in range(_DEGREE // 2):
                j = rng.randrange(_NODES)
                self._graph[("node", i)].add(("node", j))
                self._graph[("node", j)].add(("node", i))
        self._calls = 0
        self.slices: List[float] = []

    def tick(self) -> float:
        """Run one slice; return the seconds it took."""
        started = time.perf_counter()
        self._slice()
        took = time.perf_counter() - started
        self.slices.append(took)
        return took

    def reset(self) -> None:
        """Start a new round's slices."""
        self.slices.clear()

    def slice_ms(self) -> float:
        """Mean slice time since the last reset (ms; 0 for no slices)."""
        return statistics.fmean(self.slices) * 1e3 if self.slices else 0.0

    def close(self) -> None:
        self._db.close()

    def _slice(self) -> None:
        counts: dict = {}
        for word in _TEXT.split():
            word = word.lower().strip(".,")
            counts[word] = counts.get(word, 0) + len(word)
        low = self._calls * 37 % (_ROWS - 50)
        self._calls += 1
        rows = self._db.execute(
            "SELECT k, v FROM t WHERE k BETWEEN ? AND ?", (low, low + 40)
        ).fetchall()
        sorted((v, k) for k, v in rows)
        start = ("node", self._calls * 7919 % _NODES)
        visited = {start}
        frontier = deque([start])
        while frontier and len(visited) < _WALK:
            for neighbor in self._graph[frontier.popleft()]:
                if neighbor not in visited:
                    visited.add(neighbor)
                    frontier.append(neighbor)
