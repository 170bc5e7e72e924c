"""Benchmark worlds: generated once per checkout, reopened fresh every round.

A world is the E17 database (``BioDatabaseSpec(genes=1000, proteins=600,
publications=3000, community_size=8)``) at a scale factor, persisted to a
SQLite file with its search index built, plus a fixed pool of workload
annotations (the union of several ``WorkloadSpec`` seeds).  Generating
the 8x world takes ~20 s, a cost users never pay, so it is done once and
cached under ``nebench/.cache/<source stamp>/``; the stamp hashes the
program and benchmark sources, so an edit never reuses a stale image or
stale fingerprints.

Rounds never mutate the image: each one restores a private copy and
opens a new engine on it (see :mod:`nebench.workloads`).
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro import (
    AnnotationWorkload,
    BioDatabaseSpec,
    ConceptRef,
    MetricsRegistry,
    Nebula,
    NebulaConfig,
    NebulaMeta,
    Ontology,
    WorkloadAnnotation,
    WorkloadSpec,
    generate_bio_database,
    generate_workload,
    get_backend,
)
from repro.datagen.vocab import PROTEIN_TYPES

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parent / "src" / "repro"
CACHE = HERE / ".cache"

BASE_SPEC = BioDatabaseSpec(
    genes=1000, proteins=600, publications=3000, community_size=8
)
#: Nine 60-annotation workloads: 540 distinct annotations per round, so
#: two rounds give >= 10 insert samples beyond the p99.
POOL_SEEDS: Tuple[int, ...] = tuple(range(61, 70))
EPSILON = 0.6
#: Distortion degree: one ideal link is the manual focal attachment.
DELTA = 1

#: The alias map the search engine gets (the same one ``repro`` uses).
ALIASES: Dict[str, Tuple[str, Optional[str]]] = {
    "genes": ("Gene", None),
    "proteins": ("Protein", None),
    "id": ("Gene", "GID"),
    "accession": ("Protein", "PID"),
}


@dataclass(frozen=True)
class World:
    scale: int
    #: The pristine persisted image; rounds copy it, never open it.
    image: Path
    #: Cache directory of this source stamp (fingerprints live here too).
    directory: Path
    pool: Tuple[WorkloadAnnotation, ...]
    #: Seconds the one-time generation took (a validity diagnostic).
    generate_s: float


def source_stamp() -> str:
    """Hash of the program's and the benchmark's sources (paths and
    contents): a change to either starts a fresh cache."""
    digest = hashlib.sha256()
    for root in (SOURCE, HERE):
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root.parent)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def expert_meta(connection) -> NebulaMeta:
    """The curators' NebulaMeta for the bio schema (paper §8.1).

    This is workload input, like the annotations: the concepts,
    equivalent names and protein-type ontology the experts register,
    then samples bootstrapped from the live tables.  :func:`load_world`
    checks once per image that it answers exactly like the metadata the
    generator built, so the two cannot drift apart silently.
    """
    meta = NebulaMeta()
    meta.add_concept(
        ConceptRef.build(
            "Gene", "Gene", [["GID"], ["Name"]], equivalent_names=["genes", "locus"]
        )
    )
    meta.add_concept(
        ConceptRef.build(
            "Protein",
            "Protein",
            [["PID"], ["PName", "PType"]],
            equivalent_names=["proteins", "polypeptide"],
        )
    )
    meta.add_concept(
        ConceptRef.build("Gene Family", "Gene", [["Family"]], equivalent_names=["family"])
    )
    meta.add_table_equivalents("Gene", ["genes", "locus"])
    meta.add_table_equivalents("Protein", ["proteins", "polypeptide"])
    meta.add_column_equivalents("Gene", "GID", ["id", "identifier", "accession"])
    meta.add_column_equivalents("Gene", "Name", ["symbol"])
    meta.add_column_equivalents("Protein", "PID", ["id", "identifier", "accession"])
    meta.add_column_equivalents("Protein", "PName", ["symbol"])
    meta.attach_ontology("Protein", "PType", Ontology("protein-types", PROTEIN_TYPES))
    meta.bootstrap_from_connection(connection)
    return meta


def open_engine(backend, metrics: MetricsRegistry, **config: object) -> Nebula:
    """Open Nebula on a restored image: the set-up a user pays per open."""
    return Nebula(
        backend,
        expert_meta(backend.primary),
        NebulaConfig(epsilon=EPSILON).with_updates(**config),
        aliases=ALIASES,
        metrics=metrics,
    )


def load_world(scale: int) -> World:
    directory = CACHE / source_stamp()
    image = directory / f"world-{scale}x.db"
    manifest = directory / f"world-{scale}x.json"
    if not (image.exists() and manifest.exists()):
        _build(scale, image, manifest)
    payload = json.loads(manifest.read_text())
    pool = tuple(
        annotation
        for workload in payload["workloads"]
        for annotation in AnnotationWorkload.from_dict(workload).annotations
    )
    return World(scale, image, directory, pool, float(payload["generate_s"]))


def _build(scale: int, image: Path, manifest: Path) -> None:
    image.parent.mkdir(parents=True, exist_ok=True)
    partial = image.with_name(image.name + ".partial")
    for leftover in _sqlite_files(partial):
        leftover.unlink(missing_ok=True)
    started = time.perf_counter()
    backend = get_backend("sqlite-file", path=str(partial))
    try:
        db = generate_bio_database(BASE_SPEC.scaled(scale), backend=backend)
        workloads = [generate_workload(db, WorkloadSpec(seed=s)) for s in POOL_SEEDS]
        texts = [a.text for w in workloads for a in w.annotations]
        if len(set(texts)) != len(texts):
            raise RuntimeError("workload pool repeats an annotation text")
        _check_expert_meta(db.meta, expert_meta(backend.primary), texts)
        # The first open builds and persists the search index and applies
        # the migrations, so every round's open finds a ready image.
        nebula = Nebula(
            backend, db.meta, NebulaConfig(epsilon=EPSILON), aliases=ALIASES
        )
        nebula.connection.commit()
        nebula.close()
        # A rollback-journal image can be read in place without leaving
        # WAL side files next to it; copies switch back to WAL on open.
        backend.primary.execute("PRAGMA journal_mode = DELETE")
    finally:
        backend.close()
    generate_s = time.perf_counter() - started
    if any(p.exists() for p in _sqlite_files(partial)[1:]):
        raise RuntimeError("world image left a WAL behind after close")
    os.replace(partial, image)
    manifest.write_text(
        json.dumps(
            {
                "scale": scale,
                "generate_s": generate_s,
                "workloads": [w.to_dict() for w in workloads],
            }
        )
    )


def _check_expert_meta(
    generated: NebulaMeta, rebuilt: NebulaMeta, texts: List[str]
) -> None:
    words = sorted({word for text in texts[:60] for word in text.split()})
    for word in words:
        same = repr(generated.concept_mappings(word)) == repr(
            rebuilt.concept_mappings(word)
        ) and repr(generated.value_mappings(word)) == repr(rebuilt.value_mappings(word))
        if not same:
            raise RuntimeError(
                f"benchmark NebulaMeta diverges from the generator's on {word!r}"
            )


def _sqlite_files(path: Path) -> List[Path]:
    return [path, Path(f"{path}-wal"), Path(f"{path}-shm")]
