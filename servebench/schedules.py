"""Seeded documents, operation schedules and their in-process references.

Every workload is a list of documents plus a fixed schedule of
operations (``propagate`` or ``view``) generated from the seed. The
edits are size-stationary: each replaces one visible subtree with a
fresh one of the same kind, so a document keeps its size however long
the schedule runs, and two seeds differ only in *which* subtrees move.

References are computed in-process through one
:class:`repro.session.DocumentSession` per document before anything is
timed; the served script and view of every operation must equal them
byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import ViewEngine
from repro.editing import EditScript, UpdateBuilder
from repro.generators.workloads import catalog, hospital, huge_document, wide_schema
from repro.xmltree import Tree, parse_term, tree_to_xml

WORKLOADS = ("hot_small_docs", "big_doc_stream", "restart_catchup")

FSYNC = "off"
"""WAL policy of every served and in-process store of the benchmark."""


# ---------------------------------------------------------------------------
# Size-stationary edit families
# ---------------------------------------------------------------------------


def _edit_sections(view: Tree, rng: random.Random, fresh: str) -> EditScript:
    """Replace one section with a fresh one of the same type."""
    victim = rng.choice(view.children(view.root))
    k = view.label(victim)[len("sec"):]
    builder = UpdateBuilder(view)
    builder.replace(
        victim, parse_term(f"sec{k}#{fresh}(head{k}#{fresh}h, item{k}#{fresh}i)")
    )
    return builder.script()


def _edit_paragraphs(view: Tree, rng: random.Random, fresh: str) -> EditScript:
    """Replace one paragraph of an interior chapter."""
    chapters = view.children(view.root)
    chapter = chapters[rng.randrange(1, len(chapters) - 1)]
    section = rng.choice(
        [kid for kid in view.children(chapter) if view.label(kid) == "section"]
    )
    builder = UpdateBuilder(view)
    builder.replace(rng.choice(view.children(section)), parse_term(f"para#{fresh}"))
    return builder.script()


def _edit_patients(view: Tree, rng: random.Random, fresh: str) -> EditScript:
    """Discharge one patient and admit a fresh one in its place."""
    ward = view.children(view.root)[0]
    patients = [kid for kid in view.children(ward) if view.label(kid) == "patient"]
    builder = UpdateBuilder(view)
    builder.replace(
        rng.choice(patients),
        parse_term(
            f"patient#{fresh}(name#{fresh}n, admission#{fresh}a, symptom#{fresh}s)"
        ),
    )
    return builder.script()


def _edit_products(view: Tree, rng: random.Random, fresh: str) -> EditScript:
    """Retire one product and list a fresh one in its place."""
    builder = UpdateBuilder(view)
    builder.replace(
        rng.choice(view.children(view.root)),
        parse_term(f"product#{fresh}(title#{fresh}t, price#{fresh}p, feature#{fresh}f)"),
    )
    return builder.script()


# family -> (workload factory, edit generator)
FAMILIES = {
    "wide24": (lambda: wide_schema(24, sections=8), _edit_sections),
    "book5k": (lambda: huge_document(5000), _edit_paragraphs),
    "wide12": (lambda: wide_schema(12, sections=8), _edit_sections),
    "wide48": (lambda: wide_schema(48, sections=8), _edit_sections),
    "book400": (lambda: huge_document(400), _edit_paragraphs),
    "ward16": (lambda: hospital(16, seed=7), _edit_patients),
    "catalog16": (lambda: catalog(16, seed=11), _edit_products),
}


@dataclass(frozen=True)
class Shape:
    """How a workload's documents and schedule are laid out."""

    docs: "tuple[tuple[str, str], ...]"  # (doc_id, family)
    writes_per_second: float  # schedule writes per second of --seconds
    read_every: int  # one view read after every read_every-th write
    history_per_doc: int  # records each document's log holds at set-up
    cache_root: bool  # serve with --cache-root
    episodes: int  # restart and catch-up episodes per run (medians reported)
    follow: bool  # catch up a standby of the serving store, not a fresh one
    setups: int  # episode-store set-ups per run, spread evenly over the episodes


SHAPES = {
    "hot_small_docs": Shape(
        docs=tuple((f"hot{i:02d}", "wide24") for i in range(64)),
        writes_per_second=36,
        read_every=1,
        history_per_doc=0,
        cache_root=False,
        episodes=12,
        # a fresh standby of 64 documents is hundreds of new small files,
        # whose kernel time drifts with the host (see DESIGN.md): catch up
        # the standby of the serving store with the writes of each chunk
        follow=True,
        setups=2,
    ),
    "big_doc_stream": Shape(
        docs=(("book", "book5k"),),
        writes_per_second=5,
        read_every=2,
        history_per_doc=0,
        cache_root=False,
        episodes=12,
        follow=False,
        setups=6,  # a set-up of one document is cheap, so take more
    ),
    "restart_catchup": Shape(
        docs=tuple(
            (f"{family}-{copy}", family)
            for family in ("wide12", "wide48", "book400", "ward16", "catalog16")
            for copy in range(2)
        ),
        writes_per_second=10,
        read_every=2,
        history_per_doc=30,
        cache_root=True,
        episodes=12,
        follow=False,
        setups=2,
    ),
}


# ---------------------------------------------------------------------------
# Plans
# ---------------------------------------------------------------------------


@dataclass
class Doc:
    doc_id: str
    family: str
    dtd: object
    annotation: object
    source: Tree


@dataclass
class Op:
    """One scheduled request and the answer it must receive."""

    kind: str  # "propagate" or "view"
    doc_id: str
    term: str = ""  # the update's wire term (propagate only)
    expected: str = ""  # reference script term, or reference view XML
    update: "EditScript | None" = None  # kept for history ops only
    script: "EditScript | None" = None  # kept for history ops only


@dataclass
class Plan:
    """Everything a run needs, derived from (workload, seed, seconds)."""

    workload: str
    seed: int
    shape: Shape
    docs: "list[Doc]"
    history: "list[Op]"  # written into the store at set-up, untimed
    ops: "list[Op]"  # the served schedule
    setup_views: "dict[str, str]"  # each doc's view as the set-up stores it
    setup_sources: "dict[str, Tree]"  # ... and its source tree
    final_sources: "dict[str, Tree]" = field(default_factory=dict)

    @property
    def updates(self) -> int:
        return sum(1 for op in self.ops if op.kind == "propagate")


def build_plan(workload: str, seed: int, seconds: float) -> Plan:
    """The documents, the seeded schedule, and every reference answer."""
    if workload not in SHAPES:
        raise ValueError(f"unknown workload {workload!r}; pick one of {WORKLOADS}")
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}:{seed}")
    built: dict = {}
    engines: "dict[str, ViewEngine]" = {}
    docs: "list[Doc]" = []
    sessions = {}
    for doc_id, family in shape.docs:
        if family not in built:
            built[family] = FAMILIES[family][0]()
            w = built[family]
            engines[family] = ViewEngine(w.dtd, w.annotation).warm_up()
        w = built[family]
        docs.append(Doc(doc_id, family, w.dtd, w.annotation, w.source))
        sessions[doc_id] = engines[family].session(w.source, validate_source=False)
    written = dict.fromkeys(sessions, 0)

    def write(doc: Doc, keep: bool = False) -> Op:
        session = sessions[doc.doc_id]
        written[doc.doc_id] += 1
        fresh = f"x{written[doc.doc_id]}"
        update = FAMILIES[doc.family][1](session.view, rng, fresh)
        script = session.propagate(update)
        op = Op("propagate", doc.doc_id, update.to_term(), script.to_term())
        if keep:
            op.update, op.script = update, script
        return op

    history = [write(d, keep=True) for _ in range(shape.history_per_doc) for d in docs]
    setup_sources = {d.doc_id: sessions[d.doc_id].source for d in docs}
    setup_views = {d.doc_id: tree_to_xml(sessions[d.doc_id].view) for d in docs}
    ops: "list[Op]" = []
    for index in range(max(2, round(shape.writes_per_second * seconds))):
        d = docs[index % len(docs)]
        ops.append(write(d))
        if (index + 1) % shape.read_every == 0:
            ops.append(
                Op("view", d.doc_id, expected=tree_to_xml(sessions[d.doc_id].view))
            )
    return Plan(
        workload=workload,
        seed=seed,
        shape=shape,
        docs=docs,
        history=history,
        ops=ops,
        setup_views=setup_views,
        setup_sources=setup_sources,
        final_sources={d.doc_id: sessions[d.doc_id].source for d in docs},
    )
