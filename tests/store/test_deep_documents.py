"""A document far deeper than the recursion limit goes through the
journal: the propagation is logged, and the log replays.

The journal's own steps (emit the script, re-parse it, compare, append;
parse it back at recovery) are iterative. Stages beneath them still
recurse once per tree level: the view projection, the propagation's
script assembly and the XML snapshot. Those run here in a helper thread
with room for that recursion; the record itself is then re-checked at
the default limit.
"""

import sys
import threading

from repro import DTD, Annotation, parse_term
from repro.editing import EditScript, round_trip_term
from repro.store import DocumentStore, scan_wal

DEPTH = 5000


def chain(depth: int, head) -> str:
    return "".join(head(i) + "(" for i in range(depth - 1)) + head(depth - 1) + ")" * (depth - 1)


def with_deep_recursion(fn):
    """Run *fn* in a thread with a stack and recursion limit sized for
    the stages that still recurse per level; return its result."""
    result: dict = {}

    def body():
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(DEPTH * 8)
        try:
            result["value"] = fn()
        except BaseException as error:  # re-raised in the test's thread
            result["error"] = error
        finally:
            sys.setrecursionlimit(limit)

    size = threading.stack_size(256 << 20)
    try:
        thread = threading.Thread(target=body)
        thread.start()
    finally:
        threading.stack_size(size)
    thread.join()
    if "error" in result:
        raise result["error"]
    return result["value"]


def test_durable_session_journals_a_deep_propagation(tmp_path):
    source = parse_term(chain(DEPTH, lambda i: f"a#n{i}"))
    dtd = DTD({"a": "(a|b)?", "b": ""})
    annotation = Annotation.hiding(("a", "b"))
    # the view update: delete the innermost node, keep the chain above it
    update = EditScript.parse(
        chain(DEPTH, lambda i: f"Del.a#n{i}" if i == DEPTH - 1 else f"Nop.a#n{i}")
    )
    store = DocumentStore.init(tmp_path / "store")

    def serve_and_recover():
        store.put("deep", source, dtd, annotation)
        with store.open_session("deep") as session:
            script = session.propagate(update)
            assert session.last_seq == 1
        return script, store.recover("deep")

    script, recovered = with_deep_recursion(serve_and_recover)
    assert recovered.replayed == 1
    assert recovered.tree == script.output_tree
    assert recovered.tree.size == DEPTH - 1

    # the logged record, checked where the limit is the interpreter's own
    assert sys.getrecursionlimit() < DEPTH
    (record,) = scan_wal(tmp_path / "store" / "docs" / "deep" / "wal.log").records
    assert record.text == script.to_term()
    assert EditScript.parse(record.text) == script
    assert round_trip_term(EditScript.parse(record.text)) == record.text
