"""Term notation round trips over random trees: explicit and implicit
identifiers mixed, arbitrary whitespace between tokens.

The expected tree comes from a small reference model of the notation's
numbering rule, independent of the parser: every node written without
``#id`` receives ``n0, n1, ...`` in document order, skipping each
identifier written explicitly anywhere in the text.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.editing import EditScript
from repro.xmltree import NodeIds, Tree, parse_forest, parse_term

LABELS = ["a", "b", "c.d", "e-f", "g_h", "é"]
# explicit identifiers, some of them inside the implicit numbering range
IDS = ["n0", "n1", "n2", "n4", "x", "y.1", "z-2", "ü"]
SPACE = st.text(alphabet=" \t\n\r\u00a0\u2003", max_size=3)


@st.composite
def specs(draw, depth: int = 0):
    """``(label, explicit id or None, children)``, identifiers unique."""
    label = draw(st.sampled_from(LABELS))
    nid = draw(st.one_of(st.none(), st.sampled_from(IDS)))
    n_kids = draw(st.integers(0, 3 if depth < 3 else 0))
    return (label, nid, [draw(specs(depth + 1)) for _ in range(n_kids)])


def dedupe(spec, seen):
    label, nid, kids = spec
    if nid in seen:
        nid = None
    elif nid is not None:
        seen.add(nid)
    return (label, nid, [dedupe(kid, seen) for kid in kids])


def explicit_ids(spec):
    label, nid, kids = spec
    return ([nid] if nid else []) + [i for kid in kids for i in explicit_ids(kid)]


def expected_tree(spec, fresh: NodeIds) -> Tree:
    label, nid, kids = spec
    node = nid if nid is not None else fresh.fresh()
    return Tree.build(label, node, [expected_tree(kid, fresh) for kid in kids])


def render(spec, draw, empty_parens) -> str:
    label, nid, kids = spec
    ws = lambda: draw(SPACE)  # noqa: E731
    head = label + (f"#{nid}" if nid is not None else "")
    if not kids:
        return head + (f"{ws()}({ws()})" if draw(empty_parens) else "")
    inner = ",".join(f"{ws()}{render(kid, draw, empty_parens)}{ws()}" for kid in kids)
    return f"{head}{ws()}({inner})"


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_term_parses_to_the_reference_tree(data):
    spec = dedupe(data.draw(specs()), set())
    text = data.draw(SPACE) + render(spec, data.draw, st.booleans()) + data.draw(SPACE)
    expected = expected_tree(spec, NodeIds("n", forbidden=explicit_ids(spec)))
    tree = parse_term(text)
    assert tree == expected
    assert list(tree.nodes()) == list(expected.nodes())
    assert parse_term(tree.to_term()) == tree
    assert tree.to_term(with_ids=False) == expected.to_term(with_ids=False)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_forest_shares_one_numbering(data):
    seen: set = set()
    forest = [dedupe(data.draw(specs()), seen) for _ in range(data.draw(st.integers(1, 3)))]
    text = ",".join(
        data.draw(SPACE) + render(spec, data.draw, st.booleans()) + data.draw(SPACE)
        for spec in forest
    )
    fresh = NodeIds("n", forbidden=[i for spec in forest for i in explicit_ids(spec)])
    assert parse_forest(text) == [expected_tree(spec, fresh) for spec in forest]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_script_term_round_trip(data):
    spec = dedupe(data.draw(specs()), set())
    tree = expected_tree(spec, NodeIds("n", forbidden=explicit_ids(spec)))
    script = data.draw(
        st.sampled_from([EditScript.phantom, EditScript.insertion, EditScript.deletion])
    )(tree)
    text = script.to_term()
    assert EditScript.parse(text) == script
    assert EditScript.parse(text).to_term() == text
