"""Term notation for trees.

The paper denotes trees as terms over Σ when node identifiers do not
matter (e.g. ``r(b, a, c)``) and draws them with explicit identifiers
otherwise. This module supports both:

* ``parse_term("r(a, b(c))")`` assigns fresh identifiers ``n0, n1, ...``
  in document order;
* ``parse_term("r#n0(a#n1, d#n3(c#n8))")`` uses the explicit identifiers
  after ``#``.

Mixing the two styles is allowed; nodes without ``#id`` receive fresh
identifiers that avoid all explicit ones.

The grammar, with whitespace allowed between any two tokens::

    node   := word ("#" word)? ("(" (node ("," node)*)? ")")?
    word   := one or more Unicode alphanumerics, "_", "-" or "."

The parser is one left-to-right pass with an explicit stack, so its
cost is linear in the text and its depth is bounded by memory, not by
the interpreter's recursion limit. Each step matches a precompiled
regex at the current position: ``\\w`` accepts exactly the characters
:meth:`str.isalnum` accepts plus ``_``, and ``\\s`` exactly those of
:meth:`str.isspace`. The pass records the nodes in document order and
hands the finished label, child and parent maps to the tree without
building any intermediate subtree.
"""

from __future__ import annotations

import re

from ..errors import TermSyntaxError
from .nodeid import NodeIds
from .tree import Tree

__all__ = ["parse_term", "parse_forest"]

# One node head: its label, an optional "#id" (an empty id is an error
# the caller reports), then an optional "(" that opens its children,
# with the ")" of an empty child list. Whitespace the grammar allows
# around these tokens is consumed.
_HEAD = re.compile(r"\s*([\w.\-]+)(?:#([\w.\-]*))?\s*(?:(\()\s*(\))?)?")
# What follows a finished node: "," (a sibling), ")" (its parent
# closes), or nothing this grammar allows there.
_NEXT = re.compile(r"\s*([,)]?)")
_WS = re.compile(r"\s*")


def _error(message: str, text: str, pos: int) -> TermSyntaxError:
    return TermSyntaxError(f"{message} at position {pos} in {text!r}")


class _Nodes:
    """The parsed nodes of a term or forest, in document order.

    A node without an explicit identifier stands in as its integer
    index (explicit identifiers are always strings, so the two never
    collide) until :meth:`trees` numbers it.
    """

    __slots__ = ("labels", "ids", "parents", "closed", "kids", "roots", "implicit")

    def __init__(self) -> None:
        self.labels: "list[str]" = []
        self.ids: list = []
        self.parents: list = []  # parallel to ids; None for a root
        self.closed: list = []  # nodes with children, in closing order
        self.kids: "list[list]" = []  # their child lists, parallel to closed
        self.roots: "list[tuple[int, int]]" = []  # (node index, closed index)
        self.implicit = 0

    def trees(self, id_prefix: str) -> "list[Tree]":
        """One tree per root. A repeated explicit identifier is refused;
        implicit nodes are numbered ``<id_prefix>0, <id_prefix>1, ...``
        in document order, skipping every explicit identifier."""
        self._name(id_prefix)
        ids, labels, parents = self.ids, self.labels, self.parents
        bounds = self.roots + [(len(ids), len(self.closed))]
        out = []
        for (lo, c_lo), (hi, c_hi) in zip(bounds, bounds[1:]):  # one contiguous run each
            out.append(
                Tree._from_parts(
                    ids[lo],
                    dict(zip(ids[lo:hi], labels[lo:hi])),
                    dict(zip(self.closed[c_lo:c_hi], map(tuple, self.kids[c_lo:c_hi]))),
                    dict(zip(ids[lo + 1:hi], parents[lo + 1:hi])),
                )
            )
        return out

    def _name(self, id_prefix: str) -> None:
        ids = self.ids
        if len(set(ids)) != len(ids):
            seen: "set[str]" = set()
            for nid in ids:
                if nid in seen:
                    raise TermSyntaxError(f"duplicate node identifier {nid!r}")
                seen.add(nid)
        if not self.implicit:
            return
        fresh = NodeIds(
            id_prefix, forbidden=[nid for nid in ids if nid.__class__ is str]
        )
        named = [nid if nid.__class__ is str else fresh.fresh() for nid in ids]

        def rename(nid):
            return nid if nid.__class__ is str else named[nid]

        self.ids = named
        self.parents = [None if p is None else rename(p) for p in self.parents]
        self.closed = [rename(nid) for nid in self.closed]
        self.kids = [[rename(kid) for kid in kids] for kids in self.kids]


def _scan(text: str, forest: bool) -> _Nodes:
    """Read *text* as one node (or, with *forest*, a comma-separated
    sequence of nodes) and return its nodes; raise
    :class:`TermSyntaxError` at the first position the grammar rejects."""
    nodes = _Nodes()
    labels, ids, parents = nodes.labels, nodes.ids, nodes.parents
    closed, closed_kids = nodes.closed, nodes.kids
    head, after = _HEAD.match, _NEXT.match
    end = len(text)
    stack: list = []  # (parent, siblings) of each open node's own level
    parent = None
    siblings: list = []
    pos = 0
    while True:
        match = head(text, pos)
        if match is None:
            raise _error("expected a label", text, _WS.match(text, pos).end())
        label, nid, opened, empty = match.groups()
        if nid is None:
            nid = len(ids)
            nodes.implicit += 1
        elif not nid:
            raise _error("expected a node identifier", text, match.start(2))
        if parent is None:
            nodes.roots.append((len(ids), len(closed)))
        labels.append(label)
        ids.append(nid)
        parents.append(parent)
        siblings.append(nid)
        pos = match.end()
        if opened and not empty:
            stack.append((parent, siblings))
            parent, siblings = nid, []
            continue
        while True:
            match = after(text, pos)
            mark = match.group(1)
            pos = match.start(1)
            if mark == ")" and stack:
                closed.append(parent)
                closed_kids.append(siblings)
                parent, siblings = stack.pop()
                pos += 1
                continue
            if mark == "," and (stack or forest):
                pos += 1
                break
            if stack:
                raise _error("expected ')'", text, pos)
            if pos != end:
                raise _error("trailing input", text, pos)
            return nodes


def parse_term(text: str, id_prefix: str = "n") -> Tree:
    """Parse term notation into a :class:`Tree`.

    Nodes without an explicit ``#id`` receive identifiers
    ``<id_prefix>0, <id_prefix>1, ...`` in document order, skipping any
    identifiers used explicitly elsewhere in the term.
    """
    return _scan(text, forest=False).trees(id_prefix)[0]


def parse_forest(text: str, id_prefix: str = "n") -> list[Tree]:
    """Parse a comma-separated sequence of terms sharing one id namespace."""
    if _WS.match(text).end() == len(text):
        return []
    return _scan(text, forest=True).trees(id_prefix)
