"""Editing scripts (paper Section 2).

An editing script ``S`` is a tree over ``E(Σ)`` subject to
well-formedness: all descendants of an inserting node are inserting, and
all descendants of a deleting node are deleting (only whole subtrees are
inserted/deleted). A script simultaneously encodes:

* the input tree ``In(S)`` — nodes not labelled ``Ins``;
* the output tree ``Out(S)`` — nodes not labelled ``Del``;
* the correspondence between their nodes (shared identifiers);
* the cost — the number of non-phantom nodes.

The script's node identifiers are those of the trees it edits, which is
what lets the view update problem demand *identifier-exact*
side-effect-freeness.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from ..errors import InvalidScriptError, ScriptError, TreeError
from ..xmltree import NodeId, Tree, parse_term
from .ops import EditLabel, Op, dele, ins, nop, parse_edit_label, ren

__all__ = ["EditScript", "round_trip_term"]

_EDIT_LABELS: "dict[str, EditLabel]" = {}
_EDIT_LABELS_LIMIT = 4096


def _edit_labels(texts: "Iterable[str]") -> "dict[str, EditLabel]":
    """Map each distinct compact label text (``Ins.a``) in *texts* to
    its immutable :class:`EditLabel`.

    A script of thousands of nodes carries a few dozen distinct labels
    (the schema alphabet times the operations), so each is parsed once
    per process and its instance shared through a table keyed by the
    text; a label parse and a dataclass construction per node become a
    dictionary lookup. The table is cleared when it reaches its bound,
    so arbitrary client labels cannot grow it without limit.
    """
    table = _EDIT_LABELS
    labels: "dict[str, EditLabel]" = {}
    for text in dict.fromkeys(texts):  # document order: the first bad label is reported
        label = table.get(text)
        if label is None:
            label = parse_edit_label(text)
            if len(table) >= _EDIT_LABELS_LIMIT:
                table.clear()
            table[text] = label
        labels[text] = label
    return labels


class EditScript:
    """An editing script: a well-formed tree over ``E(Σ)``.

    Normally built through :class:`~repro.editing.builder.UpdateBuilder`,
    the constructors :meth:`insertion` / :meth:`deletion` /
    :meth:`phantom`, :meth:`assemble`, or :meth:`parse`.
    """

    __slots__ = ("_tree", "_input", "_output", "_cost", "_term")

    def __init__(self, tree: Tree) -> None:
        """Wrap a tree whose labels are :class:`EditLabel`; validates."""
        self._tree = tree
        self._input: Tree | None = None
        self._output: Tree | None = None
        self._cost: int | None = None
        self._term: str | None = None
        self._validate()

    @classmethod
    def _trusted(cls, tree: Tree) -> "EditScript":
        """Adopt a tree already known to be well-formed, skipping the
        ``O(|S|)`` validation walk.

        Internal constructors whose output is well-formed by
        construction (:meth:`_uniform`, :meth:`assemble` after its root
        check, :meth:`subscript`) use this; the public constructor and
        :meth:`parse` keep validating.
        """
        self = cls.__new__(cls)
        self._tree = tree
        self._input = None
        self._output = None
        self._cost = None
        self._term = None
        return self

    def _validate(self) -> None:
        tree = self._tree
        if tree.is_empty:
            return
        labels = tree._labels
        children = tree._children
        stack = [tree.root]
        while stack:  # preorder, so the first offender is reported
            node = stack.pop()
            label = labels[node]
            if not isinstance(label, EditLabel):
                raise InvalidScriptError(
                    f"script node {node!r} has non-edit label {label!r}"
                )
            kids = children.get(node)
            if not kids:
                continue
            op = label.op
            if op is Op.INS or op is Op.DEL:
                for kid in kids:
                    # a kid without an edit label is refused when visited
                    kid_op = getattr(labels[kid], "op", op)
                    if kid_op is not op:
                        raise InvalidScriptError(
                            f"descendant {kid!r} of "
                            f"{'inserting' if op is Op.INS else 'deleting'} "
                            f"node {node!r} is {kid_op}"
                        )
            stack.extend(reversed(kids))

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def _uniform(cls, tree: Tree, op: Op) -> "EditScript":
        # uniform scripts are well-formed by construction
        return cls._trusted(tree.map_labels(lambda symbol: EditLabel(op, symbol)))

    @classmethod
    def insertion(cls, tree: Tree) -> "EditScript":
        """``Ins(t)`` — inserts *tree* wholesale: ``In`` empty, ``Out = t``."""
        return cls._uniform(tree, Op.INS)

    @classmethod
    def deletion(cls, tree: Tree) -> "EditScript":
        """``Del(t)`` — deletes *tree* wholesale: ``In = t``, ``Out`` empty."""
        return cls._uniform(tree, Op.DEL)

    @classmethod
    def phantom(cls, tree: Tree) -> "EditScript":
        """``Nop(t)`` — touches nothing: ``In = Out = t``."""
        return cls._uniform(tree, Op.NOP)

    @classmethod
    def assemble(
        cls,
        label: EditLabel,
        node: NodeId,
        children: Sequence["EditScript"] = (),
    ) -> "EditScript":
        """Build a script from a root operation and child scripts.

        The children are already-validated scripts, so well-formedness
        only needs the root/child-root operation check here — the old
        full revalidation walk made every level of a bottom-up assembly
        re-scan the entire subtree.
        """
        op = label.op
        if op is not Op.NOP and op is not Op.REN:
            for child in children:
                kid_op = child._tree.label(child._tree.root).op
                if kid_op is not op:
                    raise InvalidScriptError(
                        f"descendant {child._tree.root!r} of "
                        f"{'inserting' if op is Op.INS else 'deleting'} "
                        f"node {node!r} is {kid_op}"
                    )
        tree = Tree.build(label, node, [child._tree for child in children])
        return cls._trusted(tree)

    @classmethod
    def parse(cls, text: str, id_prefix: str = "n") -> "EditScript":
        """Parse compact term notation, e.g. ``Nop.r#n0(Del.a#n1, Ins.d#n11)``.

        The operation prefix (``Ins.``/``Del.``/``Nop.``) is split off
        each label; everything else follows
        :func:`repro.xmltree.parse_term`.
        """
        raw = parse_term(text, id_prefix=id_prefix)
        labels = _edit_labels(raw._labels.values())
        return cls(raw.map_labels(labels.__getitem__))

    def to_packed(self) -> dict:
        """A JSON-ready flat encoding: ``{"root", "nodes"}`` with one
        ``[id, op, symbol, target, [child ids]]`` row per node, preorder.

        Term notation stays the canonical interchange format; this form
        exists because rebuilding a memoized script on a serving path
        should cost a few dict inserts, not a character-level parse.
        :meth:`from_packed` inverts it.
        """
        tree = self._tree
        if tree.is_empty:
            return {"root": None, "nodes": []}
        nodes = []
        for node in tree.nodes():
            label = tree.label(node)
            nodes.append(
                [node, label.op.name, label.symbol, label.target,
                 list(tree.children(node))]
            )
        return {"root": tree.root, "nodes": nodes}

    @classmethod
    def from_packed(cls, payload: dict) -> "EditScript":
        """Rebuild a script from :meth:`to_packed` output.

        Labels go through :class:`EditLabel` and the result through the
        validating constructor, so a malformed payload raises rather
        than yielding an ill-formed script.
        """
        root = payload["root"]
        if root is None:
            return cls(Tree.empty())
        labels: "dict[NodeId, EditLabel]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        for node, op_name, symbol, target, kids in payload["nodes"]:
            labels[node] = EditLabel(Op[op_name], symbol, target)
            if kids:
                kid_ids = tuple(kids)
                children[node] = kid_ids
                for kid in kid_ids:
                    parents[kid] = node
        if root not in labels or len(parents) != len(labels) - 1:
            raise InvalidScriptError("packed script structure is inconsistent")
        tree = Tree._from_parts(root, labels, children, parents)
        return cls(tree)

    # ------------------------------------------------------------------
    # Structure access
    # ------------------------------------------------------------------

    @property
    def tree(self) -> Tree:
        """The underlying tree over ``E(Σ)``."""
        return self._tree

    @property
    def is_empty(self) -> bool:
        return self._tree.is_empty

    @property
    def root(self) -> NodeId:
        return self._tree.root

    @property
    def size(self) -> int:
        """``|S|`` — total number of script nodes."""
        return self._tree.size

    @property
    def node_set(self) -> frozenset[NodeId]:
        """``N_S``."""
        return self._tree.node_set

    def nodes(self) -> Iterator[NodeId]:
        return self._tree.nodes()

    def children(self, node: NodeId) -> tuple[NodeId, ...]:
        return self._tree.children(node)

    def edit_label(self, node: NodeId) -> EditLabel:
        """``λ_S(node) ∈ E(Σ)``."""
        return self._tree.label(node)

    def op(self, node: NodeId) -> Op:
        return self.edit_label(node).op

    def symbol(self, node: NodeId) -> str:
        """The Σ-symbol the operation applies to (the ``In``-side label)."""
        return self.edit_label(node).symbol

    def output_symbol(self, node: NodeId) -> str:
        """The label the node carries in ``Out(S)`` (differs for renames)."""
        return self.edit_label(node).output_symbol

    def is_kept(self, node: NodeId) -> bool:
        """Whether the node is in both ``In(S)`` and ``Out(S)`` (Nop or Ren)."""
        return self.edit_label(node).is_kept

    def subscript(self, node: NodeId) -> "EditScript":
        """``S|node`` — the script fragment rooted at *node*."""
        # a subtree of a well-formed script is well-formed
        return EditScript._trusted(self._tree.subtree(node))

    def nop_nodes(self) -> Iterator[NodeId]:
        """``N_Δ`` — nodes with phantom operations (document order)."""
        for node in self._tree.nodes():
            if self.op(node) is Op.NOP:
                yield node

    def kept_nodes(self) -> Iterator[NodeId]:
        """``N_Δ`` of the renaming extension: phantom *and* renamed nodes."""
        for node in self._tree.nodes():
            if self.is_kept(node):
                yield node

    # ------------------------------------------------------------------
    # Semantics
    # ------------------------------------------------------------------

    def _project(self, drop: Op) -> Tree:
        """The tree of nodes whose operation is not *drop*.

        Labels come from the ``In`` side when insertions are dropped and
        from the ``Out`` side when deletions are (renamed nodes change
        label between the two).

        This is the batched applier: one iterative pass accumulating the
        node maps of the projected tree directly, instead of assembling
        a fresh tree (and merging every descendant's maps again) at each
        level of a recursion.
        """
        tree = self._tree
        if tree.is_empty:
            return Tree.empty()
        root = tree.root
        script_labels: "dict[NodeId, EditLabel]" = tree._labels
        script_children = tree._children
        if script_labels[root].op is drop:
            # well-formedness: the whole script is then uniformly `drop`
            return Tree.empty()
        output_side = drop is Op.DEL

        labels: "dict[NodeId, str]" = {}
        children: "dict[NodeId, tuple[NodeId, ...]]" = {}
        parents: "dict[NodeId, NodeId]" = {}
        stack = [root]
        while stack:
            node = stack.pop()
            label = script_labels[node]
            labels[node] = label.output_symbol if output_side else label.symbol
            kids = script_children.get(node)
            if kids:
                kept = tuple(
                    kid for kid in kids if script_labels[kid].op is not drop
                )
                if kept:
                    children[node] = kept
                    for kid in kept:
                        parents[kid] = node
                    stack.extend(kept)
        return Tree._from_parts(root, labels, children, parents)

    @property
    def input_tree(self) -> Tree:
        """``In(S)`` — the tree the script applies to."""
        if self._input is None:
            self._input = self._project(Op.INS)
        return self._input

    @property
    def output_tree(self) -> Tree:
        """``Out(S)`` — the tree the script produces."""
        if self._output is None:
            self._output = self._project(Op.DEL)
        return self._output

    @property
    def cost(self) -> int:
        """Number of non-phantom nodes (the paper's script cost)."""
        if self._cost is None:
            self._cost = sum(
                1
                for label in self._tree._labels.values()
                if label.op is not Op.NOP
            )
        return self._cost

    def content_key(self) -> str:
        """A canonical content digest of the script (see
        :meth:`repro.xmltree.Tree.content_key`); equal scripts share it."""
        return self._tree.content_key()

    def apply_to(self, tree: Tree) -> Tree:
        """``S(tree)``: require ``In(S) = tree`` and return ``Out(S)``."""
        if self.input_tree != tree:
            raise InvalidScriptError(
                "script input tree does not match the given tree"
            )
        return self.output_tree

    def is_identity(self) -> bool:
        """All operations phantom."""
        return self.cost == 0

    # ------------------------------------------------------------------
    # Comparison / rendering
    # ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EditScript):
            return NotImplemented
        return self._tree == other._tree

    def __hash__(self) -> int:
        return hash(self._tree)

    def shape(self) -> tuple:
        """Identifier-free canonical form (for isomorphism comparisons)."""
        return self._tree.map_labels(str).shape()

    def to_term(self, with_ids: bool = True) -> str:
        """Compact term notation accepted back by :meth:`parse`.

        The form with identifiers is the one the journal, the wire and
        the replication feed carry; it is rendered once per script and
        kept (scripts are immutable).
        """
        if with_ids and self._term is not None:
            return self._term
        tree = self._tree
        if tree.is_empty:
            return "()"
        labels = tree._labels
        if not with_ids:
            return tree._term_text(lambda node: labels[node].encode())
        self._term = tree._term_text(lambda node: f"{labels[node].encode()}#{node}")
        return self._term

    def pretty(self, with_ids: bool = True) -> str:
        """Multi-line rendering with ``Ins(a)``-style labels."""
        return self._tree.map_labels(str).pretty(with_ids)

    def __repr__(self) -> str:
        if self._tree.is_empty:
            return "EditScript(empty)"
        term = self.to_term()
        if len(term) > 60:
            term = term[:57] + "..."
        return f"EditScript({term})"


# re-exported for convenience when assembling scripts manually
EditScript.ins = staticmethod(ins)  # type: ignore[attr-defined]
EditScript.dele = staticmethod(dele)  # type: ignore[attr-defined]
EditScript.nop = staticmethod(nop)  # type: ignore[attr-defined]
EditScript.ren = staticmethod(ren)  # type: ignore[attr-defined]


def round_trip_term(script: EditScript) -> str:
    """The term text of *script*, checked to parse back to an equal
    script.

    What is written for a later reader (the journal, the disk memo)
    must read back as exactly this script: XML allows node identifiers
    that term notation cannot carry (spaces, commas), and such a script
    has to be refused when it is written, not when it is replayed.
    Raises :class:`~repro.errors.ScriptError` when it cannot be.
    """
    text = script.to_term()
    try:
        reparsed = EditScript.parse(text)
    except (ScriptError, TreeError) as error:
        raise InvalidScriptError(
            f"script does not survive the term-notation round trip ({error})"
        ) from error
    if reparsed != script:
        raise InvalidScriptError(
            "script re-parses differently — node identifiers are not "
            "term-notation-safe"
        )
    return text
