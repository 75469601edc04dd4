"""The term codec: exact syntax errors, the character classes of the
grammar, and documents deeper than the interpreter's recursion limit."""

import re
import sys

import pytest

from repro.editing import EditScript, round_trip_term
from repro.errors import InvalidScriptError, TermSyntaxError
from repro.xmltree import Tree, parse_forest, parse_term

# Each malformed term with the exact message it raises: the error names
# what was expected and the position where the parser stopped.
MALFORMED = [
    ("", "expected a label at position 0 in ''"),
    ("   ", "expected a label at position 3 in '   '"),
    ("r(", "expected a label at position 2 in 'r('"),
    ("r(a", "expected ')' at position 3 in 'r(a'"),
    ("r(a,", "expected a label at position 4 in 'r(a,'"),
    ("r(a,)", "expected a label at position 4 in 'r(a,)'"),
    ("r(,a)", "expected a label at position 2 in 'r(,a)'"),
    ("r(a,,b)", "expected a label at position 4 in 'r(a,,b)'"),
    ("r#", "expected a node identifier at position 2 in 'r#'"),
    ("r#(a)", "expected a node identifier at position 2 in 'r#(a)'"),
    ("r(a#)", "expected a node identifier at position 4 in 'r(a#)'"),
    ("r(a b)", "expected ')' at position 4 in 'r(a b)'"),
    ("r (a, b c)", "expected ')' at position 8 in 'r (a, b c)'"),
    ("r(a(b(c", "expected ')' at position 7 in 'r(a(b(c'"),
    ("r(a) b", "trailing input at position 5 in 'r(a) b'"),
    ("r(a))", "trailing input at position 4 in 'r(a))'"),
    ("r, a", "trailing input at position 1 in 'r, a'"),
    ("r()x", "trailing input at position 3 in 'r()x'"),
    ("r$", "trailing input at position 1 in 'r$'"),
    ("r(a)#n1", "trailing input at position 4 in 'r(a)#n1'"),
    ("r#n1#n2", "trailing input at position 4 in 'r#n1#n2'"),
    ("r(a)(b)", "trailing input at position 4 in 'r(a)(b)'"),
    ("(a)", "expected a label at position 0 in '(a)'"),
    ("#n1", "expected a label at position 0 in '#n1'"),
    ("r#n0(a#n0)", "duplicate node identifier 'n0'"),
    ("r#n0(a#n1, b#n1)", "duplicate node identifier 'n1'"),
    # a syntax error wins over a duplicate identifier before it
    ("r#n0(a#n0, )", "expected a label at position 11 in 'r#n0(a#n0, )'"),
]

MALFORMED_FORESTS = [
    ("a b", "trailing input at position 2 in 'a b'"),
    ("a,", "expected a label at position 2 in 'a,'"),
    (",a", "expected a label at position 0 in ',a'"),
    ("a, b)", "trailing input at position 4 in 'a, b)'"),
    ("a#n1, b#n1", "duplicate node identifier 'n1'"),
]


class TestSyntaxErrors:
    @pytest.mark.parametrize("text,message", MALFORMED)
    def test_message_and_position(self, text, message):
        with pytest.raises(TermSyntaxError) as caught:
            parse_term(text)
        assert str(caught.value) == message

    @pytest.mark.parametrize("text,message", MALFORMED_FORESTS)
    def test_forest_message_and_position(self, text, message):
        with pytest.raises(TermSyntaxError) as caught:
            parse_forest(text)
        assert str(caught.value) == message

    def test_script_parse_reports_the_same_error(self):
        with pytest.raises(TermSyntaxError, match=r"expected .\). at position 17"):
            EditScript.parse("Nop.r#n0(Del.a#n1")


class TestAcceptedForms:
    def test_whitespace_anywhere_between_tokens(self):
        tree = parse_term("\tr#n0 (\n a , b\r(\u00a0c\u2003) )  ")
        assert tree.to_term() == "r#n0(a#n1, b#n2(c#n3))"

    def test_empty_child_list(self):
        assert parse_term("r ( ) ") == parse_term("r")

    def test_word_characters(self):
        tree = parse_term("r.x-y_z#n-0.1( é#ü )")
        assert tree.to_term() == "r.x-y_z#n-0.1(é#ü)"

    def test_forest_of_whitespace_is_empty(self):
        assert parse_forest(" \n ") == []

    def test_forest_shares_implicit_numbering_around_explicit_ids(self):
        trees = parse_forest("a(b), c#n0")
        assert [tree.to_term() for tree in trees] == ["a#n1(b#n2)", "c#n0"]


class TestCharacterClasses:
    """Labels and identifiers are runs of ``str.isalnum()`` characters
    and ``_-.``; whitespace is what ``str.isspace()`` accepts — over
    every code point, not a sample."""

    ALL = "".join(map(chr, range(sys.maxunicode + 1)))

    def test_word_characters_are_exactly_isalnum_and_three_marks(self):
        word = "".join(c for c in self.ALL if c.isalnum() or c in "_-.")
        assert re.findall(r"[\w.\-]", self.ALL) == list(word)
        tree = parse_term(f"{word}#{word[::-1]}")
        assert tree.root == word[::-1]
        assert tree.label(tree.root) == word

    def test_whitespace_is_exactly_isspace(self):
        space = "".join(c for c in self.ALL if c.isspace())
        assert re.findall(r"\s", self.ALL) == list(space)
        assert parse_term(f"{space}r{space}({space}a{space},{space}b{space}){space}") == (
            parse_term("r(a, b)")
        )

    def test_other_characters_end_a_word(self):
        others = [
            c for c in self.ALL[:0x3000]
            if not (c.isalnum() or c.isspace() or c in "_-.#(),")
        ]
        for char in others:
            with pytest.raises(TermSyntaxError, match="trailing input at position 1"):
                parse_term("r" + char)


def chain_term(depth: int, head=lambda i: f"a#n{i}") -> str:
    return "".join(head(i) + "(" for i in range(depth - 1)) + head(depth - 1) + ")" * (depth - 1)


class TestDeepDocuments:
    """A chain far deeper than the recursion limit parses, renders and
    survives the journal's round trip."""

    DEPTH = 5000

    def test_limit_is_below_the_depth(self):
        assert sys.getrecursionlimit() < self.DEPTH

    def test_tree_round_trip(self):
        text = chain_term(self.DEPTH)
        tree = parse_term(text)
        assert tree.size == self.DEPTH
        assert tree.depth(f"n{self.DEPTH - 1}") == self.DEPTH - 1
        assert tree.to_term() == text
        assert parse_term(tree.to_term(with_ids=False)).to_term() == text

    def test_implicit_ids_number_the_chain_in_document_order(self):
        tree = parse_term(chain_term(self.DEPTH, head=lambda i: "a"))
        assert tree.to_term() == chain_term(self.DEPTH)

    def test_script_round_trip(self):
        text = chain_term(
            self.DEPTH,
            head=lambda i: f"Del.a#n{i}" if i > self.DEPTH // 2 else f"Nop.a#n{i}",
        )
        script = EditScript.parse(text)
        assert script.cost == self.DEPTH - self.DEPTH // 2 - 1
        assert script.to_term() == text
        assert round_trip_term(script) == text
        assert EditScript.parse(script.to_term()) == script
        assert script.to_term(with_ids=False).count("(") == self.DEPTH - 1

    def test_ill_formed_deep_script_is_refused(self):
        text = chain_term(self.DEPTH, head=lambda i: "Del.a" if i < 3 else "Nop.a")
        with pytest.raises(InvalidScriptError, match="deleting node 'n2'"):
            EditScript.parse(text)


class TestEmission:
    def test_nested_siblings(self):
        text = "r#n0(a#n1(b#n2, c#n3(d#n4)), e#n5, f#n6(g#n7))"
        assert parse_term(text).to_term() == text
        assert parse_term(text).to_term(with_ids=False) == (
            "r(a(b, c(d)), e, f(g))"
        )

    def test_empty_tree(self):
        assert Tree.empty().to_term() == "()"

    def test_script_term_is_rendered_once(self):
        script = EditScript.parse("Nop.r#n0(Del.a#n1, Ins.b#n2)")
        first = script.to_term()
        assert first == "Nop.r#n0(Del.a#n1, Ins.b#n2)"
        assert script.to_term() is first
        assert script.to_term(with_ids=False) == "Nop.r(Del.a, Ins.b)"


class TestRoundTripHelper:
    def test_identifiers_outside_term_notation_are_refused(self):
        tree = Tree.build("r", "n 0", [Tree.leaf("a", "a,b")])
        with pytest.raises(InvalidScriptError, match="term-notation round trip"):
            round_trip_term(EditScript.phantom(tree))

    def test_identifiers_that_re_parse_differently_are_refused(self):
        # "7" renders as #7 and reads back as the string "7", not the int
        tree = Tree.build("r", "n0", [Tree.leaf("a", 7)])
        with pytest.raises(InvalidScriptError, match="re-parses differently"):
            round_trip_term(EditScript.phantom(tree))
