"""Expression language: canonical printing and parsing, and content addresses."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entmesh.hashtree import MerkleTree
from entmesh.identity import RecoveryPolicy
from entmesh.keys import keypair_from_seed
from entmesh.sexpr import (
    ParseError,
    encode_tree,
    parse,
    tokens_of,
    unparse,
)


class TestParse:
    def test_atoms(self):
        assert parse("42") == 42
        assert parse("-7") == -7
        assert parse("hello") == "hello"
        assert parse("#xdeadbeef") == bytes.fromhex("deadbeef")
        assert parse("#x") == b""

    def test_nesting(self):
        assert parse("(a (b 1) ())") == ("a", ("b", 1), ())

    def test_whitespace_tolerated_on_input(self):
        assert parse("  ( a\n\t1 )\r\n") == ("a", 1)

    def test_symbols_with_punctuation(self):
        for sym in ("m1-0", ">=", "status/check", "node.id", "a_b"):
            assert parse(sym) == sym

    @pytest.mark.parametrize(
        "text,offset",
        [
            ("(a", 2),
            ("a)", 1),
            ("a b", 2),
            ("#xzz", 0),
            ("#xabc", 0),
            ("", 0),
            ("(a [b])", 3),
        ],
    )
    def test_errors_carry_offsets(self, text, offset):
        with pytest.raises(ParseError) as err:
            parse(text)
        assert err.value.offset == offset

    def test_offset_points_at_offending_token(self):
        with pytest.raises(ParseError) as err:
            parse("(plus 1 [])")
        assert err.value.offset == 8
        assert "[" in str(err.value)

    def test_non_ascii_token_rejected(self):
        with pytest.raises(ParseError) as err:
            parse("(café)")
        assert err.value.offset == 1

    def test_integer_past_the_int_string_limit_is_a_parse_error(self):
        # Python refuses to convert an integer string of more than 4,300
        # digits; the literal is refused at its offset like any bad token.
        with pytest.raises(ParseError, match=r"^integer literal of 5000 digits is too long \(offset 6\)$") as err:
            parse("(role " + "9" * 5000 + ")")
        assert err.value.offset == 6


class TestUnparse:
    def test_canonical_form(self):
        assert unparse(("a", ("b", 1), ())) == "(a (b 1) ())"
        assert unparse(b"\xde\xad") == "#xdead"
        assert unparse(17) == "17"

    def test_no_space_after_open_or_before_close(self):
        assert unparse(("x",)) == "(x)"
        assert unparse((("x",),)) == "((x))"

    def test_rejects_unprintable_symbol(self):
        with pytest.raises(ValueError):
            unparse("has space")
        with pytest.raises(ValueError):
            unparse(("ok", "12"))  # a symbol that reads back as an int

    def test_round_trip_examples(self):
        for text in ("(role auditor)", "(threshold 2 true false true)", "#x00ff"):
            assert unparse(parse(text)) == text

    def test_round_trip_5000_deep(self):
        # parse keeps its own stack, and so does the printer: whatever parses, prints.
        text = "(" * 5000 + "claim" + ")" * 5000
        assert unparse(parse(text)) == text
        assert encode_tree(parse(text)).size == 10_001


class TestTokens:
    def test_token_stream(self):
        assert tokens_of(("a", 1, ())) == ["(", "a", "1", "(", ")", ")"]

    def test_encode_tree_one_leaf_per_token(self):
        expr = ("pay", 5, b"\x01")
        tree = encode_tree(expr)
        assert tree.size == len(tokens_of(expr))
        direct = MerkleTree(t.encode() for t in tokens_of(expr))
        assert tree.root == direct.root

    def test_encoding_separates_structure(self):
        # Flattened token content differs by parens, so roots differ.
        assert encode_tree(("a", ("b",))).root != encode_tree(("a", "b")).root


class TestThresholdForm:
    """A recovery policy commits ``(threshold k g...)``; with no evaluator,
    ``RecoveryPolicy.decide`` is what reads it: true when k of the distinct
    guardians endorse, whatever else is in the endorsing list."""

    @pytest.mark.parametrize(
        "threshold,endorsing,holds",
        [
            (1, (), False),
            (1, (2,), True),
            (2, (0, 0), False),
            (2, (0, 3), False),
            (2, (2, 1), True),
            (3, (0, 1, 2), True),
            (3, (0, 1, 3, 3), False),
        ],
    )
    def test_decide_counts_the_form(self, threshold, endorsing, holds):
        ids = [keypair_from_seed(f"g{i}").node_id for i in range(3)] + [keypair_from_seed("stranger").node_id]
        policy = RecoveryPolicy(threshold, tuple(ids[:3]))
        assert policy.expr() == ("threshold", threshold, *sorted(ids[:3]))
        assert policy.decide([ids[i] for i in endorsing]) is holds


symbols = st.from_regex(r"[a-z!$%&*+./:<=>?@^_~][a-z0-9!$%&*+./:<=>?@^_~-]{0,8}", fullmatch=True).filter(
    lambda s: not s.lstrip("-").isdigit()
)
atoms = st.one_of(st.integers(), symbols, st.binary(max_size=8))
exprs = st.recursive(atoms, lambda inner: st.lists(inner, max_size=4).map(tuple), max_leaves=20)


@settings(max_examples=300, deadline=None)
@given(exprs)
def test_print_parse_round_trip(expr):
    assert parse(unparse(expr)) == expr


@settings(max_examples=200, deadline=None)
@given(exprs)
def test_equal_expressions_share_content_address(expr):
    assert encode_tree(expr).root == encode_tree(parse(unparse(expr))).root
