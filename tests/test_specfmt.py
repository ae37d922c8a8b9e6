import pytest

from asmkit import (
    Assign,
    Cond,
    Par,
    SpecParseError,
    apply_rule,
    flip_algorithm,
    parse_spec,
    render_rule,
    unparse_spec,
)
from conftest import PAPER_EXAMPLE_SPEC

RULE_DOC = """
vocabulary:
  c/0  d/0
  f/0
  g/1

state S0:
  elements x y
  c = x
  d = y
  g(x) = y

transition:
  par
    f := g(c)
    if eq(c, d) then g(c) := c else g(c) := d endif
  endpar

initial:
  S0

witness W:
  g(c)
  c
  eq(c, d)
  d
"""


class TestPaperExampleDocument:
    def test_parses_to_flip_algorithm(self):
        doc = parse_spec(PAPER_EXAMPLE_SPEC.read_text(encoding="utf-8"))
        parsed = doc.algorithm()
        reference = flip_algorithm()
        assert parsed.vocabulary == reference.vocabulary
        assert parsed.canonical_states == reference.canonical_states
        assert parsed.successors == reference.successors
        assert parsed.initial == reference.initial

    def test_witness_sections(self):
        doc = parse_spec(PAPER_EXAMPLE_SPEC.read_text(encoding="utf-8"))
        assert doc.witnesses["T0"] == frozenset()
        assert {str(t) for t in doc.witnesses["T1"]} == {"f", "true", "false", "undef"}


class TestRoundTrip:
    def test_explicit_document_round_trips(self):
        text = PAPER_EXAMPLE_SPEC.read_text(encoding="utf-8")
        doc = parse_spec(text)
        canonical = unparse_spec(doc)
        again = parse_spec(canonical)
        assert again == doc
        assert unparse_spec(again) == canonical

    def test_rule_document_round_trips(self):
        doc = parse_spec(RULE_DOC)
        canonical = unparse_spec(doc)
        again = parse_spec(canonical)
        assert again == doc
        assert unparse_spec(again) == canonical

    def test_parsed_rule_semantics(self):
        doc = parse_spec(RULE_DOC)
        algorithm = doc.algorithm()
        state = doc.states[0]
        updates = apply_rule(state, algorithm.program)
        rendered = {str(u) for u in updates}
        # c=3, d=4, g(3)=4: f := g(c) writes 4; guard eq(c,d) is false,
        # so g(3) := d is trivial (already 4) and contributes nothing
        assert rendered == {"(f, (), 4)"}

    def test_rule_rendering_reads_back(self):
        doc = parse_spec(RULE_DOC)
        rule = doc.transition_rule
        assert isinstance(rule, Par)
        assert isinstance(rule.rules[0], Assign)
        assert isinstance(rule.rules[1], Cond)
        assert "par" in render_rule(rule) and "endif" in render_rule(rule)


class TestParseErrors:
    def test_empty_document(self):
        with pytest.raises(SpecParseError, match="missing vocabulary section"):
            parse_spec("")

    def test_assignment_to_logical_symbol(self):
        text = """
vocabulary:
  a/0
state S:
  elements x
transition:
  true := a
initial:
  S
"""
        with pytest.raises(SpecParseError, match="assignment to logical symbol"):
            parse_spec(text)

    def test_arity_mismatch_in_term(self):
        text = """
vocabulary:
  a/0
  g/2
state S:
  elements x
transition:
  a := g(a)
"""
        with pytest.raises(SpecParseError, match="applied to 1 arguments"):
            parse_spec(text)

    @pytest.mark.parametrize("arity", ["\u00b2", "1" * 5000])
    def test_digits_int_does_not_read_are_a_bad_arity(self, arity):
        # str.isdigit accepts a superscript two, and int() refuses more than
        # 4300 digits; both are a bad arity, not a ValueError.
        text = f"vocabulary:\n  f/{arity}\nstate S:\n  elements x\ntransition:\n  state S -> S\n"
        with pytest.raises(SpecParseError, match="^line 2: bad arity in 'f/") as excinfo:
            parse_spec(text)
        assert excinfo.value.line == 2

    def test_other_decimal_digits_still_parse(self):
        text = "vocabulary:\n  f/\u0663\nstate S:\n  elements x\ntransition:\n  state S -> S\n"
        assert parse_spec(text).vocabulary.symbol("f").arity == 3

    def test_unknown_symbol(self):
        text = """
vocabulary:
  a/0
state S:
  elements x
transition:
  b := a
"""
        with pytest.raises(SpecParseError, match="unknown symbol 'b'"):
            parse_spec(text)

    def test_unknown_element_is_base_set_violation(self):
        text = """
vocabulary:
  a/0
state S:
  elements x
  a = z
transition:
  a := a
"""
        with pytest.raises(SpecParseError, match="base-set violation"):
            parse_spec(text)

    def test_successor_carrier_mismatch(self):
        text = """
vocabulary:
  a/0
state S:
  elements x
state T:
  elements x y
transition:
  state S -> T
  state T -> S
"""
        with pytest.raises(SpecParseError, match="different base set"):
            parse_spec(text)

    def test_missing_transition(self):
        text = """
vocabulary:
  a/0
state S:
  elements x
"""
        with pytest.raises(SpecParseError, match="missing transition section"):
            parse_spec(text)

    def test_duplicate_entry(self):
        text = """
vocabulary:
  a/0
state S:
  elements x y
  a = x
  a = y
transition:
  a := a
"""
        with pytest.raises(SpecParseError, match="duplicate entry"):
            parse_spec(text)

    def test_unknown_initial_state(self):
        text = """
vocabulary:
  a/0
state S:
  elements x
transition:
  a := a
initial:
  Z
"""
        with pytest.raises(SpecParseError, match="unknown initial state"):
            parse_spec(text)

    def test_errors_carry_line_numbers(self):
        text = "vocabulary:\n  a/0\nstate S:\n  a = z\ntransition:\n  a := a\n"
        with pytest.raises(SpecParseError) as excinfo:
            parse_spec(text)
        assert excinfo.value.line == 4

    def test_reserved_element_names_resolve(self):
        text = """
vocabulary:
  a/0
state S:
  a = TRUE
transition:
  a := a
"""
        doc = parse_spec(text)
        assert doc.states[0].value("a", ()) == 0

    def test_logical_symbol_entry_rejected(self):
        text = """
vocabulary:
  a/0
state S:
  elements x
  true = x
transition:
  a := a
"""
        with pytest.raises(SpecParseError, match="cannot be interpreted"):
            parse_spec(text)
