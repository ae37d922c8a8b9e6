"""Line-oriented text format for vocabularies, states, transitions, witnesses.

The format is section-headed and diff-friendly:

    vocabulary:          # symbol declarations, one ``name/arity`` per line
    state NAME:          # ``elements a b`` then entries ``f(a, b) = c``
    transition:          # a rule program, or ``state A -> B`` pairs
    initial:             # names of initial states
    witness NAME:        # ground terms in prefix form, one per line

Element names are per-state labels resolved to ids in declaration order;
``TRUE``, ``FALSE`` and ``UNDEF`` are reserved names for the logical
elements.  ``#`` starts a comment.  Parsing an unparsed document yields an
equal document, and unparsing is canonical.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .errors import SpecParseError, ValidationError, VocabularyMismatchError
from .kernel import (
    FALSE,
    KIND_LOGICAL,
    LOGICAL_IDS,
    LOGICAL_LABELS,
    TRUE,
    UNDEF,
    State,
    Symbol,
    Term,
    Vocabulary,
    sorted_terms,
)
from .transition import Algorithm, Assign, Cond, Par, Rule

_RESERVED_WORDS = {
    "par", "endpar", "if", "then", "else", "endif",
    "state", "elements", "vocabulary", "transition", "initial", "witness",
}
_RESERVED_ELEMENTS = {"TRUE": TRUE, "FALSE": FALSE, "UNDEF": UNDEF}


@dataclass(frozen=True)
class _Token:
    text: str
    line: int
    column: int


def _tokenize(text: str, line: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "(),":
            tokens.append(_Token(ch, line, i + 1))
            i += 1
            continue
        if text.startswith(":=", i):
            tokens.append(_Token(":=", line, i + 1))
            i += 2
            continue
        if ch == "-" and text.startswith("->", i):
            tokens.append(_Token("->", line, i + 1))
            i += 2
            continue
        if ch == "=":
            tokens.append(_Token("=", line, i + 1))
            i += 1
            continue
        if ch.isalnum() or ch == "_" or ch == "/":
            j = i
            while j < n and (text[j].isalnum() or text[j] in "_/"):
                j += 1
            tokens.append(_Token(text[i:j], line, i + 1))
            i = j
            continue
        raise SpecParseError(f"unexpected character {ch!r}", line, i + 1)
    return tokens


@dataclass
class SpecDocument:
    """Parsed algorithm description plus its named witness sets."""

    vocabulary: Vocabulary
    state_names: tuple[str, ...]
    states: tuple[State, ...]
    element_labels: dict[str, dict[int, str]]
    transition_rule: Rule | None
    transition_pairs: tuple[tuple[str, str], ...] | None
    initial_names: tuple[str, ...]
    witnesses: dict[str, frozenset[Term]] = field(default_factory=dict)

    def algorithm(self) -> Algorithm:
        initial = tuple(name in self.initial_names for name in self.state_names)
        if self.transition_rule is not None:
            return Algorithm(
                self.vocabulary, self.states, initial, program=self.transition_rule
            )
        index = {name: i for i, name in enumerate(self.state_names)}
        successors = tuple(
            self.states[index[dst]]
            for _, dst in sorted(self.transition_pairs, key=lambda p: index[p[0]])
        )
        return Algorithm(self.vocabulary, self.states, initial, successors=successors)


class _Parser:
    def __init__(self, text: str) -> None:
        self.sections: list[tuple[str, str, int, list[tuple[int, str]]]] = []
        current: list[tuple[int, str]] | None = None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if line.endswith(":"):
                head = line[:-1].split()
                if not head:
                    raise SpecParseError("empty section header", lineno)
                kind = head[0]
                if kind in ("vocabulary", "transition", "initial") and len(head) == 1:
                    current = []
                    self.sections.append((kind, "", lineno, current))
                    continue
                if kind in ("state", "witness") and len(head) == 2:
                    current = []
                    self.sections.append((kind, head[1], lineno, current))
                    continue
                raise SpecParseError(f"unknown section header {line!r}", lineno)
            if current is None:
                raise SpecParseError("content before the first section", lineno)
            current.append((lineno, line))

    def parse(self) -> SpecDocument:
        vocabulary = self._parse_vocabulary()
        state_names: list[str] = []
        states: list[State] = []
        element_labels: dict[str, dict[int, str]] = {}
        for kind, name, lineno, body in self.sections:
            if kind != "state":
                continue
            if name in state_names:
                raise SpecParseError(f"duplicate state {name!r}", lineno)
            state, labels = self._parse_state(vocabulary, name, body, lineno)
            state_names.append(name)
            states.append(state)
            element_labels[name] = labels
        rule, pairs = self._parse_transition(vocabulary, state_names, states)
        initial = self._parse_initial(state_names)
        witnesses = self._parse_witnesses(vocabulary)
        return SpecDocument(
            vocabulary,
            tuple(state_names),
            tuple(states),
            element_labels,
            rule,
            pairs,
            initial,
            witnesses,
        )

    def _only_section(self, kind: str) -> tuple[int, list[tuple[int, str]]] | None:
        found = [(lineno, body) for k, _, lineno, body in self.sections if k == kind]
        if not found:
            return None
        if len(found) > 1:
            raise SpecParseError(f"duplicate {kind} section", found[1][0])
        return found[0]

    def _parse_vocabulary(self) -> Vocabulary:
        section = self._only_section("vocabulary")
        if section is None:
            raise SpecParseError("missing vocabulary section")
        _, body = section
        symbols: list[Symbol] = []
        for lineno, line in body:
            for token in line.split():
                if "/" not in token:
                    raise SpecParseError(
                        f"symbol declaration {token!r} is not of the form name/arity", lineno
                    )
                name, _, arity_text = token.partition("/")
                if name in _RESERVED_WORDS or name in _RESERVED_ELEMENTS:
                    raise SpecParseError(f"symbol name {name!r} is reserved", lineno)
                if not arity_text.isdigit():
                    raise SpecParseError(f"bad arity in {token!r}", lineno)
                try:
                    symbols.append(Symbol(name, int(arity_text)))
                except ValueError:  # a digit int() does not read, such as '²', or too many digits
                    raise SpecParseError(f"bad arity in {token!r}", lineno) from None
                except ValidationError as exc:
                    raise SpecParseError(str(exc), lineno) from exc
        try:
            return Vocabulary(symbols)
        except ValidationError as exc:
            raise SpecParseError(str(exc)) from exc

    def _parse_state(
        self,
        vocabulary: Vocabulary,
        name: str,
        body: list[tuple[int, str]],
        header_line: int,
    ) -> tuple[State, dict[int, str]]:
        labels: dict[int, str] = {}
        by_label: dict[str, int] = dict(_RESERVED_ELEMENTS)
        tables: dict[str, dict[tuple[int, ...], int]] = {}
        seen_elements = False
        for lineno, line in body:
            parts = line.split()
            if parts[0] == "elements":
                if seen_elements:
                    raise SpecParseError("duplicate elements line", lineno)
                if tables:
                    raise SpecParseError("elements must precede the entries", lineno)
                seen_elements = True
                for label in parts[1:]:
                    if label in by_label:
                        raise SpecParseError(f"duplicate element {label!r}", lineno)
                    if label in _RESERVED_WORDS or not (
                        label[0].isalpha() or label[0] == "_"
                    ) or not all(c.isalnum() or c == "_" for c in label):
                        raise SpecParseError(f"bad element name {label!r}", lineno)
                    element = 3 + len(labels)
                    by_label[label] = element
                    labels[element] = label
                continue
            self._parse_entry(vocabulary, by_label, tables, line, lineno)
        base = frozenset(LOGICAL_IDS) | frozenset(labels)
        try:
            return State(vocabulary, base, tables), labels
        except (ValidationError, VocabularyMismatchError) as exc:
            raise SpecParseError(f"state {name!r}: {exc}", header_line) from exc

    def _parse_entry(
        self,
        vocabulary: Vocabulary,
        by_label: dict[str, int],
        tables: dict[str, dict[tuple[int, ...], int]],
        line: str,
        lineno: int,
    ) -> None:
        tokens = _tokenize(line, lineno)
        pos = 0

        def expect(text: str) -> _Token:
            nonlocal pos
            if pos >= len(tokens) or tokens[pos].text != text:
                got = tokens[pos].text if pos < len(tokens) else "end of line"
                col = tokens[pos].column if pos < len(tokens) else len(line)
                raise SpecParseError(f"expected {text!r}, got {got!r}", lineno, col)
            pos += 1
            return tokens[pos - 1]

        def element(token: _Token) -> int:
            value = by_label.get(token.text)
            if value is None:
                raise SpecParseError(
                    f"unknown element {token.text!r} (base-set violation)",
                    token.line,
                    token.column,
                )
            return value

        head = tokens[0]
        pos = 1
        if not (head.text[0].isalpha() or head.text[0] == "_"):
            raise SpecParseError(f"expected a symbol, got {head.text!r}", head.line, head.column)
        symbol = vocabulary.get(head.text)
        if symbol is None:
            raise SpecParseError(f"unknown symbol {head.text!r}", head.line, head.column)
        if symbol.kind == KIND_LOGICAL:
            raise SpecParseError(
                f"logical symbol {symbol.name!r} cannot be interpreted", head.line, head.column
            )
        args: list[int] = []
        if pos < len(tokens) and tokens[pos].text == "(":
            pos += 1
            while pos < len(tokens) and tokens[pos].text != ")":
                args.append(element(tokens[pos]))
                pos += 1
                if pos < len(tokens) and tokens[pos].text == ",":
                    pos += 1
                    continue
                break
            expect(")")
        if len(args) != symbol.arity:
            raise SpecParseError(
                f"symbol {symbol} applied to {len(args)} arguments", head.line, head.column
            )
        expect("=")
        if pos >= len(tokens):
            raise SpecParseError("missing value", lineno, len(line))
        value = element(tokens[pos])
        pos += 1
        if pos != len(tokens):
            raise SpecParseError("trailing tokens after entry", lineno, tokens[pos].column)
        table = tables.setdefault(symbol.name, {})
        key = tuple(args)
        if key in table:
            raise SpecParseError(f"duplicate entry for {symbol.name}{key}", lineno)
        table[key] = value

    def _parse_transition(
        self,
        vocabulary: Vocabulary,
        state_names: list[str],
        states: list[State],
    ) -> tuple[Rule | None, tuple[tuple[str, str], ...] | None]:
        section = self._only_section("transition")
        if section is None:
            raise SpecParseError("missing transition section")
        lineno, body = section
        if not body:
            raise SpecParseError("empty transition section", lineno)
        explicit = body[0][1].split()[0] == "state"
        if explicit:
            pairs: list[tuple[str, str]] = []
            sources: set[str] = set()
            index = {name: i for i, name in enumerate(state_names)}
            for entry_line, line in body:
                parts = line.split()
                if len(parts) != 4 or parts[0] != "state" or parts[2] != "->":
                    raise SpecParseError(
                        "explicit transition lines read: state <name> -> <name>", entry_line
                    )
                src, dst = parts[1], parts[3]
                for name in (src, dst):
                    if name not in index:
                        raise SpecParseError(f"unknown state {name!r}", entry_line)
                if src in sources:
                    raise SpecParseError(f"duplicate transition for state {src!r}", entry_line)
                if states[index[src]].base != states[index[dst]].base:
                    raise SpecParseError(
                        f"successor of {src!r} has a different base set (base-set violation)",
                        entry_line,
                    )
                sources.add(src)
                pairs.append((src, dst))
            missing = [name for name in state_names if name not in sources]
            if missing:
                raise SpecParseError(f"no transition for state {missing[0]!r}", lineno)
            return None, tuple(pairs)
        tokens: list[_Token] = []
        for entry_line, line in body:
            tokens.extend(_tokenize(line, entry_line))
        rule, pos = _parse_rule(tokens, 0, vocabulary)
        if pos != len(tokens):
            t = tokens[pos]
            raise SpecParseError(f"trailing tokens after rule: {t.text!r}", t.line, t.column)
        return rule, None

    def _parse_initial(self, state_names: list[str]) -> tuple[str, ...]:
        section = self._only_section("initial")
        if section is None:
            return ()
        names: list[str] = []
        for lineno, line in section[1]:
            for name in line.split():
                if name not in state_names:
                    raise SpecParseError(f"unknown initial state {name!r}", lineno)
                if name in names:
                    raise SpecParseError(f"duplicate initial state {name!r}", lineno)
                names.append(name)
        return tuple(names)

    def _parse_witnesses(self, vocabulary: Vocabulary) -> dict[str, frozenset[Term]]:
        witnesses: dict[str, frozenset[Term]] = {}
        for kind, name, lineno, body in self.sections:
            if kind != "witness":
                continue
            if name in witnesses:
                raise SpecParseError(f"duplicate witness {name!r}", lineno)
            terms: set[Term] = set()
            for entry_line, line in body:
                tokens = _tokenize(line, entry_line)
                term, pos = _parse_term(tokens, 0, vocabulary)
                if pos != len(tokens):
                    t = tokens[pos]
                    raise SpecParseError(
                        f"trailing tokens after term: {t.text!r}", t.line, t.column
                    )
                terms.add(term)
            witnesses[name] = frozenset(terms)
        return witnesses


def _parse_term(tokens: list[_Token], pos: int, vocabulary: Vocabulary) -> tuple[Term, int]:
    if pos >= len(tokens):
        raise SpecParseError("expected a term, got end of input")
    head = tokens[pos]
    if not head.text or not (head.text[0].isalpha() or head.text[0] == "_"):
        raise SpecParseError(f"expected a symbol, got {head.text!r}", head.line, head.column)
    symbol = vocabulary.get(head.text)
    if symbol is None:
        raise SpecParseError(f"unknown symbol {head.text!r}", head.line, head.column)
    pos += 1
    children: list[Term] = []
    if pos < len(tokens) and tokens[pos].text == "(":
        pos += 1
        if pos < len(tokens) and tokens[pos].text != ")":
            while True:
                child, pos = _parse_term(tokens, pos, vocabulary)
                children.append(child)
                if pos < len(tokens) and tokens[pos].text == ",":
                    pos += 1
                    continue
                break
        if pos >= len(tokens) or tokens[pos].text != ")":
            raise SpecParseError("missing ')'", head.line, head.column)
        pos += 1
    if len(children) != symbol.arity:
        raise SpecParseError(
            f"symbol {symbol} applied to {len(children)} arguments", head.line, head.column
        )
    return Term(symbol, tuple(children)), pos


def _parse_rule(tokens: list[_Token], pos: int, vocabulary: Vocabulary) -> tuple[Rule, int]:
    if pos >= len(tokens):
        raise SpecParseError("expected a rule, got end of input")
    head = tokens[pos]
    if head.text == "par":
        pos += 1
        rules: list[Rule] = []
        while pos < len(tokens) and tokens[pos].text != "endpar":
            rule, pos = _parse_rule(tokens, pos, vocabulary)
            rules.append(rule)
        if pos >= len(tokens):
            raise SpecParseError("missing 'endpar'", head.line, head.column)
        return Par(tuple(rules)), pos + 1
    if head.text == "if":
        pos += 1
        guard, pos = _parse_term(tokens, pos, vocabulary)
        pos = _expect_word(tokens, pos, "then")
        then_rule, pos = _parse_rule(tokens, pos, vocabulary)
        pos = _expect_word(tokens, pos, "else")
        else_rule, pos = _parse_rule(tokens, pos, vocabulary)
        pos = _expect_word(tokens, pos, "endif")
        return Cond(guard, then_rule, else_rule), pos
    lhs, pos = _parse_term(tokens, pos, vocabulary)
    pos = _expect_word(tokens, pos, ":=")
    rhs, pos = _parse_term(tokens, pos, vocabulary)
    if lhs.root.kind == KIND_LOGICAL:
        raise SpecParseError(
            f"assignment to logical symbol {lhs.root.name!r}", head.line, head.column
        )
    return Assign(lhs.root, lhs.children, rhs), pos


def _expect_word(tokens: list[_Token], pos: int, word: str) -> int:
    if pos >= len(tokens) or tokens[pos].text != word:
        got = tokens[pos].text if pos < len(tokens) else "end of input"
        line = tokens[pos].line if pos < len(tokens) else None
        col = tokens[pos].column if pos < len(tokens) else None
        raise SpecParseError(f"expected {word!r}, got {got!r}", line, col)
    return pos + 1


def parse_spec(text: str) -> SpecDocument:
    """Parse a specification document; errors carry line and column."""
    return _Parser(text).parse()


def render_term(term: Term) -> str:
    return str(term)


def render_rule(rule: Rule) -> str:
    if isinstance(rule, Assign):
        lhs = render_term(Term(rule.symbol, rule.args))
        return f"{lhs} := {render_term(rule.value)}"
    if isinstance(rule, Par):
        inner = " ".join(render_rule(r) for r in rule.rules)
        return f"par {inner} endpar"
    return (
        f"if {render_term(rule.guard)} then {render_rule(rule.then_rule)} "
        f"else {render_rule(rule.else_rule)} endif"
    )


def render_state_block(name: str, state: State, labels: dict[int, str] | None = None) -> str:
    """Canonical state section; unlabeled elements render as ``e<id>``."""
    naming = dict(LOGICAL_LABELS)
    for e in state.nonlogical_elements():
        naming[e] = f"e{e}"
    if labels:
        naming.update(labels)
    lines = [f"state {name}:"]
    nonlogical = state.nonlogical_elements()
    if nonlogical:
        lines.append("  elements " + " ".join(naming[e] for e in nonlogical))
    for symbol_name in sorted(state.interpretations):
        table = state.interpretations[symbol_name]
        for args in sorted(table):
            value = table[args]
            if args:
                lhs = f"{symbol_name}({', '.join(naming[a] for a in args)})"
            else:
                lhs = symbol_name
            lines.append(f"  {lhs} = {naming[value]}")
    return "\n".join(lines)


def unparse_spec(doc: SpecDocument) -> str:
    """Canonical text for a document; parsing it back yields an equal document."""
    chunks: list[str] = ["vocabulary:"]
    for symbol in doc.vocabulary.nonlogical:
        chunks.append(f"  {symbol.name}/{symbol.arity}")
    for name, state in zip(doc.state_names, doc.states):
        chunks.append("")
        chunks.append(render_state_block(name, state, doc.element_labels.get(name)))
    chunks.append("")
    chunks.append("transition:")
    if doc.transition_rule is not None:
        chunks.append(f"  {render_rule(doc.transition_rule)}")
    else:
        order = {name: i for i, name in enumerate(doc.state_names)}
        for src, dst in sorted(doc.transition_pairs, key=lambda p: order[p[0]]):
            chunks.append(f"  state {src} -> {dst}")
    if doc.initial_names:
        chunks.append("")
        chunks.append("initial:")
        for name in doc.initial_names:
            chunks.append(f"  {name}")
    for name in sorted(doc.witnesses):
        chunks.append("")
        chunks.append(f"witness {name}:")
        for term in sorted_terms(doc.witnesses[name]):
            chunks.append(f"  {render_term(term)}")
    return "\n".join(chunks) + "\n"
