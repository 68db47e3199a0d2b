"""First-order-logic judgment rule language: AST, parser, renderer, validator.

A rule reads ``<quantifiers> ( <expression> ) -> <consequent>`` where the
expression combines predicate atoms with NOT/AND/OR (in decreasing binding
strength) and the consequent names two judgment labels, an article and a
charge or a prison term:

    FORALL x (Theft(x) AND ValueLarge(x)) -> ARTICLE(264) CHARGE(theft)

Rules are syntax, not semantics: nothing here evaluates predicates against
facts. Parsing reports positioned syntax errors; binding and label checks are
validation, reported as violations rather than exceptions.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass, field
from typing import ClassVar, Iterator, Optional, Union

GRAMMAR_HELP = """\
rule       := quantifier* "(" expr ")" "->" consequent
quantifier := ("FORALL" | "EXISTS") variable
expr       := term ("OR" term)*
term       := factor ("AND" factor)*
factor     := "NOT" factor | atom | "(" expr ")"
atom       := Identifier "(" (arg ("," arg)*)? ")"
arg        := variable | integer | "quoted string"
consequent := "ARTICLE(" label ")" ("CHARGE(" label ")" | "TERM(" label ")")
Identifiers match [A-Za-z_][A-Za-z0-9_]*; NOT binds tighter than AND, AND
tighter than OR; every variable must be bound by a leading quantifier."""


# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Const:
    value: Union[str, int]


Arg = Union[Var, Const]


@dataclass(frozen=True)
class PredicateAtom:
    name: str
    args: tuple[Arg, ...] = ()


@dataclass(frozen=True)
class Connective:
    kind: str  # "and" | "or" | "not"
    children: tuple["AstNode", ...]

    def __post_init__(self) -> None:
        if self.kind == "not":
            if len(self.children) != 1:
                raise ValueError("NOT takes exactly one child")
        elif self.kind in ("and", "or"):
            if len(self.children) < 2:
                raise ValueError(f"{self.kind.upper()} takes at least two children")
        else:
            raise ValueError(f"unknown connective kind {self.kind!r}")


@dataclass(frozen=True)
class Quantifier:
    kind: str  # "forall" | "exists"
    variable: str
    body: "AstNode"

    def __post_init__(self) -> None:
        if self.kind not in ("forall", "exists"):
            raise ValueError(f"unknown quantifier kind {self.kind!r}")


AstNode = Union[Quantifier, Connective, PredicateAtom]


# ---------------------------------------------------------------------------
# Consequents
#
# A consequent names one label per subtask (corpus.SUBTASKS), one field each.
# This module alone decides which subtasks each kind names and how each
# subtask is spelled in keys, rule text and messages.


@dataclass(frozen=True)
class ArticleCharge:
    article_id: str
    charge_id: str

    subtasks: ClassVar[tuple[str, ...]] = ("article", "charge")


@dataclass(frozen=True)
class ArticleTerm:
    article_id: str
    prison_term_bucket: str

    subtasks: ClassVar[tuple[str, ...]] = ("article", "prison_term")


Consequent = Union[ArticleCharge, ArticleTerm]

_KIND_OF_SUBTASKS = {kind.subtasks: kind for kind in (ArticleCharge, ArticleTerm)}


@dataclass(frozen=True)
class _Spelling:
    key: str  # name in consequent keys: article=264,charge=theft
    keyword: str  # rule-text keyword: ARTICLE(264) CHARGE(theft)
    noun: str  # in validation messages: unknown charge theft


_SPELLINGS = {
    "article": _Spelling("article", "ARTICLE", "article"),
    "charge": _Spelling("charge", "CHARGE", "charge"),
    "prison_term": _Spelling("term", "TERM", "prison term"),
}
_SUBTASK_OF_KEY = {spelling.key: subtask for subtask, spelling in _SPELLINGS.items()}
_SUBTASK_OF_KEYWORD = {spelling.keyword: subtask for subtask, spelling in _SPELLINGS.items()}


def consequent_labels(consequent: Consequent) -> dict[str, str]:
    """{subtask: label} for each subtask the consequent names, in field order."""
    # a dataclass instance's __dict__ holds its fields in declaration order
    return dict(zip(consequent.subtasks, vars(consequent).values()))


def consequent_key(consequent: Consequent) -> str:
    """Stable string key for a consequent, used in stores and node ids."""
    return ",".join(
        f"{_SPELLINGS[subtask].key}={label}"
        for subtask, label in consequent_labels(consequent).items()
    )


def consequent_from_key(key: str) -> Consequent:
    """Inverse of consequent_key."""
    parts = [item.split("=", 1) for item in key.split(",")]
    kind = _KIND_OF_SUBTASKS[tuple(_SUBTASK_OF_KEY[name] for name, _ in parts)]
    return kind(*(label for _, label in parts))


# ---------------------------------------------------------------------------
# Rules


@dataclass(frozen=True)
class Provenance:
    kind: str  # "initialized" | "optimized"
    parent_rule_id: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in ("initialized", "optimized"):
            raise ValueError(f"unknown provenance kind {self.kind!r}")
        if self.kind == "optimized" and not self.parent_rule_id:
            raise ValueError("optimized provenance requires parent_rule_id")


@dataclass(frozen=True)
class FolRule:
    rule_id: str
    target: Consequent
    antecedent: AstNode
    version: int = 0
    provenance: Provenance = field(default_factory=lambda: Provenance("initialized"))

    def __post_init__(self) -> None:
        if self.version < 0:
            raise ValueError("version must be >= 0")


# ---------------------------------------------------------------------------
# Tokenizer

KEYWORDS = {"FORALL", "EXISTS", "AND", "OR", "NOT", *_SUBTASK_OF_KEYWORD}

_TOKEN_RE = re.compile(
    r"""
    (?P<WS>\s+)
  | (?P<ARROW>->)
  | (?P<LPAREN>\()
  | (?P<RPAREN>\))
  | (?P<COMMA>,)
  | (?P<INT>-?\d+)
  | (?P<IDENT>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"(?:[^"\\]|\\.)*")
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    line: int
    col: int


class RuleSyntaxError(ValueError):
    """Positioned parse failure with the token kinds that would have been legal."""

    def __init__(self, message: str, line: int, col: int, expected: set[str]):
        self.line = line
        self.col = col
        self.expected = frozenset(expected)
        hint = f" (expected one of: {', '.join(sorted(expected))})" if expected else ""
        super().__init__(f"{message} at line {line}, column {col}{hint}")


def _tokenize(text: str) -> Iterator[Token]:
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise RuleSyntaxError(f"unexpected character {text[pos]!r}", line, col, set())
        kind = m.lastgroup or ""
        chunk = m.group()
        if kind != "WS":
            if kind == "IDENT" and chunk in KEYWORDS:
                kind = chunk
            yield Token(kind, chunk, line, col)
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    yield Token("EOF", "", line, col)


# ---------------------------------------------------------------------------
# Parser (recursive descent; precedence NOT > AND > OR comes from the grammar)


class _Parser:
    def __init__(self, text: str):
        self.tokens = list(_tokenize(text))
        self.index = 0

    @property
    def current(self) -> Token:
        return self.tokens[self.index]

    def _advance(self) -> Token:
        tok = self.current
        if tok.kind != "EOF":
            self.index += 1
        return tok

    def _expect(self, kind: str) -> Token:
        tok = self.current
        if tok.kind != kind:
            self._fail({kind})
        return self._advance()

    def _fail(self, expected: set[str]) -> None:
        tok = self.current
        what = "end of input" if tok.kind == "EOF" else repr(tok.text)
        raise RuleSyntaxError(f"unexpected {what}", tok.line, tok.col, expected)

    def parse_rule(self) -> tuple[AstNode, Consequent]:
        antecedent = self.parse_quantified()
        self._expect("ARROW")
        consequent = self.parse_consequent()
        if self.current.kind != "EOF":
            self._fail({"EOF"})
        return antecedent, consequent

    def parse_quantified(self) -> AstNode:
        quantifiers: list[tuple[str, str]] = []
        while self.current.kind in ("FORALL", "EXISTS"):
            kw = self._advance()
            var = self._expect("IDENT")
            quantifiers.append((kw.kind.lower(), var.text))
        self._expect("LPAREN")
        body = self.parse_expr()
        self._expect("RPAREN")
        for kind, var in reversed(quantifiers):
            body = Quantifier(kind, var, body)
        return body

    def parse_expr(self) -> AstNode:
        terms = [self.parse_term()]
        while self.current.kind == "OR":
            self._advance()
            terms.append(self.parse_term())
        if len(terms) == 1:
            return terms[0]
        return Connective("or", tuple(terms))

    def parse_term(self) -> AstNode:
        factors = [self.parse_factor()]
        while self.current.kind == "AND":
            self._advance()
            factors.append(self.parse_factor())
        if len(factors) == 1:
            return factors[0]
        return Connective("and", tuple(factors))

    def parse_factor(self) -> AstNode:
        if self.current.kind == "NOT":
            self._advance()
            return Connective("not", (self.parse_factor(),))
        if self.current.kind == "LPAREN":
            self._advance()
            inner = self.parse_expr()
            self._expect("RPAREN")
            return inner
        if self.current.kind == "IDENT":
            return self.parse_atom()
        self._fail({"NOT", "LPAREN", "IDENT"})
        raise AssertionError("unreachable")

    def parse_atom(self) -> PredicateAtom:
        name = self._expect("IDENT")
        self._expect("LPAREN")
        args: list[Arg] = []
        if self.current.kind != "RPAREN":
            args.append(self.parse_arg())
            while self.current.kind == "COMMA":
                self._advance()
                args.append(self.parse_arg())
        self._expect("RPAREN")
        return PredicateAtom(name.text, tuple(args))

    def parse_arg(self) -> Arg:
        tok = self.current
        if tok.kind == "IDENT":
            self._advance()
            return Var(tok.text)
        if tok.kind == "INT":
            self._advance()
            return Const(int(tok.text))
        if tok.kind == "STRING":
            self._advance()
            return Const(_unquote(tok.text))
        self._fail({"IDENT", "INT", "STRING"})
        raise AssertionError("unreachable")

    def parse_consequent(self) -> Consequent:
        subtasks: tuple[str, ...] = ()
        labels: list[str] = []
        while True:
            # keywords that extend the subtasks read so far toward some kind
            n = len(subtasks)
            following = {
                _SPELLINGS[named[n]].keyword
                for named in _KIND_OF_SUBTASKS
                if len(named) > n and named[:n] == subtasks
            }
            if self.current.kind not in following:
                if subtasks in _KIND_OF_SUBTASKS:
                    return _KIND_OF_SUBTASKS[subtasks](*labels)
                self._fail(following)
            subtasks += (_SUBTASK_OF_KEYWORD[self._advance().kind],)
            self._expect("LPAREN")
            labels.append(self.parse_label())
            self._expect("RPAREN")

    def parse_label(self) -> str:
        tok = self.current
        if tok.kind in ("IDENT", "INT") or tok.kind in KEYWORDS:
            self._advance()
            return tok.text
        if tok.kind == "STRING":
            self._advance()
            return _unquote(tok.text)
        self._fail({"IDENT", "INT", "STRING"})
        raise AssertionError("unreachable")


def _unquote(text: str) -> str:
    body = text[1:-1]
    return body.replace('\\"', '"').replace("\\\\", "\\")


def _quote(value: str) -> str:
    return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'


def parse_rule(
    text: str,
    *,
    rule_id: str = "rule",
    version: int = 0,
    provenance: Optional[Provenance] = None,
) -> FolRule:
    """Parse rule source text into a FolRule.

    Raises RuleSyntaxError (with line, column, and the expected-token set) on
    malformed input. Unbound variables are not a parse failure; they surface
    from validate_rule.
    """
    antecedent, consequent = _Parser(text).parse_rule()
    return FolRule(
        rule_id=rule_id,
        target=consequent,
        antecedent=antecedent,
        version=version,
        provenance=provenance or Provenance("initialized"),
    )


def rule_row(rule: FolRule) -> dict:
    """A rule's stored row (rules_*.json, tree stores); `rule_from_row` reads it back."""
    return {
        "rule_id": rule.rule_id,
        "rule_text": render_rule(rule),
        "version": rule.version,
        "provenance": asdict(rule.provenance),  # {kind, parent_rule_id}
    }


def rule_from_row(row: dict) -> FolRule:
    """The rule a stored row describes; the inverse of `rule_row`."""
    return parse_rule(
        row["rule_text"],
        rule_id=row["rule_id"],
        version=row["version"],
        provenance=Provenance(**row["provenance"]),
    )


# ---------------------------------------------------------------------------
# Renderer


def _render_arg(arg: Arg) -> str:
    if isinstance(arg, Var):
        return arg.name
    if isinstance(arg.value, int):
        return str(arg.value)
    return _quote(arg.value)


def _render_expr(node: AstNode) -> str:
    if isinstance(node, PredicateAtom):
        return f"{node.name}({', '.join(_render_arg(a) for a in node.args)})"
    if isinstance(node, Connective):
        if node.kind == "not":
            return f"NOT ({_render_expr(node.children[0])})"
        joiner = f" {node.kind.upper()} "
        return "(" + joiner.join(_render_expr(c) for c in node.children) + ")"
    raise ValueError("quantifier may only appear as a leading prefix")


def render_antecedent(node: AstNode) -> str:
    """Canonical, fully parenthesized text for a quantified expression."""
    prefix = []
    while isinstance(node, Quantifier):
        prefix.append(f"{node.kind.upper()} {node.variable}")
        node = node.body
    head = " ".join(prefix)
    body = f"({_render_expr(node)})"
    return f"{head} {body}" if head else body


def _render_label(label: str) -> str:
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*|-?\d+", label):
        return label
    return _quote(label)


def render_consequent(consequent: Consequent) -> str:
    return " ".join(
        f"{_SPELLINGS[subtask].keyword}({_render_label(label)})"
        for subtask, label in consequent_labels(consequent).items()
    )


def render_rule(rule: FolRule) -> str:
    """Canonical text such that parse_rule(render_rule(r)) reproduces r's AST."""
    return f"{render_antecedent(rule.antecedent)} -> {render_consequent(rule.target)}"


# ---------------------------------------------------------------------------
# Validator


@dataclass(frozen=True)
class Violation:
    code: str  # "unknown-label" | "unbound-variable" | "arity-conflict"
    message: str


def validate_rule(rule: FolRule, labels) -> list[Violation]:
    """Check label membership, variable binding, and predicate arity consistency.

    Returns a (possibly empty) list of violations; never raises. `labels` is a
    corpus.LabelSpace: each label of the consequent must be in
    `labels.of(subtask)`.
    """
    violations: list[Violation] = []

    for subtask, label in consequent_labels(rule.target).items():
        if label not in labels.of(subtask):
            violations.append(
                Violation("unknown-label", f"unknown {_SPELLINGS[subtask].noun} {label}")
            )

    arities: dict[str, int] = {}
    conflicted: set[str] = set()
    unbound: list[str] = []
    seen_unbound: set[str] = set()

    def walk(node: AstNode, bound: frozenset[str]) -> None:
        if isinstance(node, Quantifier):
            walk(node.body, bound | {node.variable})
            return
        if isinstance(node, Connective):
            for child in node.children:
                walk(child, bound)
            return
        known = arities.setdefault(node.name, len(node.args))
        if known != len(node.args):
            conflicted.add(node.name)
        for arg in node.args:
            if isinstance(arg, Var) and arg.name not in bound:
                if arg.name not in seen_unbound:
                    seen_unbound.add(arg.name)
                    unbound.append(arg.name)

    walk(rule.antecedent, frozenset())
    for name in unbound:
        violations.append(Violation("unbound-variable", f"unbound variable {name}"))
    for name in sorted(conflicted):
        violations.append(Violation("arity-conflict", f"arity conflict {name}"))
    return violations
