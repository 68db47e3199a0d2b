import ast
import random
from pathlib import Path

import pytest

from helpers import LABELS, random_consequent, random_rule
from rljp.fol import (
    GRAMMAR_HELP,
    ArticleCharge,
    Connective,
    FolRule,
    PredicateAtom,
    Quantifier,
    RuleSyntaxError,
    Var,
    consequent_from_key,
    consequent_key,
    parse_rule,
    render_rule,
    validate_rule,
)


class TestParse:
    def test_forall_and(self):
        rule = parse_rule("FORALL x (Theft(x) AND ValueLarge(x)) -> ARTICLE(264) CHARGE(theft)")
        assert rule.antecedent == Quantifier(
            "forall",
            "x",
            Connective(
                "and",
                (PredicateAtom("Theft", (Var("x"),)), PredicateAtom("ValueLarge", (Var("x"),))),
            ),
        )
        assert rule.target == ArticleCharge("264", "theft")

    def test_exists_or_not_with_charge(self):
        rule = parse_rule(
            "EXISTS e (Violence(e) OR NOT Consent(e)) -> ARTICLE(236) CHARGE(rape)"
        )
        assert isinstance(rule.antecedent, Quantifier)
        assert rule.antecedent.kind == "exists"
        body = rule.antecedent.body
        assert body.kind == "or"
        assert body.children[1] == Connective("not", (PredicateAtom("Consent", (Var("e"),)),))
        assert rule.target == ArticleCharge("236", "rape")

    def test_syntax_error_is_located(self):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule("FORALL x Theft(x AND) -> ARTICLE(264)")
        assert err.value.line == 1
        assert err.value.col == 10
        assert err.value.expected  # non-empty expected-token set

    @pytest.mark.parametrize(
        "consequent, col, expected",
        [
            ("CHARGE(theft)", 10, {"ARTICLE"}),
            ("ARTICLE(264) CHARGE(theft) TERM(b1)", 37, {"EOF"}),
            ("ARTICLE(264) TERM b1", 28, {"LPAREN"}),
            ("ARTICLE(264)", 22, {"CHARGE", "TERM"}),
        ],
    )
    def test_consequent_syntax_error(self, consequent, col, expected):
        with pytest.raises(RuleSyntaxError) as err:
            parse_rule(f"(P()) -> {consequent}")
        assert (err.value.col, err.value.expected) == (col, expected)

    def test_an_article_alone_is_not_a_consequent(self):
        with pytest.raises(
            RuleSyntaxError,
            match=r"unexpected end of input at line 1, column 36 \(expected one of: CHARGE, TERM\)",
        ):
            parse_rule("FORALL x (Theft(x)) -> ARTICLE(264)")

    def test_the_grammar_help_requires_a_charge_or_a_term(self):
        # init and rewrite prompts quote the help, so it offers no lone ARTICLE(...)
        (production,) = [line for line in GRAMMAR_HELP.splitlines() if line.startswith("consequent ")]
        assert production.endswith('"ARTICLE(" label ")" ("CHARGE(" label ")" | "TERM(" label ")")')
        assert not any(mark in production for mark in "?*")

    def test_precedence_not_over_and_over_or(self):
        rule = parse_rule("(A() OR B() AND NOT C()) -> ARTICLE(264) CHARGE(theft)")
        assert rule.antecedent.kind == "or"
        right = rule.antecedent.children[1]
        assert right.kind == "and"
        assert right.children[1].kind == "not"

    def test_unbound_variable_is_not_a_parse_error(self):
        rule = parse_rule("FORALL x (P(y)) -> ARTICLE(264) CHARGE(theft)")
        messages = [v.message for v in validate_rule(rule, LABELS)]
        assert "unbound variable y" in messages

    def test_quoted_labels_and_constants(self):
        rule = parse_rule(
            'FORALL x (Stole(x, "gold bar", 3)) -> ARTICLE(264) CHARGE("盗窃")'
        )
        assert rule.target == ArticleCharge("264", "盗窃")
        atom = rule.antecedent.body
        assert atom.args[1].value == "gold bar"
        assert atom.args[2].value == 3

    def test_multi_quantifier_prefix(self):
        rule = parse_rule("FORALL x EXISTS y (Pair(x, y)) -> ARTICLE(264) CHARGE(theft)")
        assert rule.antecedent.variable == "x"
        assert rule.antecedent.body.variable == "y"


class TestRender:
    def test_canonical_parenthesization(self):
        rule = parse_rule("FORALL x (Theft(x) AND ValueLarge(x)) -> ARTICLE(264) CHARGE(theft)")
        assert (
            render_rule(rule)
            == "FORALL x ((Theft(x) AND ValueLarge(x))) -> ARTICLE(264) CHARGE(theft)"
        )

    def test_nested_not_preserved(self):
        rule = parse_rule("(NOT NOT P(1)) -> ARTICLE(264) CHARGE(theft)")
        assert "NOT (NOT (P(1)))" in render_rule(rule)

    def test_roundtrip_1000_random_asts(self):
        rng = random.Random(20240501)
        for _ in range(1000):
            rule = random_rule(rng)
            text = render_rule(rule)
            parsed = parse_rule(text)
            assert parsed.antecedent == rule.antecedent, text
            assert parsed.target == rule.target, text

    def test_render_parse_is_canonical_normal_form(self):
        sources = [
            "FORALL x ((((Theft(x))) AND ValueLarge(x))) -> ARTICLE(264) CHARGE(theft)",
            "(A() OR (B() AND C())) -> ARTICLE(263) TERM(b1)",
            'EXISTS v (NOT (P(v, "x")) ) -> ARTICLE(266) CHARGE(fraud)',
        ]
        for source in sources:
            once = render_rule(parse_rule(source))
            twice = render_rule(parse_rule(once))
            assert once == twice

    def test_consequent_key_roundtrip(self):
        rng = random.Random(20240502)
        for _ in range(300):
            consequent = random_consequent(rng)
            assert consequent_from_key(consequent_key(consequent)) == consequent


class TestValidate:
    def test_unknown_labels(self):
        rule = parse_rule("(P()) -> ARTICLE(9999) CHARGE(smuggling)")
        codes = {v.code for v in validate_rule(rule, LABELS)}
        assert codes == {"unknown-label"}
        messages = sorted(v.message for v in validate_rule(rule, LABELS))
        assert messages == ["unknown article 9999", "unknown charge smuggling"]
        rule = parse_rule("(P()) -> ARTICLE(264) TERM(b99)")
        assert [v.message for v in validate_rule(rule, LABELS)] == ["unknown prison term b99"]

    def test_arity_conflict(self):
        rule = parse_rule("FORALL x (P(x) AND P(x, x)) -> ARTICLE(264) CHARGE(theft)")
        assert any(v.message == "arity conflict P" for v in validate_rule(rule, LABELS))

    def test_valid_rule_has_no_violations(self):
        rule = parse_rule(
            "FORALL x (Theft(x) AND NOT UsedForce(x)) -> ARTICLE(264) CHARGE(theft)"
        )
        assert validate_rule(rule, LABELS) == []

    def test_violations_order_independent(self):
        rule = parse_rule("FORALL x (P(y) AND P(z, z)) -> ARTICLE(1) CHARGE(theft)")
        first = {(v.code, v.message) for v in validate_rule(rule, LABELS)}
        second = {(v.code, v.message) for v in validate_rule(rule, LABELS)}
        assert first == second
        assert {"unbound-variable", "arity-conflict", "unknown-label"} <= {
            code for code, _ in first
        }

    def test_version_increment_constraint(self):
        with pytest.raises(ValueError):
            FolRule("r", ArticleCharge("264", "theft"), PredicateAtom("P"), version=-1)


def test_only_fol_branches_on_consequent_kinds():
    """Which subtasks each consequent kind names is decided in fol.py alone;
    other modules read consequent_labels or a kind's subtasks."""
    kinds = {"Article", "ArticleCharge", "ArticleTerm"}
    package = Path(__file__).resolve().parent.parent / "src" / "rljp"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name == "fol.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                named = {
                    getattr(n, "id", None) or getattr(n, "attr", None)
                    for n in ast.walk(node.args[1])
                }
                if named & kinds:
                    offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []
