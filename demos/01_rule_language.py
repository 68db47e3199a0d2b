"""Tour of the judgment-rule language: parsing, rendering, validation.

Run from the repository root:  python3 demos/01_rule_language.py
"""

from rljp.corpus import LabelSpace
from rljp.fol import RuleSyntaxError, parse_rule, render_rule, validate_rule

labels = LabelSpace(
    articles=("264", "263", "236"),
    charges=("theft", "robbery", "rape"),
    prison_terms=("lt_6m", "1y_2y", "3y_5y"),
)

print("== parsing ==")
rule = parse_rule(
    "FORALL x (Theft(x) AND ValueLarge(x) AND NOT UsedForce(x)) "
    "-> ARTICLE(264) CHARGE(theft)"
)
print("antecedent AST:", rule.antecedent)
print("consequent:   ", rule.target)

print()
print("== canonical rendering (fully parenthesized) ==")
canonical = render_rule(rule)
print(canonical)
reparsed = parse_rule(canonical)
print("render -> parse reproduces the AST:", reparsed.antecedent == rule.antecedent)

print()
print("== located syntax errors ==")
for source in [
    "FORALL x Theft(x AND) -> ARTICLE(264)",
    "(P() OR) -> ARTICLE(264)",
    "(P()) -> CHARGE(theft)",
    "(P()) -> ARTICLE(264)",
]:
    try:
        parse_rule(source)
    except RuleSyntaxError as exc:
        print(f"  {source!r}\n    -> {exc}")

print()
print("== validation (labels, binding, arity) ==")
for source in [
    "FORALL x (Theft(y)) -> ARTICLE(264) CHARGE(theft)",
    "FORALL x (P(x) AND P(x, x)) -> ARTICLE(263) CHARGE(robbery)",
    "(Smuggle()) -> ARTICLE(9999) CHARGE(smuggling)",
]:
    rule = parse_rule(source)
    violations = validate_rule(rule, labels)
    print(f"  {source!r}")
    for violation in violations:
        print(f"    -> [{violation.code}] {violation.message}")
