"""Shared test utilities: seeded random rule generation and tiny corpora."""

from __future__ import annotations

import json
import random

from rljp.corpus import Judgment, LabelSpace, LegalCase
from rljp.fol import (
    Article,
    ArticleCharge,
    ArticleTerm,
    Connective,
    Const,
    FolRule,
    PredicateAtom,
    Quantifier,
    Var,
)

PREDICATE_POOL = [
    "Theft", "UsedForce", "ValueLarge", "Minor", "Premeditated", "NightTime",
    "PublicPlace", "Armed", "Confessed", "RepeatOffender", "P", "Q_1", "_hidden",
]

STRING_POOL = ["theft", "盗窃", 'say "no"', "back\\slash", "", "multi word phrase"]

LABELS = LabelSpace(
    articles=("264", "263", "266", "234"),
    charges=("theft", "robbery", "fraud", "assault"),
    prison_terms=("b0", "b1", "b2"),
)


def random_expr(
    rng: random.Random,
    bound: list[str],
    depth: int = 0,
    arities: dict | None = None,
    force_valid: bool = False,
):
    """Random grammar-shaped expression (no quantifiers; those are a prefix)."""
    if arities is None:
        arities = {}
    if depth >= 3 or rng.random() < 0.4:
        name = rng.choice(PREDICATE_POOL)
        if force_valid and name in arities:
            arity = arities[name]
        else:
            arity = rng.randint(0, 3)
            arities[name] = arity
        args = []
        for _ in range(arity):
            kind = rng.random()
            if kind < 0.5 and bound:
                args.append(Var(rng.choice(bound)))
            elif kind < 0.75:
                args.append(Const(rng.randint(-5, 99999)))
            else:
                args.append(Const(rng.choice(STRING_POOL)))
        return PredicateAtom(name, tuple(args))
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Connective("not", (random_expr(rng, bound, depth + 1, arities, force_valid),))
    children = tuple(
        random_expr(rng, bound, depth + 1, arities, force_valid)
        for _ in range(rng.randint(2, 3))
    )
    return Connective(kind, children)


def random_consequent(rng: random.Random, labels: LabelSpace = LABELS):
    article = rng.choice(labels.articles)
    kind = rng.random()
    if kind < 1 / 3:
        return Article(article)
    if kind < 2 / 3:
        return ArticleCharge(article, rng.choice(labels.charges))
    return ArticleTerm(article, rng.choice(labels.prison_terms))


def random_rule(
    rng: random.Random, labels: LabelSpace = LABELS, force_valid: bool = False
) -> FolRule:
    """Grammar-shaped random rule; with force_valid the rule also passes
    validate_rule (bound variables, consistent arities, known labels)."""
    n_quantifiers = rng.randint(0, 3)
    variables = [f"v{i}" for i in range(n_quantifiers)]
    body = random_expr(rng, variables, arities={}, force_valid=force_valid)
    for i in reversed(range(n_quantifiers)):
        body = Quantifier(rng.choice(["forall", "exists"]), variables[i], body)
    return FolRule(
        rule_id=f"gen/{rng.randrange(1 << 30)}",
        target=random_consequent(rng, labels),
        antecedent=body,
    )


def make_case(case_id: str, fact: str, article="264", charge="theft", term="b0") -> LegalCase:
    return LegalCase(
        case_id=case_id,
        fact_text=fact,
        judgment=Judgment(article_id=article, charge_id=charge, prison_term_bucket=term),
    )


def transcript_entries(transcript) -> list[dict]:
    """The JSON lines a file-backed Transcript has written, in order."""
    with transcript.path.open("r", encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]
