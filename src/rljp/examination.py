"""Final judgment prediction: prescreened candidates, optional fact
abstraction, and rule-guided label selection with fallback traversal.

Per subtask the candidates that have a rule are checked in order (one YES/NO
antecedent check each), then the remaining ruled labels in seed-determined
random order; the first YES wins, and a label that is not a candidate sets
the fallback flag. If nothing fires at all, the top-1 candidate is emitted
with the fallback flag set. Subtasks run article -> charge -> prison_term, and
the predicted article narrows which charge/term rules are eligible. Those
pools, one per subtask and predicted article, and each rule's rendered text
come from a `RuleIndex` that the examine stage builds once and hands to
every case, so a case neither walks the rule set nor renders a rule. Within a
case a rule is checked against the fact at most once: the article and charge
subtasks both check ArticleCharge rules, and a repeat reuses the verdict
without another call. A check that failed (no reply, or no YES/NO in it) counts
as NO and is not reused, so a repeat asks again.
"""

from __future__ import annotations

import json
import logging
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Optional

from .agents import Agent, AgentError, render_template
from .corpus import SUBTASKS, LabelSpace
from .fol import Consequent, FolRule, consequent_labels, render_rule
from .prompts import ABSTRACT_FACT, EXAM_CHECK, ask
from .quiz import derive_rng
from .rule_init import RuleSet

logger = logging.getLogger(__name__)

ABSTRACT_THRESHOLD_DEFAULT = 4000


@dataclass(frozen=True)
class Prediction:
    case_id: str
    article_id: str
    charge_id: str
    prison_term_bucket: str
    rationale: str
    used_fallback: dict[str, bool]
    used_abstract: bool


# predictions.jsonl fields in row order, named as in Prediction but the labels
_ROW_FIELDS = ("case_id", "article", "charge", "term", "used_fallback", "used_abstract",
               "rationale")
_ATTRIBUTE = {"article": "article_id", "charge": "charge_id", "term": "prison_term_bucket"}


def save_predictions(path: str | Path, predictions: Iterable[Prediction]) -> None:
    """predictions.jsonl: one JSON line per prediction, in the given order."""
    with Path(path).open("w", encoding="utf-8") as handle:
        for prediction in predictions:
            row = {name: getattr(prediction, _ATTRIBUTE.get(name, name)) for name in _ROW_FIELDS}
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")


def load_predictions(path: str | Path) -> list[Prediction]:
    """The predictions `save_predictions` wrote, in file order."""
    with Path(path).open("r", encoding="utf-8") as handle:
        rows = [json.loads(line) for line in handle]
    return [Prediction(**{_ATTRIBUTE.get(n, n): row[n] for n in _ROW_FIELDS}) for row in rows]


def maybe_abstract(
    fact_text: str,
    threshold: int,
    agent: Agent,
    *,
    tag: str = "abstract",
) -> tuple[str, bool]:
    """Return the fact unchanged when short enough; otherwise an agent
    abstract hard-capped at the threshold (or a plain truncation if the agent
    fails)."""
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if len(fact_text) <= threshold:
        return fact_text, False
    prompt = render_template(
        ABSTRACT_FACT, {"limit": str(threshold), "fact": fact_text}
    )
    try:
        abstract = ask(agent, prompt, tag=tag)
    except AgentError as exc:
        logger.warning("abstract failed (%s); hard-truncating fact", exc)
        return fact_text[:threshold], True
    if len(abstract) > threshold:
        logger.info("abstract overran threshold; truncating")
        abstract = abstract[:threshold]
    return abstract, True


_YESNO_RE = re.compile(r"Answer:\s*(YES|NO)\b", re.IGNORECASE)


def _verdict(text: str) -> bool:
    match = _YESNO_RE.search(text)
    if match is None:
        raise ValueError("no YES/NO answer")
    return match.group(1).upper() == "YES"


class RuleIndex:
    """A rule set's examination pools, built once per examine stage.

    `pool(subtask, article)` is the label -> rule map of the rules eligible
    for the subtask under the predicted article. A rule supports the label
    its consequent names for the subtask. The pool keeps the rules whose
    article is the predicted one (every rule while no article is predicted,
    as for the article subtask itself); if that article has none, all rules
    naming the subtask stay eligible. The first rule of a label wins.
    `texts` holds each rule's rendered text by its target, which a rule set
    holds one rule for, so a check renders no rule.
    """

    def __init__(self, rules: RuleSet):
        # (subtask, article) -> label -> rule; article None keys every rule naming the subtask
        self._pools: dict[tuple[str, Optional[str]], dict[str, FolRule]] = {}
        self.texts: dict[Consequent, str] = {}
        for rule in rules.rules.values():
            if rule.target not in self.texts:
                self.texts[rule.target] = render_rule(rule)
            named = consequent_labels(rule.target)
            for subtask, label in named.items():
                for article in (None, named["article"]):
                    self._pools.setdefault((subtask, article), {}).setdefault(label, rule)

    def pool(self, subtask: str, article: Optional[str]) -> dict[str, FolRule]:
        """The subtask's pool under `article`, shared by every case: do not edit it."""
        pool = self._pools.get((subtask, article))
        if pool is None:
            pool = self._pools.get((subtask, None), {})
            if pool:
                logger.info("no %s rules under article %s; widening pool", subtask, article)
        return pool


def examine_case(
    case_id: str,
    fact_text: str,
    rules: RuleSet,
    candidates: dict[str, tuple[str, ...]],
    labels: LabelSpace,
    agent: Agent,
    *,
    seed: int = 0,
    index: Optional[RuleIndex] = None,
) -> Prediction:
    """Predict the full judgment triple for one case. The candidates were
    ranked on the original fact; rules are checked against the fact, or
    against its abstract when it is longer than ABSTRACT_THRESHOLD_DEFAULT.
    `index` is `RuleIndex(rules)`, which a caller examining many cases
    builds once; without it the case builds its own."""
    if index is None:
        index = RuleIndex(rules)
    fact_text, used_abstract = maybe_abstract(
        fact_text, ABSTRACT_THRESHOLD_DEFAULT, agent, tag=f"abstract/{case_id}"
    )
    chosen: dict[str, str] = {}
    used_fallback: dict[str, bool] = {}
    rationales: list[str] = []
    predicted_article: Optional[str] = None
    verdicts: dict[str, bool] = {}  # rendered rule -> parsed verdict

    def holds(rule: FolRule, tag: str) -> bool:
        """The rule's verdict on the fact; a failed check is NO and not kept."""
        rule_text = index.texts[rule.target]
        if rule_text not in verdicts:
            prompt = render_template(EXAM_CHECK, {"rule": rule_text, "fact": fact_text})
            try:
                verdicts[rule_text] = ask(agent, prompt, tag=tag, parse=_verdict)
            except (AgentError, ValueError) as exc:
                logger.warning("antecedent check %s failed (%s); treating as NO", tag, exc)
                return False
        return verdicts[rule_text]

    for subtask in SUBTASKS:
        pool = index.pool(subtask, predicted_article)
        label, fell_back, why = _predict_subtask(
            case_id, subtask, candidates[subtask], pool, labels, seed, holds
        )
        chosen[subtask] = label
        used_fallback[subtask] = fell_back
        rationales.append(f"{subtask}: {why}")
        if subtask == "article":
            predicted_article = label

    return Prediction(
        case_id=case_id,
        article_id=chosen["article"],
        charge_id=chosen["charge"],
        prison_term_bucket=chosen["prison_term"],
        rationale="; ".join(rationales),
        used_fallback=used_fallback,
        used_abstract=used_abstract,
    )


def _predict_subtask(
    case_id: str,
    subtask: str,
    ordered: tuple[str, ...],
    pool: dict[str, FolRule],
    labels: LabelSpace,
    seed: int,
    holds: Callable[[FolRule, str], bool],
) -> tuple[str, bool, str]:
    """`ordered` is the subtask's candidates, best first; `holds(rule, tag)`
    checks a rule's antecedent against the case."""
    remaining = [label for label in labels.of(subtask) if label in pool and label not in ordered]
    derive_rng(seed, "fallback", case_id, subtask).shuffle(remaining)
    for label in [*(label for label in ordered if label in pool), *remaining]:
        rule = pool[label]
        if holds(rule, f"exam/{case_id}/{subtask}/{label}"):
            fell_back = label not in ordered
            why = f"rule {rule.rule_id} satisfied"
            return label, fell_back, f"fallback {why}" if fell_back else why

    if not ordered:
        raise ValueError(f"no candidates for subtask {subtask}")
    return ordered[0], True, "no rule satisfied"
