"""Final judgment prediction: prescreened candidates, optional fact
abstraction, and rule-guided label selection with fallback traversal.

Per subtask the candidates are checked in order against their rules (one
YES/NO antecedent check each); the first YES wins. If no candidate's rule
fires, the remaining ruled labels are traversed in seed-determined random
order; if nothing fires at all, the top-1 candidate is emitted with the
fallback flag set. Subtasks run article -> charge -> prison_term, and the
predicted article narrows which charge/term rules are eligible.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, replace
from typing import Optional

from .agents import AgentError, Backend, ChatRequest, Transcript, complete, render_template
from .candidates import CandidateList, CandidateProvider, candidate_labels
from .corpus import SUBTASKS, LabelSpace
from .fol import FolRule, consequent_labels, render_rule
from .prompts import ABSTRACT_FACT, EXAM_CHECK, SYSTEM_LEGAL_ANALYST
from .quiz import derive_rng
from .rule_init import RuleSet

logger = logging.getLogger(__name__)

ABSTRACT_THRESHOLD_DEFAULT = 4000
CANDIDATE_K_DEFAULT = 10


@dataclass(frozen=True)
class Prediction:
    case_id: str
    article_id: str
    charge_id: str
    prison_term_bucket: str
    rationale: str
    used_fallback: dict[str, bool]
    used_abstract: bool


def maybe_abstract(
    fact_text: str,
    threshold: int,
    agent: Backend,
    *,
    tag: str = "abstract",
    transcript: Optional[Transcript] = None,
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
        response = complete(
            ChatRequest(
                system_text=SYSTEM_LEGAL_ANALYST,
                user_text=prompt,
                temperature=0.0,
                tag=tag,
            ),
            agent,
            transcript=transcript,
        )
        abstract = response.text.strip()
    except AgentError as exc:
        logger.warning("abstract failed (%s); hard-truncating fact", exc)
        return fact_text[:threshold], True
    if len(abstract) > threshold:
        logger.info("abstract overran threshold; truncating")
        abstract = abstract[:threshold]
    return abstract, True


_YESNO_RE = re.compile(r"Answer:\s*(YES|NO)\b", re.IGNORECASE)


def _antecedent_holds(
    rule: FolRule,
    fact_text: str,
    agent: Backend,
    tag: str,
    transcript: Optional[Transcript],
) -> bool:
    prompt = render_template(
        EXAM_CHECK, {"rule": render_rule(rule), "fact": fact_text}
    )
    try:
        response = complete(
            ChatRequest(
                system_text=SYSTEM_LEGAL_ANALYST,
                user_text=prompt,
                temperature=0.0,
                tag=tag,
            ),
            agent,
            transcript=transcript,
        )
    except AgentError as exc:
        logger.warning("antecedent check %s failed (%s); treating as NO", tag, exc)
        return False
    match = _YESNO_RE.search(response.text)
    if match is None:
        logger.warning("unparsable antecedent check reply for %s; treating as NO", tag)
        return False
    return match.group(1).upper() == "YES"


def _rule_pool(
    rules: RuleSet, subtask: str, article: Optional[str]
) -> dict[str, FolRule]:
    """label -> rule eligible for this subtask, narrowed by predicted article.

    A rule supports the label its consequent names for the subtask. The pool
    keeps the rules whose article is the predicted one (every rule while no
    article is predicted, as for the article subtask itself); if that article
    has none, all rules naming the subtask stay eligible.
    """
    pool: dict[str, FolRule] = {}
    widened: dict[str, FolRule] = {}
    for rule in rules.rules.values():
        named = consequent_labels(rule.target)
        if subtask not in named:
            continue
        widened.setdefault(named[subtask], rule)
        if article is None or named["article"] == article:
            pool.setdefault(named[subtask], rule)
    if not pool and widened:
        logger.info("no %s rules under article %s; widening pool", subtask, article)
        return widened
    return pool


def predict_case(
    case_id: str,
    fact_text: str,
    rules: RuleSet,
    candidates: dict[str, CandidateList],
    labels: LabelSpace,
    agent: Backend,
    seed: int = 0,
    *,
    transcript: Optional[Transcript] = None,
) -> Prediction:
    """Predict the full judgment triple for one case."""
    chosen: dict[str, str] = {}
    used_fallback: dict[str, bool] = {}
    rationales: list[str] = []
    predicted_article: Optional[str] = None

    for subtask in SUBTASKS:
        candidate_list = candidates[subtask]
        pool = _rule_pool(rules, subtask, predicted_article)
        label, fell_back, why = _predict_subtask(
            case_id, fact_text, subtask, candidate_list, pool, labels, agent, seed,
            transcript,
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
        used_abstract=False,
    )


def _predict_subtask(
    case_id: str,
    fact_text: str,
    subtask: str,
    candidate_list: CandidateList,
    pool: dict[str, FolRule],
    labels: LabelSpace,
    agent: Backend,
    seed: int,
    transcript: Optional[Transcript],
) -> tuple[str, bool, str]:
    candidate_labels_ordered = [label for label, _ in candidate_list.entries]

    for label in candidate_labels_ordered:
        rule = pool.get(label)
        if rule is None:
            continue
        tag = f"exam/{case_id}/{subtask}/{label}"
        if _antecedent_holds(rule, fact_text, agent, tag, transcript):
            return label, False, f"rule {rule.rule_id} satisfied"

    remaining = [
        label
        for label in labels.of(subtask)
        if label in pool and label not in candidate_labels_ordered
    ]
    rng = derive_rng(seed, "fallback", case_id, subtask)
    rng.shuffle(remaining)
    for label in remaining:
        rule = pool[label]
        tag = f"exam/{case_id}/{subtask}/{label}"
        if _antecedent_holds(rule, fact_text, agent, tag, transcript):
            return label, True, f"fallback rule {rule.rule_id} satisfied"

    if not candidate_labels_ordered:
        raise ValueError(f"no candidates for subtask {subtask}")
    return candidate_labels_ordered[0], True, "no rule satisfied"


def examine_case(
    case_id: str,
    fact_text: str,
    rules: RuleSet,
    provider: CandidateProvider,
    labels: LabelSpace,
    agent: Backend,
    *,
    seed: int = 0,
    candidate_k: int = CANDIDATE_K_DEFAULT,
    abstract_threshold: int = ABSTRACT_THRESHOLD_DEFAULT,
    transcript: Optional[Transcript] = None,
) -> Prediction:
    """Candidates + optional abstraction + rule-guided prediction for one
    case. Candidates are scored on the original fact; rules are applied to
    the (possibly abstracted) fact."""
    working_fact, used_abstract = maybe_abstract(
        fact_text,
        abstract_threshold,
        agent,
        tag=f"abstract/{case_id}",
        transcript=transcript,
    )
    candidates = {
        subtask: candidate_labels(fact_text, subtask, provider, k=candidate_k)
        for subtask in SUBTASKS
    }
    prediction = predict_case(
        case_id, working_fact, rules, candidates, labels, agent, seed,
        transcript=transcript,
    )
    if used_abstract:
        prediction = replace(prediction, used_abstract=True)
    return prediction
