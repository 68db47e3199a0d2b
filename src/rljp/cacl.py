"""Contrastive rule refinement: turn quiz experience into an optimization
direction, then rewrite the rule along it.

The anchor is the current rule; correct records (TP/TN) drive a keep-analysis
and incorrect ones (FP/FN) an improve-analysis, a synthesis call merges both
into KEEP/IMPROVE sections, and a final rewrite call produces the child rule.
The child's consequent is locked mechanically: a rewrite that drifts the
target is rejected and repaired, never accepted.
"""

from __future__ import annotations

import logging
import re
from typing import Sequence

from .agents import Agent, render_template
from .corpus import LabelSpace
from .fol import (
    GRAMMAR_HELP,
    Consequent,
    FolRule,
    Provenance,
    RuleSyntaxError,
    parse_rule,
    render_consequent,
    render_rule,
    validate_rule,
)
from .prompts import (
    CACL_IMPROVE,
    CACL_KEEP,
    CACL_REWRITE,
    CACL_SYNTHESIZE,
    REPAIR_RULE,
    ask,
)
from .quiz import QuizResult, ReasoningRecord, format_options

logger = logging.getLogger(__name__)

FACT_TRUNCATE_DEFAULT = 1200
MAX_RECORDS_PER_SIDE_DEFAULT = 20
# repair prompts after a reply that does not parse, here and in rule initialization
MAX_REPAIRS = 2


class CaclError(RuntimeError):
    """Unrecoverable failure while deriving or applying a direction."""


def _format_record(record: ReasoningRecord) -> str:
    fact = record.question.fact_text
    if len(fact) > FACT_TRUNCATE_DEFAULT:
        fact = fact[:FACT_TRUNCATE_DEFAULT]
        logger.debug(
            "truncated fact for %s to %d chars", record.question.case_id, FACT_TRUNCATE_DEFAULT
        )
    predicted = record.predicted_letter or "(none)"
    return (
        f"Question ({record.question.case_id}):\n"
        f"Fact: {fact}\n"
        f"Options:\n{format_options(record.question)}\n"
        f"Reasoning: {record.reasoning_text}\n"
        f"Correct option: {record.question.correct_letter}\n"
        f"Predicted option: {predicted} [{record.outcome}]"
    )


def _format_records(records: Sequence[ReasoningRecord], *, rank_by_similarity: bool) -> str:
    """At most MAX_RECORDS_PER_SIDE_DEFAULT records, the most similar first
    with `rank_by_similarity`, each fact cut to FACT_TRUNCATE_DEFAULT chars."""
    chosen = list(records)
    if rank_by_similarity:
        chosen.sort(
            key=lambda r: -(r.question.similarity if r.question.similarity is not None else -1.0)
        )
    if len(chosen) > MAX_RECORDS_PER_SIDE_DEFAULT:
        logger.info(
            "capping %d records to %d for prompt", len(chosen), MAX_RECORDS_PER_SIDE_DEFAULT
        )
        chosen = chosen[:MAX_RECORDS_PER_SIDE_DEFAULT]
    return "\n\n".join(_format_record(r) for r in chosen)


_KEEP_RE = re.compile(r"KEEP:\s*(.*?)(?:\nIMPROVE:|\Z)", re.DOTALL)
_IMPROVE_RE = re.compile(r"IMPROVE:\s*(.*)", re.DOTALL)


def _parse_direction(text: str, *, need_keep: bool, need_improve: bool) -> tuple[str, str]:
    keep_match = _KEEP_RE.search(text)
    improve_match = _IMPROVE_RE.search(text)
    keep = keep_match.group(1).strip() if keep_match else ""
    improve = improve_match.group(1).strip() if improve_match else ""
    if need_keep and not keep:
        raise ValueError("no KEEP: section")
    if need_improve and not improve:
        raise ValueError("no IMPROVE: section")
    return keep, improve


def derive_direction(
    rule: FolRule,
    result: QuizResult,
    agent: Agent,
    *,
    tag_prefix: str = "cacl",
    temperature: float = 0.7,
) -> tuple[str, str]:
    """Derive the (keep, improve) direction from the quiz's correct (TP/TN)
    and incorrect (FP/FN) records.

    Analysis calls for an empty side are skipped and that field forced to
    "none identified". The synthesis reply must carry the KEEP:/IMPROVE:
    sections required by the non-empty sides; one re-ask, then CaclError.
    """
    correct = [r for r in result.records if r.outcome in ("TP", "TN")]
    incorrect = [r for r in result.records if r.outcome in ("FP", "FN")]
    if not correct and not incorrect:
        raise CaclError("quiz result has no records on either side")
    rule_text = render_rule(rule)

    def analysis(template, records, tag, *, rank_by_similarity):
        prompt = render_template(
            template,
            {
                "rule": rule_text,
                "records": _format_records(records, rank_by_similarity=rank_by_similarity),
            },
        )
        return ask(agent, prompt, tag=tag, temperature=temperature)

    keep_analysis = (
        analysis(CACL_KEEP, correct, f"{tag_prefix}/keep", rank_by_similarity=False)
        if correct
        else "none identified"
    )
    improve_analysis = (
        analysis(CACL_IMPROVE, incorrect, f"{tag_prefix}/improve", rank_by_similarity=True)
        if incorrect
        else "none identified"
    )

    synthesis_prompt = render_template(
        CACL_SYNTHESIZE,
        {"keep_analysis": keep_analysis, "improve_analysis": improve_analysis},
    )
    try:
        keep, improve = ask(
            agent, synthesis_prompt, tag=f"{tag_prefix}/synthesize", temperature=temperature,
            attempts=2,
            parse=lambda text: _parse_direction(
                text, need_keep=bool(correct), need_improve=bool(incorrect)
            ),
        )
    except ValueError as exc:
        raise CaclError("synthesis reply unparsable after re-ask") from exc
    return (keep if correct else "none identified", improve if incorrect else "none identified")


_RULE_LINE_RE = re.compile(r"RULE:\s*(.+)", re.DOTALL)


def extract_rule_text(text: str) -> str:
    """The rule source from a reply: the RULE: line if present, else the whole
    reply stripped."""
    match = _RULE_LINE_RE.search(text)
    source = match.group(1) if match else text
    return source.strip().splitlines()[0].strip() if source.strip() else ""


def parse_and_check_rule(
    text: str,
    *,
    rule_id: str,
    version: int,
    provenance: Provenance,
    labels: LabelSpace,
    required_consequent=None,
) -> FolRule:
    """Parse, validate, and optionally consequent-lock an agent-produced rule.

    Raises RuleSyntaxError or ValueError with a message suitable for feeding
    back into a repair prompt.
    """
    source = extract_rule_text(text)
    if not source:
        raise RuleSyntaxError("empty rule text", 1, 1, {"RULE:"})
    rule = parse_rule(source, rule_id=rule_id, version=version, provenance=provenance)
    violations = validate_rule(rule, labels)
    if violations:
        raise ValueError("; ".join(v.message for v in violations))
    if required_consequent is not None and rule.target != required_consequent:
        raise ValueError(
            f"consequent changed: expected {render_consequent(required_consequent)}, "
            f"got {render_consequent(rule.target)}"
        )
    return rule


def request_rule(
    prompt: str,
    agent: Agent,
    labels: LabelSpace,
    *,
    tag: str,
    rule_id: str,
    version: int,
    provenance: Provenance,
    target: Consequent,
    what: str,
    error: type[Exception],
    temperature: float,
) -> FolRule:
    """Ask for a rule concluding `target`, then repair it if need be.

    A reply that fails parse_and_check_rule is answered with up to
    MAX_REPAIRS REPAIR_RULE prompts quoting the error; if the last repair
    fails too, raises `error` saying "<what> failed after ...".
    """
    try:
        return ask(
            agent, prompt, tag=tag, temperature=temperature, attempts=1 + MAX_REPAIRS,
            parse=lambda text: parse_and_check_rule(
                text, rule_id=rule_id, version=version, provenance=provenance, labels=labels,
                required_consequent=target,
            ),
            follow_up=lambda reply, error: render_template(
                REPAIR_RULE,
                {
                    "error": str(error),
                    "previous": reply,
                    "grammar": GRAMMAR_HELP,
                    "consequent": render_consequent(target),
                },
            ),
        )
    except ValueError as exc:
        raise error(f"{what} failed after {MAX_REPAIRS} repairs: {exc}") from exc


def apply_direction(
    rule: FolRule,
    keep: str,
    improve: str,
    agent: Agent,
    labels: LabelSpace,
    *,
    child_rule_id: str,
    tag_prefix: str = "cacl",
    temperature: float = 0.7,
) -> FolRule:
    """Rewrite the rule into a child rule that preserves `keep` and changes
    `improve`.

    The child keeps the parent's consequent and gets version parent+1; parse,
    validation, or consequent-drift failures trigger up to MAX_REPAIRS
    repair prompts quoting the error, then CaclError.
    """
    prompt = render_template(
        CACL_REWRITE,
        {
            "rule": render_rule(rule),
            "keep": keep,
            "improve": improve,
            "grammar": GRAMMAR_HELP,
            "consequent": render_consequent(rule.target),
        },
    )
    return request_rule(
        prompt,
        agent,
        labels,
        tag=f"{tag_prefix}/rewrite",
        rule_id=child_rule_id,
        version=rule.version + 1,
        provenance=Provenance("optimized", parent_rule_id=rule.rule_id),
        target=rule.target,
        what="rewrite",
        error=CaclError,
        temperature=temperature,
    )


def optimize_rule(
    rule: FolRule,
    result: QuizResult,
    agent: Agent,
    labels: LabelSpace,
    *,
    child_rule_id: str,
    tag_prefix: str = "cacl",
    temperature: float = 0.7,
) -> FolRule:
    """Full refinement step: quiz records -> direction -> rewritten child rule."""
    keep, improve = derive_direction(
        rule, result, agent, tag_prefix=tag_prefix, temperature=temperature
    )
    return apply_direction(
        rule,
        keep,
        improve,
        agent,
        labels,
        child_rule_id=child_rule_id,
        tag_prefix=tag_prefix,
        temperature=temperature,
    )
