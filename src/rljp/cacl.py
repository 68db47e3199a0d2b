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
from dataclasses import dataclass
from typing import Optional, Sequence

from .agents import Backend, ChatRequest, Transcript, complete, render_template
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
    SYSTEM_LEGAL_ANALYST,
)
from .quiz import QuizResult, ReasoningRecord, format_options

logger = logging.getLogger(__name__)

FACT_TRUNCATE_DEFAULT = 1200
MAX_RECORDS_PER_SIDE_DEFAULT = 20


class CaclError(RuntimeError):
    """Unrecoverable failure while deriving or applying a direction."""


@dataclass(frozen=True)
class ContrastTriplet:
    anchor: FolRule
    positives: tuple[ReasoningRecord, ...]  # TP and TN
    negatives: tuple[ReasoningRecord, ...]  # FP and FN


@dataclass(frozen=True)
class OptimizationDirection:
    keep: str
    improve: str

    def __post_init__(self) -> None:
        if not self.keep or not self.improve:
            raise ValueError("both direction fields must be non-empty")


def build_triplet(rule: FolRule, result: QuizResult) -> ContrastTriplet:
    """Partition the result's records into correct and incorrect experience."""
    positives = tuple(r for r in result.records if r.outcome in ("TP", "TN"))
    negatives = tuple(r for r in result.records if r.outcome in ("FP", "FN"))
    return ContrastTriplet(anchor=rule, positives=positives, negatives=negatives)


def _format_record(record: ReasoningRecord, fact_truncate: int) -> str:
    fact = record.question.fact_text
    if len(fact) > fact_truncate:
        fact = fact[:fact_truncate]
        logger.debug("truncated fact for %s to %d chars", record.question.case_id, fact_truncate)
    predicted = record.predicted_letter or "(none)"
    return (
        f"Question ({record.question.case_id}):\n"
        f"Fact: {fact}\n"
        f"Options:\n{format_options(record.question)}\n"
        f"Reasoning: {record.reasoning_text}\n"
        f"Correct option: {record.correct_letter}\n"
        f"Predicted option: {predicted} [{record.outcome}]"
    )


def _format_records(
    records: Sequence[ReasoningRecord],
    *,
    cap: int,
    fact_truncate: int,
    rank_by_similarity: bool,
) -> str:
    chosen = list(records)
    if rank_by_similarity:
        chosen.sort(
            key=lambda r: -(r.question.similarity if r.question.similarity is not None else -1.0)
        )
    if len(chosen) > cap:
        logger.info("capping %d records to %d for prompt", len(chosen), cap)
        chosen = chosen[:cap]
    return "\n\n".join(_format_record(r, fact_truncate) for r in chosen)


_KEEP_RE = re.compile(r"KEEP:\s*(.*?)(?:\nIMPROVE:|\Z)", re.DOTALL)
_IMPROVE_RE = re.compile(r"IMPROVE:\s*(.*)", re.DOTALL)


def _parse_direction(text: str, *, need_keep: bool, need_improve: bool) -> Optional[tuple[str, str]]:
    keep_match = _KEEP_RE.search(text)
    improve_match = _IMPROVE_RE.search(text)
    keep = keep_match.group(1).strip() if keep_match else ""
    improve = improve_match.group(1).strip() if improve_match else ""
    if need_keep and not keep:
        return None
    if need_improve and not improve:
        return None
    return keep, improve


def derive_direction(
    triplet: ContrastTriplet,
    agent: Backend,
    *,
    tag_prefix: str = "cacl",
    transcript: Optional[Transcript] = None,
    temperature: float = 0.7,
    fact_truncate: int = FACT_TRUNCATE_DEFAULT,
    max_records_per_side: int = MAX_RECORDS_PER_SIDE_DEFAULT,
) -> OptimizationDirection:
    """Derive (keep, improve) from the triplet.

    Analysis calls for an empty side are skipped and that field forced to
    "none identified". The synthesis reply must carry the KEEP:/IMPROVE:
    sections required by the non-empty sides; one re-ask, then CaclError.
    """
    if not triplet.positives and not triplet.negatives:
        raise CaclError("triplet has no records on either side")
    rule_text = render_rule(triplet.anchor)

    def analysis(template, records, tag):
        prompt = render_template(
            template,
            {
                "rule": rule_text,
                "records": _format_records(
                    records,
                    cap=max_records_per_side,
                    fact_truncate=fact_truncate,
                    rank_by_similarity=template is CACL_IMPROVE,
                ),
            },
        )
        response = complete(
            ChatRequest(
                system_text=SYSTEM_LEGAL_ANALYST,
                user_text=prompt,
                temperature=temperature,
                tag=tag,
            ),
            agent,
            transcript=transcript,
        )
        return response.text.strip()

    keep_analysis = (
        analysis(CACL_KEEP, triplet.positives, f"{tag_prefix}/keep")
        if triplet.positives
        else "none identified"
    )
    improve_analysis = (
        analysis(CACL_IMPROVE, triplet.negatives, f"{tag_prefix}/improve")
        if triplet.negatives
        else "none identified"
    )

    synthesis_prompt = render_template(
        CACL_SYNTHESIZE,
        {"keep_analysis": keep_analysis, "improve_analysis": improve_analysis},
    )
    request = ChatRequest(
        system_text=SYSTEM_LEGAL_ANALYST,
        user_text=synthesis_prompt,
        temperature=temperature,
        tag=f"{tag_prefix}/synthesize",
    )
    parsed = None
    for attempt in range(2):
        response = complete(request, agent, transcript=transcript)
        parsed = _parse_direction(
            response.text,
            need_keep=bool(triplet.positives),
            need_improve=bool(triplet.negatives),
        )
        if parsed is not None:
            break
        if attempt == 0:
            logger.info("unparsable synthesis; re-asking")
    if parsed is None:
        raise CaclError("synthesis reply unparsable after re-ask")
    keep, improve = parsed
    if not triplet.positives:
        keep = "none identified"
    if not triplet.negatives:
        improve = "none identified"
    return OptimizationDirection(keep=keep, improve=improve)


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
    agent: Backend,
    labels: LabelSpace,
    *,
    tag: str,
    rule_id: str,
    version: int,
    provenance: Provenance,
    target: Consequent,
    what: str,
    error: type[Exception],
    transcript: Optional[Transcript],
    temperature: float,
    max_repairs: int,
) -> FolRule:
    """Ask for a rule concluding `target`, then repair it if need be.

    A reply that fails parse_and_check_rule is answered with up to
    `max_repairs` REPAIR_RULE prompts quoting the error; if the last repair
    fails too, raises `error` saying "<what> failed after ...".
    """
    last_error = ""
    for attempt in range(1 + max_repairs):
        response = complete(
            ChatRequest(
                system_text=SYSTEM_LEGAL_ANALYST,
                user_text=prompt,
                temperature=temperature,
                tag=tag,
            ),
            agent,
            transcript=transcript,
        )
        try:
            return parse_and_check_rule(
                response.text,
                rule_id=rule_id,
                version=version,
                provenance=provenance,
                labels=labels,
                required_consequent=target,
            )
        except ValueError as exc:
            last_error = str(exc)
            logger.info("%s rejected (%s); repair %d/%d", what, exc, attempt + 1, max_repairs)
            prompt = render_template(
                REPAIR_RULE,
                {
                    "error": last_error,
                    "previous": response.text,
                    "grammar": GRAMMAR_HELP,
                    "consequent": render_consequent(target),
                },
            )
    raise error(f"{what} failed after {max_repairs} repairs: {last_error}")


def apply_direction(
    rule: FolRule,
    direction: OptimizationDirection,
    agent: Backend,
    labels: LabelSpace,
    *,
    child_rule_id: str,
    tag_prefix: str = "cacl",
    transcript: Optional[Transcript] = None,
    temperature: float = 0.7,
    max_repairs: int = 2,
) -> FolRule:
    """Rewrite the rule along the direction into a child rule.

    The child keeps the parent's consequent and gets version parent+1; parse,
    validation, or consequent-drift failures trigger up to `max_repairs`
    repair prompts quoting the error, then CaclError.
    """
    prompt = render_template(
        CACL_REWRITE,
        {
            "rule": render_rule(rule),
            "keep": direction.keep,
            "improve": direction.improve,
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
        transcript=transcript,
        temperature=temperature,
        max_repairs=max_repairs,
    )


def optimize_rule(
    rule: FolRule,
    result: QuizResult,
    agent: Backend,
    labels: LabelSpace,
    *,
    child_rule_id: str,
    tag_prefix: str = "cacl",
    transcript: Optional[Transcript] = None,
    temperature: float = 0.7,
    fact_truncate: int = FACT_TRUNCATE_DEFAULT,
    max_records_per_side: int = MAX_RECORDS_PER_SIDE_DEFAULT,
) -> FolRule:
    """Full refinement step: triplet -> direction -> rewritten child rule."""
    triplet = build_triplet(rule, result)
    direction = derive_direction(
        triplet,
        agent,
        tag_prefix=tag_prefix,
        transcript=transcript,
        temperature=temperature,
        fact_truncate=fact_truncate,
        max_records_per_side=max_records_per_side,
    )
    return apply_direction(
        rule,
        direction,
        agent,
        labels,
        child_rule_id=child_rule_id,
        tag_prefix=tag_prefix,
        transcript=transcript,
        temperature=temperature,
    )
