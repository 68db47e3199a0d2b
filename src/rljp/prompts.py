"""Prompt templates for every agent-facing stage, and the one conversation
turn that sends them. A template is a plain string whose {{slot}} markers
`agents.render_template` fills.

Each template states its output contract explicitly (labeled lines, headed
sections, or a single RULE: line) because downstream parsers depend on it.
Rule-emitting templates embed the rule grammar so repair loops can quote
errors back against it. Every stage talks to its agent through `ask`, which
records each call in the agent's transcript.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional, TypeVar

from .agents import Agent, ChatRequest, complete

logger = logging.getLogger(__name__)

T = TypeVar("T")

SYSTEM_LEGAL_ANALYST = (
    "You are a careful legal analyst. Follow the requested output format "
    "exactly; do not add commentary outside it."
)

SUMMARIZE_CIRCUMSTANCES = (
    "Below are facts of decided cases that all received the judgment "
    "{{target}}.\n\n{{precedents}}\n\n"
    "Summarize the causal circumstances common to these cases, one line "
    "per category, exactly in this format:\n"
    "SUBJECT: <category of criminal subject>\n"
    "VICTIM: <category of victim>\n"
    "TIME_LOCATION: <time and location pattern>\n"
    "BEHAVIOR: <criminal behavior>\n"
    "CONSEQUENCES: <objective consequences>\n"
    "MENTAL_STATE: <subjective mental state>\n"
    "Write 'unspecified' for any category the cases do not establish."
)

DEFINE_SYMBOLS = (
    "We are formalizing judgment logic for {{target}}. The summarized "
    "circumstances are:\n{{factors}}\n\n"
    "Define logic symbols covering these circumstances. Output one item "
    "per line, using only these forms:\n"
    "VAR <name>: <what it denotes>\n"
    "PRED <name>/<arity>: <meaning>\n"
    "QUANT <variable name>: FORALL or EXISTS\n"
    "Names must match [A-Za-z_][A-Za-z0-9_]* and be unique."
)

CONSTRUCT_RULE = (
    "Construct one judgment rule for {{target}} from these symbols:\n"
    "{{symbols}}\n\n"
    "The rule must follow this grammar:\n{{grammar}}\n\n"
    "Its consequent must be exactly: {{consequent}}\n"
    "Reply with a single line of the form:\n"
    "RULE: <the rule>"
)

REPAIR_SYMBOLS = (
    "{{prompt}}\n\nYour previous reply was rejected: {{error}}\n"
    "Emit the corrected symbol list only."
)

REPAIR_RULE = (
    "Your previous rule was rejected:\n{{error}}\n\n"
    "Previous output:\n{{previous}}\n\n"
    "Emit a corrected rule under the same grammar:\n{{grammar}}\n"
    "The consequent must be exactly: {{consequent}}\n"
    "Reply with a single line of the form:\n"
    "RULE: <the rule>"
)

QUIZ_QUESTION = (
    "Apply this judgment rule to the case below and choose the judgment "
    "that fits the facts.\n\n"
    "Rule:\n{{rule}}\n\n"
    "Case facts:\n{{fact}}\n\n"
    "Options:\n{{options}}\n\n"
    "Reply exactly in this format:\n"
    "Reasoning: <your reasoning>\n"
    "Answer: <option letter>"
)

CACL_KEEP = (
    "Current rule:\n{{rule}}\n\n"
    "These quiz answers made under the rule were CORRECT:\n{{records}}\n\n"
    "Which parts of the rule's logic made these answers correct? "
    "Name the effective predicates and connections concisely."
)

CACL_IMPROVE = (
    "Current rule:\n{{rule}}\n\n"
    "These quiz answers made under the rule were INCORRECT:\n{{records}}\n\n"
    "Which parts of the rule's logic caused these mistakes? Name the "
    "ineffective or missing conditions concisely."
)

CACL_SYNTHESIZE = (
    "Analysis of the correct answers:\n{{keep_analysis}}\n\n"
    "Analysis of the incorrect answers:\n{{improve_analysis}}\n\n"
    "Combine these into one optimization direction for the rule. Reply "
    "exactly in this format:\n"
    "KEEP: <logic parts to preserve>\n"
    "IMPROVE: <logic parts to change or add>"
)

CACL_REWRITE = (
    "Current rule:\n{{rule}}\n\n"
    "Optimization direction:\n"
    "KEEP: {{keep}}\n"
    "IMPROVE: {{improve}}\n\n"
    "Rewrite the rule, preserving the KEEP parts and changing the IMPROVE "
    "parts. The grammar is:\n{{grammar}}\n\n"
    "The consequent must remain exactly: {{consequent}}\n"
    "Reply with a single line of the form:\n"
    "RULE: <the rule>"
)

EXAM_CHECK = (
    "Judgment rule:\n{{rule}}\n\n"
    "Case facts:\n{{fact}}\n\n"
    "Work through the rule's conditions against the facts step by step, "
    "then decide: does the rule's antecedent hold for this case?\n"
    "Reply exactly in this format:\n"
    "Reasoning: <your reasoning>\n"
    "Answer: YES or NO"
)

ABSTRACT_FACT = (
    "Condense the case facts below to at most {{limit}} characters. Keep "
    "every legally relevant feature (parties, behavior, amounts, "
    "consequences, mental state) and drop redundant narrative detail.\n\n"
    "Case facts:\n{{fact}}"
)


def ask(
    agent: Agent,
    prompt: str,
    *,
    tag: str,
    temperature: float = 0.0,
    parse: Callable[[str], T] = str.strip,
    attempts: int = 1,
    follow_up: Optional[Callable[[str, ValueError], str]] = None,
) -> T:
    """One conversation turn: send `prompt` under SYSTEM_LEGAL_ANALYST and
    return `parse(reply)`.

    A reply that `parse` rejects with ValueError is answered by another send,
    up to `attempts` sends in all; the next prompt is `follow_up(reply,
    error)`, or the same prompt without a follow-up. The last rejection
    propagates.
    """
    def send(text: str) -> str:
        request = ChatRequest(SYSTEM_LEGAL_ANALYST, text, temperature=temperature, tag=tag)
        return complete(request, agent).text

    for attempt in range(1, attempts):
        reply = send(prompt)
        try:
            return parse(reply)
        except ValueError as error:
            logger.info("%s: reply rejected (%s); re-ask %d/%d", tag, error, attempt, attempts - 1)
            if follow_up is not None:
                prompt = follow_up(reply, error)
    return parse(send(prompt))
