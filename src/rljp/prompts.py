"""Prompt templates for every agent-facing stage.

Each template states its output contract explicitly (labeled lines, headed
sections, or a single RULE: line) because downstream parsers depend on it.
Rule-emitting templates embed the rule grammar so repair loops can quote
errors back against it.
"""

from __future__ import annotations

from .agents import PromptTemplate

SYSTEM_LEGAL_ANALYST = (
    "You are a careful legal analyst. Follow the requested output format "
    "exactly; do not add commentary outside it."
)

SUMMARIZE_CIRCUMSTANCES = PromptTemplate(
    name="summarize-circumstances",
    body=(
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
    ),
    required_slots=frozenset({"target", "precedents"}),
)

DEFINE_SYMBOLS = PromptTemplate(
    name="define-symbols",
    body=(
        "We are formalizing judgment logic for {{target}}. The summarized "
        "circumstances are:\n{{factors}}\n\n"
        "Define logic symbols covering these circumstances. Output one item "
        "per line, using only these forms:\n"
        "VAR <name>: <what it denotes>\n"
        "PRED <name>/<arity>: <meaning>\n"
        "QUANT <variable name>: FORALL or EXISTS\n"
        "Names must match [A-Za-z_][A-Za-z0-9_]* and be unique."
    ),
    required_slots=frozenset({"target", "factors"}),
)

CONSTRUCT_RULE = PromptTemplate(
    name="construct-rule",
    body=(
        "Construct one judgment rule for {{target}} from these symbols:\n"
        "{{symbols}}\n\n"
        "The rule must follow this grammar:\n{{grammar}}\n\n"
        "Its consequent must be exactly: {{consequent}}\n"
        "Reply with a single line of the form:\n"
        "RULE: <the rule>"
    ),
    required_slots=frozenset({"target", "symbols", "grammar", "consequent"}),
)

REPAIR_RULE = PromptTemplate(
    name="repair-rule",
    body=(
        "Your previous rule was rejected:\n{{error}}\n\n"
        "Previous output:\n{{previous}}\n\n"
        "Emit a corrected rule under the same grammar:\n{{grammar}}\n"
        "The consequent must be exactly: {{consequent}}\n"
        "Reply with a single line of the form:\n"
        "RULE: <the rule>"
    ),
    required_slots=frozenset({"error", "previous", "grammar", "consequent"}),
)

QUIZ_QUESTION = PromptTemplate(
    name="quiz-question",
    body=(
        "Apply this judgment rule to the case below and choose the judgment "
        "that fits the facts.\n\n"
        "Rule:\n{{rule}}\n\n"
        "Case facts:\n{{fact}}\n\n"
        "Options:\n{{options}}\n\n"
        "Reply exactly in this format:\n"
        "Reasoning: <your reasoning>\n"
        "Answer: <option letter>"
    ),
    required_slots=frozenset({"rule", "fact", "options"}),
)

CACL_KEEP = PromptTemplate(
    name="cacl-keep-analysis",
    body=(
        "Current rule:\n{{rule}}\n\n"
        "These quiz answers made under the rule were CORRECT:\n{{records}}\n\n"
        "Which parts of the rule's logic made these answers correct? "
        "Name the effective predicates and connections concisely."
    ),
    required_slots=frozenset({"rule", "records"}),
)

CACL_IMPROVE = PromptTemplate(
    name="cacl-improve-analysis",
    body=(
        "Current rule:\n{{rule}}\n\n"
        "These quiz answers made under the rule were INCORRECT:\n{{records}}\n\n"
        "Which parts of the rule's logic caused these mistakes? Name the "
        "ineffective or missing conditions concisely."
    ),
    required_slots=frozenset({"rule", "records"}),
)

CACL_SYNTHESIZE = PromptTemplate(
    name="cacl-synthesize-direction",
    body=(
        "Analysis of the correct answers:\n{{keep_analysis}}\n\n"
        "Analysis of the incorrect answers:\n{{improve_analysis}}\n\n"
        "Combine these into one optimization direction for the rule. Reply "
        "exactly in this format:\n"
        "KEEP: <logic parts to preserve>\n"
        "IMPROVE: <logic parts to change or add>"
    ),
    required_slots=frozenset({"keep_analysis", "improve_analysis"}),
)

CACL_REWRITE = PromptTemplate(
    name="cacl-rewrite-rule",
    body=(
        "Current rule:\n{{rule}}\n\n"
        "Optimization direction:\n"
        "KEEP: {{keep}}\n"
        "IMPROVE: {{improve}}\n\n"
        "Rewrite the rule, preserving the KEEP parts and changing the IMPROVE "
        "parts. The grammar is:\n{{grammar}}\n\n"
        "The consequent must remain exactly: {{consequent}}\n"
        "Reply with a single line of the form:\n"
        "RULE: <the rule>"
    ),
    required_slots=frozenset({"rule", "keep", "improve", "grammar", "consequent"}),
)

EXAM_CHECK = PromptTemplate(
    name="exam-antecedent-check",
    body=(
        "Judgment rule:\n{{rule}}\n\n"
        "Case facts:\n{{fact}}\n\n"
        "Work through the rule's conditions against the facts step by step, "
        "then decide: does the rule's antecedent hold for this case?\n"
        "Reply exactly in this format:\n"
        "Reasoning: <your reasoning>\n"
        "Answer: YES or NO"
    ),
    required_slots=frozenset({"rule", "fact"}),
)

ABSTRACT_FACT = PromptTemplate(
    name="abstract-fact",
    body=(
        "Condense the case facts below to at most {{limit}} characters. Keep "
        "every legally relevant feature (parties, behavior, amounts, "
        "consequences, mental state) and drop redundant narrative detail.\n\n"
        "Case facts:\n{{fact}}"
    ),
    required_slots=frozenset({"limit", "fact"}),
)

