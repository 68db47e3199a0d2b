"""Single-choice quizzes over a confusable set, plus outcome accounting.

Questions carry composite option labels of the target's kind (rendered in
consequent syntax) so that "picked the target" is well defined even when a
hard negative shares one label component with the target. A rule's quiz
score is (TP+TN)/(TP+TN+FP+FN): TP/FP mean the agent selected the target
label, on a positive/negative case respectively.
"""

from __future__ import annotations

import hashlib
import itertools
import logging
import random
import re
import string
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence

from .agents import Backend, ChatRequest, Transcript, complete, render_template
from .confusable import ConfusableSet
from .corpus import LabelSpace, LegalCase
from .fol import Consequent, FolRule, render_consequent, render_rule
from .prompts import QUIZ_QUESTION, SYSTEM_LEGAL_ANALYST

logger = logging.getLogger(__name__)

OUTCOMES = ("TP", "TN", "FP", "FN")


def derive_rng(seed: int, *parts: str) -> random.Random:
    """Seeded RNG keyed by stable strings (never builtin hash)."""
    digest = hashlib.blake2b(
        ("/".join([str(seed), *parts])).encode("utf-8"), digest_size=8
    ).digest()
    return random.Random(int.from_bytes(digest, "big"))


def case_label(case: LegalCase, kind_of: Consequent) -> Consequent:
    """The case's gold label projected onto the target's consequent kind."""
    if case.judgment is None:
        raise ValueError(f"case {case.case_id} has no judgment")
    return type(kind_of)(*(case.judgment.label(s) for s in kind_of.subtasks))


def _label_universe(labels: LabelSpace, kind_of: Consequent) -> list[Consequent]:
    return [
        type(kind_of)(*combo)
        for combo in itertools.product(*(labels.of(s) for s in kind_of.subtasks))
    ]


@dataclass(frozen=True)
class QuizQuestion:
    case_id: str
    fact_text: str
    options: tuple[tuple[str, str], ...]  # (letter, rendered label)
    correct_letter: str
    target_letter: str
    is_positive: bool
    similarity: Optional[float] = None  # mined similarity, negatives only

    def __post_init__(self) -> None:
        letters = [letter for letter, _ in self.options]
        if len(set(letters)) != len(letters):
            raise ValueError("duplicate option letters")
        if self.correct_letter not in letters or self.target_letter not in letters:
            raise ValueError("correct/target letter missing from options")

    def option_label(self, letter: str) -> Optional[str]:
        for option_letter, label in self.options:
            if option_letter == letter:
                return label
        return None


@dataclass(frozen=True)
class ReasoningRecord:
    question: QuizQuestion
    reasoning_text: str
    correct_letter: str
    predicted_letter: Optional[str]
    outcome: str
    malformed: bool = False

    def __post_init__(self) -> None:
        if self.outcome not in OUTCOMES:
            raise ValueError(f"bad outcome {self.outcome!r}")


@dataclass(frozen=True)
class QuizResult:
    records: tuple[ReasoningRecord, ...]
    tp: int
    tn: int
    fp: int
    fn: int
    score: float


class QuizBuildError(ValueError):
    pass


def make_quiz(
    confusable: ConfusableSet,
    labels: LabelSpace,
    num_options: int = 4,
    seed: int = 0,
    *,
    distractors_from_negatives: bool = False,
) -> list[QuizQuestion]:
    """One question per confusable-set case: positives first, then negatives.

    Options always contain the target label and the case's gold label;
    remaining slots are seeded uniform draws without replacement, either from
    the label-space cross product (default) or from the negatives' own labels.
    """
    if num_options < 2:
        raise QuizBuildError("num_options must be >= 2")
    target = confusable.target
    target_text = render_consequent(target)

    if distractors_from_negatives:
        universe = [case_label(c, target) for c in confusable.negatives]
    else:
        universe = _label_universe(labels, target)
    # rendered once, deduplicated in first-seen order
    universe_texts = list(dict.fromkeys(render_consequent(label) for label in universe))

    questions: list[QuizQuestion] = []
    for case in confusable.validation_cases():
        gold_text = render_consequent(case_label(case, target))
        is_positive = gold_text == target_text

        fixed = [target_text] if is_positive else [target_text, gold_text]
        needed = num_options - len(fixed)
        candidates = [text for text in universe_texts if text not in fixed]
        if len(candidates) < needed:
            raise QuizBuildError(
                f"need {needed} distractors for case {case.case_id}, "
                f"only {len(candidates)} labels available"
            )
        rng = derive_rng(seed, "quiz", case.case_id)
        option_texts = fixed + rng.sample(candidates, needed)
        rng.shuffle(option_texts)
        letters = string.ascii_uppercase[: len(option_texts)]
        options = tuple(zip(letters, option_texts))
        correct_letter = next(l for l, text in options if text == gold_text)
        target_letter = next(l for l, text in options if text == target_text)
        questions.append(
            QuizQuestion(
                case_id=case.case_id,
                fact_text=case.fact_text,
                options=options,
                correct_letter=correct_letter,
                target_letter=target_letter,
                is_positive=is_positive,
                similarity=confusable.negative_similarity.get(case.case_id),
            )
        )
    return questions


def classify_outcome(question: QuizQuestion, predicted_letter: Optional[str]) -> str:
    """TP/FP when the target option was picked (positive/negative case);
    FN/TN otherwise. Unknown or missing letters count against the rule:
    FN on positives, FP on negatives."""
    if predicted_letter is None or question.option_label(predicted_letter) is None:
        return "FN" if question.is_positive else "FP"
    picked_target = predicted_letter == question.target_letter
    if question.is_positive:
        return "TP" if picked_target else "FN"
    return "FP" if picked_target else "TN"


_ANSWER_RE = re.compile(r"Answer:\s*([A-Za-z])\b")
_REASONING_RE = re.compile(r"Reasoning:\s*(.*?)(?:\nAnswer:|\Z)", re.DOTALL)


def parse_quiz_answer(text: str) -> tuple[Optional[str], str]:
    """Extract (letter, reasoning) from a quiz reply; letter None if absent."""
    matches = _ANSWER_RE.findall(text)
    letter = matches[-1].upper() if matches else None
    reasoning_match = _REASONING_RE.search(text)
    reasoning = reasoning_match.group(1).strip() if reasoning_match else text.strip()
    return letter, reasoning


def format_options(question: QuizQuestion) -> str:
    return "\n".join(f"{letter}) {label}" for letter, label in question.options)


def build_quiz_result(records: Sequence[ReasoningRecord]) -> QuizResult:
    counts = {outcome: 0 for outcome in OUTCOMES}
    for record in records:
        counts[record.outcome] += 1
    return QuizResult(
        records=tuple(records),
        tp=counts["TP"],
        tn=counts["TN"],
        fp=counts["FP"],
        fn=counts["FN"],
        score=score(records),
    )


def run_quiz(
    rule: FolRule,
    questions: Sequence[QuizQuestion],
    agent: Backend,
    *,
    tag_prefix: str = "quiz",
    transcript: Optional[Transcript] = None,
    temperature: float = 0.0,
    concurrency: int = 1,
) -> QuizResult:
    """Ask the agent every question under `rule` and tally outcomes.

    An unparsable reply is re-asked once under the same tag; a second failure
    yields a malformed record. Records always come back in question order.
    """
    if not questions:
        raise ValueError("no questions to run")
    rule_text = render_rule(rule)

    def ask(question: QuizQuestion) -> ReasoningRecord:
        prompt = render_template(
            QUIZ_QUESTION,
            {
                "rule": rule_text,
                "fact": question.fact_text,
                "options": format_options(question),
            },
        )
        request = ChatRequest(
            system_text=SYSTEM_LEGAL_ANALYST,
            user_text=prompt,
            temperature=temperature,
            tag=f"{tag_prefix}/{question.case_id}",
        )
        letter: Optional[str] = None
        reasoning = ""
        malformed = False
        for attempt in range(2):
            response = complete(request, agent, transcript=transcript)
            letter, reasoning = parse_quiz_answer(response.text)
            if letter is not None and question.option_label(letter) is not None:
                break
            if attempt == 0:
                logger.info(
                    "unparsable quiz answer for %s; re-asking", question.case_id
                )
        if letter is None or question.option_label(letter) is None:
            malformed = True
            logger.warning("malformed quiz answer for %s after re-ask", question.case_id)
        outcome = classify_outcome(question, letter)
        return ReasoningRecord(
            question=question,
            reasoning_text=reasoning,
            correct_letter=question.correct_letter,
            predicted_letter=letter,
            outcome=outcome,
            malformed=malformed,
        )

    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            records = list(pool.map(ask, questions))
    else:
        records = [ask(question) for question in questions]
    return build_quiz_result(records)


def score(records: Sequence[ReasoningRecord]) -> float:
    """(TP+TN) / (TP+TN+FP+FN) over the given records."""
    if not records:
        raise ValueError("cannot score an empty record list")
    correct = sum(1 for r in records if r.outcome in ("TP", "TN"))
    return correct / len(records)
