import random

import pytest

from helpers import LABELS, make_case, scripted
from rljp.agents import fan_out
from rljp.confusable import ConfusableSet
import rljp.quiz as quiz_mod
from rljp.fol import ArticleCharge, parse_rule, render_consequent
from rljp.quiz import (
    QuizQuestion,
    QuizResult,
    ReasoningRecord,
    classify_outcome,
    make_quiz,
    parse_quiz_answer,
    run_quiz,
)

TARGET = ArticleCharge("264", "theft")
TARGET_TEXT = "ARTICLE(264) CHARGE(theft)"


def _confusable():
    positives = [make_case("p1", "stole a phone"), make_case("p2", "stole a wallet")]
    negatives = [make_case("n1", "took by force", "263", "robbery")]
    return ConfusableSet(
        target=TARGET,
        positives=tuple(positives),
        negatives=tuple(negatives),
        negative_similarity={"n1": 0.9},
    )


def _question(is_positive=True, letters=("A", "B", "C", "D")):
    options = tuple(
        zip(letters, [TARGET_TEXT, "ARTICLE(263) CHARGE(robbery)",
                      "ARTICLE(266) CHARGE(fraud)", "ARTICLE(234) CHARGE(assault)"])
    )
    return QuizQuestion(
        case_id="q1",
        fact_text="facts",
        options=options,
        correct_letter="A" if is_positive else "B",
        target_letter="A",
        is_positive=is_positive,
    )


class TestMakeQuiz:
    def test_one_question_per_case_positives_first(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        assert [q.case_id for q in questions] == ["p1", "p2", "n1"]
        assert [q.is_positive for q in questions] == [True, True, False]

    def test_positive_gold_equals_target(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        q = questions[0]
        assert q.correct_letter == q.target_letter
        assert q.option_label(q.target_letter) == TARGET_TEXT
        assert len(q.options) == 4

    def test_negative_has_target_and_gold_distinct(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        q = questions[-1]
        assert q.correct_letter != q.target_letter
        assert q.option_label(q.correct_letter) == "ARTICLE(263) CHARGE(robbery)"
        assert q.option_label(q.target_letter) == TARGET_TEXT
        assert q.similarity == pytest.approx(0.9)

    def test_same_seed_identical_orderings(self):
        first = make_quiz(_confusable(), LABELS, num_options=4, seed=42)
        second = make_quiz(_confusable(), LABELS, num_options=4, seed=42)
        assert [q.options for q in first] == [q.options for q in second]

    def test_different_seed_differs_somewhere(self):
        first = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        second = make_quiz(_confusable(), LABELS, num_options=4, seed=2)
        assert [q.options for q in first] != [q.options for q in second]

    def test_insufficient_labels_error(self):
        from rljp.corpus import LabelSpace

        tiny = LabelSpace(("264",), ("theft",), ("b0",))
        with pytest.raises(Exception, match="distractors"):
            make_quiz(_confusable(), tiny, num_options=4, seed=1)

    @pytest.mark.parametrize("num_options", [1, 27])
    def test_option_count_outside_the_letters_is_rejected(self, num_options):
        from rljp.corpus import LabelSpace

        # 6 x 5 article-charge labels: enough distractors for 27 options
        wide = LabelSpace(tuple(map(str, range(260, 266))), tuple("vwxyz"), ("b0",))
        with pytest.raises(quiz_mod.QuizBuildError, match="A-Z"):
            make_quiz(_confusable(), wide, num_options=num_options, seed=1)

    def test_label_universe_is_rendered_once(self, monkeypatch):
        calls = []

        def counting_render(consequent):
            calls.append(consequent)
            return render_consequent(consequent)

        monkeypatch.setattr(quiz_mod, "render_consequent", counting_render)
        confusable = ConfusableSet(
            target=TARGET,
            positives=tuple(make_case(f"p{i}", f"stole item {i}") for i in range(4)),
            negatives=tuple(
                make_case(f"n{i}", f"took item {i} by force", "263", "robbery")
                for i in range(4)
            ),
            negative_similarity={},
        )
        questions = make_quiz(confusable, LABELS, num_options=4, seed=1)
        universe, rendered = len(LABELS.articles) * len(LABELS.charges), len(calls)
        assert len(questions) == 8
        assert 0 < rendered <= universe + 2 * len(questions) + 1


class TestClassifyOutcome:
    def test_positive_picks_target(self):
        assert classify_outcome(_question(True), "A") == "TP"

    def test_positive_misses_target(self):
        assert classify_outcome(_question(True), "B") == "FN"

    def test_negative_picks_target(self):
        assert classify_outcome(_question(False), "A") == "FP"

    def test_negative_picks_non_target(self):
        assert classify_outcome(_question(False), "C") == "TN"

    def test_malformed_counts_against_rule(self):
        assert classify_outcome(_question(True), None) == "FN"
        assert classify_outcome(_question(False), None) == "FP"
        assert classify_outcome(_question(False), "Z") == "FP"


class TestRunQuiz:
    RULE = parse_rule("FORALL x (Theft(x)) -> ARTICLE(264) CHARGE(theft)")

    def test_score_two_of_three(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        # answer correctly for p1, p2; target (wrong) for n1 -> 2/3
        script = {}
        for q in questions:
            letter = q.correct_letter if q.is_positive else q.target_letter
            script[f"quiz/{q.case_id}"] = f"Reasoning: because\nAnswer: {letter}"
        result = run_quiz(self.RULE, questions, scripted(script))
        assert (
            result.count("TP") == 2 and result.count("FP") == 1
            and result.count("TN") == 0 and result.count("FN") == 0
        )
        assert result.score == pytest.approx(2 / 3)

    def test_all_correct_scores_one(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        script = {
            f"quiz/{q.case_id}": f"Reasoning: r\nAnswer: {q.correct_letter}"
            for q in questions
        }
        result = run_quiz(self.RULE, questions, scripted(script))
        assert result.score == 1.0

    def test_garbage_then_letter_triggers_reask(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        script = {
            f"quiz/{q.case_id}": [
                "utter nonsense",
                f"Reasoning: second try\nAnswer: {q.correct_letter}",
            ]
            for q in questions
        }
        agent = scripted(script)
        result = run_quiz(self.RULE, questions, agent)
        assert result.score == 1.0
        assert not any(r.malformed for r in result.records)
        assert agent.transcript.calls == 2 * len(questions)

    def test_garbage_twice_yields_malformed_record(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        script = {
            f"quiz/{q.case_id}": ["nonsense", "still nonsense"] for q in questions
        }
        result = run_quiz(self.RULE, questions, scripted(script))
        assert all(r.malformed for r in result.records)
        # malformed counts against: FN on positives, FP on negatives
        assert result.count("FN") == 2 and result.count("FP") == 1 and result.score == 0.0

    def test_malformed_record_keeps_the_last_reply(self):
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        script = {
            f"quiz/{q.case_id}": ["nonsense", "Reasoning: a guess\nAnswer: Z"] for q in questions
        }
        result = run_quiz(self.RULE, questions, scripted(script))
        assert all(r.malformed for r in result.records)
        assert {(r.predicted_letter, r.reasoning_text) for r in result.records} == {
            ("Z", "a guess")
        }

    def test_records_in_question_order_with_concurrency(self):
        # quizzes run side by side under fan_out, one per target
        questions = make_quiz(_confusable(), LABELS, num_options=4, seed=1)
        prefixes = [f"quiz/t{i}" for i in range(6)]
        agent = scripted(
            {
                f"{prefix}/{q.case_id}": f"Reasoning: r\nAnswer: {q.correct_letter}"
                for prefix in prefixes
                for q in questions
            }
        )
        results = fan_out(
            lambda prefix, target_agent: run_quiz(
                self.RULE, questions, target_agent, tag_prefix=prefix
            ),
            prefixes,
            agent,
            4,
        )
        for result in results:
            assert [r.question.case_id for r in result.records] == ["p1", "p2", "n1"]


class TestScore:
    def test_formula(self):
        records = (
            [_record("TP")] * 8 + [_record("TN")] * 7 + [_record("FP")] * 3 + [_record("FN")] * 2
        )
        assert QuizResult(tuple(records)).score == pytest.approx(0.75)

    def test_all_wrong(self):
        assert QuizResult((_record("FP"), _record("FN"))).score == 0.0

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            QuizResult(()).score

    def test_matches_recount_oracle_on_random_lists(self):
        rng = random.Random(8)
        for _ in range(25):
            outcomes = [rng.choice(["TP", "TN", "FP", "FN"]) for _ in range(rng.randint(1, 40))]
            records = [_record(outcome) for outcome in outcomes]
            want = sum(1 for o in outcomes if o in ("TP", "TN")) / len(outcomes)
            result = QuizResult(tuple(records))
            assert result.score == pytest.approx(want)
            assert sum(result.count(o) for o in ("TP", "TN", "FP", "FN")) == len(records)


class TestParseAnswer:
    def test_parse_reasoning_and_letter(self):
        letter, reasoning = parse_quiz_answer("Reasoning: the rule fires\nAnswer: C")
        assert letter == "C" and reasoning == "the rule fires"

    def test_last_answer_wins(self):
        letter, _ = parse_quiz_answer("Answer: A\nwait no\nAnswer: B")
        assert letter == "B"

    def test_missing_answer(self):
        letter, reasoning = parse_quiz_answer("no structure at all")
        assert letter is None and reasoning == "no structure at all"


def _record(outcome):
    is_positive = outcome in ("TP", "FN")
    question = _question(is_positive)
    predicted = {
        "TP": question.target_letter,
        "FN": "C",
        "FP": question.target_letter,
        "TN": "C",
    }[outcome]
    return ReasoningRecord(
        question=question,
        reasoning_text="r",
        predicted_letter=predicted,
        outcome=outcome,
    )
