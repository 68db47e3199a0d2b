import dataclasses
import random
import re

import pytest

from helpers import LABELS, scripted
from rljp.cacl import (
    FACT_TRUNCATE_DEFAULT,
    MAX_RECORDS_PER_SIDE_DEFAULT,
    CaclError,
    apply_direction,
    derive_direction,
    extract_rule_text,
    optimize_rule,
)
from rljp.fol import ArticleCharge, parse_rule, render_rule
from rljp.quiz import QuizResult
from test_quiz import _record

RULE = parse_rule(
    "FORALL x (Theft(x)) -> ARTICLE(264) CHARGE(theft)",
    rule_id="article=264,charge=theft/0/0",
)


def _result(outcomes):
    return QuizResult(tuple(_record(o) for o in outcomes))


def _outcomes_in(prompt):
    return re.findall(r"\[(TP|TN|FP|FN)\]", prompt)


ANALYSES = {
    "cacl/keep": "keeps",
    "cacl/improve": "improves",
    "cacl/synthesize": "KEEP: a\nIMPROVE: b",
}


class TestContrastSides:
    """derive_direction splits the quiz records into the triplet's correct
    (TP/TN) and incorrect (FP/FN) sides around the anchor rule."""

    def test_partition(self):
        agent = scripted(ANALYSES)
        derive_direction(RULE, _result(["TP", "FP", "TN", "FN"]), agent)
        keep_prompt, improve_prompt = (call.user_text for call in agent.backend.calls[:2])
        assert _outcomes_in(keep_prompt) == ["TP", "TN"]
        assert sorted(_outcomes_in(improve_prompt)) == ["FN", "FP"]
        assert len(_outcomes_in(keep_prompt)) + len(_outcomes_in(improve_prompt)) == 4

    def test_all_correct_leaves_negatives_empty(self):
        agent = scripted(ANALYSES)
        _, improve = derive_direction(RULE, _result(["TP", "TN", "TP"]), agent)
        assert [call.tag for call in agent.backend.calls] == ["cacl/keep", "cacl/synthesize"]
        assert improve == "none identified"

    def test_anchor_is_the_rule(self):
        agent = scripted(ANALYSES)
        derive_direction(RULE, _result(["TP"]), agent)
        assert f"Current rule:\n{render_rule(RULE)}\n" in agent.backend.calls[0].user_text


class TestDeriveDirection:
    def test_three_call_transcript(self):
        agent = scripted(
            {
                "cacl/keep": "the theft predicate works",
                "cacl/improve": "it fires on robbery too",
                "cacl/synthesize": "KEEP: theft predicate\nIMPROVE: add force exclusion",
            }
        )
        keep, improve = derive_direction(RULE, _result(["TP", "FP"]), agent)
        assert keep == "theft predicate"
        assert improve == "add force exclusion"
        assert len(agent.backend.calls) == 3

    def test_empty_negatives_skips_improve_call(self):
        agent = scripted(
            {
                "cacl/keep": "all good",
                "cacl/synthesize": "KEEP: everything\nIMPROVE: nothing obvious",
            }
        )
        _, improve = derive_direction(RULE, _result(["TP", "TN"]), agent)
        assert len(agent.backend.calls) == 2
        assert improve == "none identified"

    def test_garbage_synthesis_twice_errors(self):
        agent = scripted(
            {
                "cacl/keep": "k",
                "cacl/improve": "i",
                "cacl/synthesize": ["garbage", "more garbage"],
            }
        )
        with pytest.raises(CaclError, match="unparsable"):
            derive_direction(RULE, _result(["TP", "FP"]), agent)

    def test_improve_prompt_quotes_the_most_similar_records_with_cut_facts(self):
        similarities = [i / 100 for i in range(25)]
        random.Random(3).shuffle(similarities)
        records = []
        for i, similarity in enumerate(similarities):
            record = _record("FP")
            question = dataclasses.replace(
                record.question,
                case_id=f"n{i:02d}",
                fact_text=f"fact {i:02d} " + "y" * 1492,
                similarity=similarity,
            )
            records.append(dataclasses.replace(record, question=question))
        assert all(len(r.question.fact_text) == 1500 for r in records)
        agent = scripted({"cacl/improve": "improves", "cacl/synthesize": "IMPROVE: b"})
        derive_direction(RULE, QuizResult(tuple(records)), agent)
        prompt = agent.backend.calls[0].user_text
        by_similarity = sorted(records, key=lambda r: -r.question.similarity)
        quoted = re.findall(r"Question \((n\d\d)\):\nFact: (.*)\n", prompt)
        assert len(quoted) == MAX_RECORDS_PER_SIDE_DEFAULT == 20
        assert [case_id for case_id, _ in quoted] == [
            r.question.case_id for r in by_similarity[:20]
        ]
        assert [fact for _, fact in quoted] == [
            r.question.fact_text[:FACT_TRUNCATE_DEFAULT] for r in by_similarity[:20]
        ]
        assert FACT_TRUNCATE_DEFAULT == 1200

    def test_empty_triplet_rejected(self):
        empty = QuizResult(records=())
        with pytest.raises(CaclError):
            derive_direction(RULE, empty, scripted({}))


class TestApplyDirection:
    DIRECTION = ("theft predicate", "add not-force")

    def test_valid_rewrite_becomes_child(self):
        agent = scripted(
            {
                "cacl/rewrite": "RULE: FORALL x ((Theft(x) AND NOT UsedForce(x))) "
                "-> ARTICLE(264) CHARGE(theft)"
            }
        )
        child = apply_direction(
            RULE, *self.DIRECTION, agent, LABELS, child_rule_id="article=264,charge=theft/1/1"
        )
        assert child.version == RULE.version + 1
        assert child.target == RULE.target
        assert child.provenance.kind == "optimized"
        assert child.provenance.parent_rule_id == RULE.rule_id

    def test_consequent_drift_triggers_repair(self):
        agent = scripted(
            {
                "cacl/rewrite": [
                    "RULE: FORALL x (Theft(x)) -> ARTICLE(266) CHARGE(theft)",
                    "RULE: FORALL x (Theft(x)) -> ARTICLE(264) CHARGE(theft)",
                ]
            }
        )
        child = apply_direction(RULE, *self.DIRECTION, agent, LABELS, child_rule_id="c1")
        assert child.target == ArticleCharge("264", "theft")
        assert agent.transcript.calls == 2
        assert "consequent changed" in agent.backend.calls[1].user_text

    def test_two_invalid_then_valid_is_three_calls(self):
        agent = scripted(
            {
                "cacl/rewrite": [
                    "RULE: FORALL x Theft(x -> ARTICLE(264) CHARGE(theft)",
                    "RULE: FORALL x (Theft(y)) -> ARTICLE(264) CHARGE(theft)",
                    "RULE: FORALL x (Theft(x)) -> ARTICLE(264) CHARGE(theft)",
                ]
            }
        )
        child = apply_direction(RULE, *self.DIRECTION, agent, LABELS, child_rule_id="c1")
        assert len(agent.backend.calls) == 3
        assert render_rule(child) == "FORALL x (Theft(x)) -> ARTICLE(264) CHARGE(theft)"

    def test_exhausted_repairs_error(self):
        agent = scripted(
            {"cacl/rewrite": ["bad"] * 3}
        )
        with pytest.raises(CaclError, match="rewrite failed"):
            apply_direction(RULE, *self.DIRECTION, agent, LABELS, child_rule_id="c1")


class TestOptimizeRule:
    def test_full_step(self):
        agent = scripted(
            {
                "cacl/keep": "keeps",
                "cacl/improve": "improves",
                "cacl/synthesize": "KEEP: a\nIMPROVE: b",
                "cacl/rewrite": "RULE: FORALL x ((Theft(x) AND NOT UsedForce(x))) "
                "-> ARTICLE(264) CHARGE(theft)",
            }
        )
        child = optimize_rule(
            RULE, _result(["TP", "FP"]), agent, LABELS, child_rule_id="c9"
        )
        assert child.rule_id == "c9"
        assert child.version == 1


class TestExtractRuleText:
    def test_rule_line(self):
        assert extract_rule_text("chatter\nRULE: (P()) -> ARTICLE(1)\n") == "(P()) -> ARTICLE(1)"

    def test_bare_text_fallback(self):
        assert extract_rule_text("(P()) -> ARTICLE(1)") == "(P()) -> ARTICLE(1)"

    def test_empty(self):
        assert extract_rule_text("   \n ") == ""
