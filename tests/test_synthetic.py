import pytest

from rljp.agents import AgentError, ChatRequest
from rljp.corpus import load_cases, load_label_space
from rljp.fol import ArticleCharge, ArticleTerm, parse_rule
from rljp.synthetic import (
    OracleAgent,
    SyntheticWorld,
    antecedent_holds,
    build_world,
    generate_corpus,
    write_corpus,
)


class TestWorld:
    def test_twelve_charges_ten_buckets(self):
        world = build_world()
        assert len(world.profiles) == 12
        assert len({p.article for p in world.profiles}) == 12
        assert len({p.term_bucket for p in world.profiles}) == 10

    def test_pairs_share_coarse_and_differ_fine(self):
        world = build_world()
        for i in range(0, 12, 2):
            a, b = world.profiles[i], world.profiles[i + 1]
            assert a.coarse_phrase == b.coarse_phrase
            assert a.fine_phrase != b.fine_phrase

    def test_round_trip_serialization(self, tmp_path):
        world = build_world()
        world.save(tmp_path / "world.json")
        loaded = SyntheticWorld.load(tmp_path / "world.json")
        assert loaded == world

    def test_refined_rule_is_strictly_stronger(self):
        world = build_world()
        target = ArticleCharge("264", "theft")
        root = parse_rule(world.root_rule_text(target))
        refined = parse_rule(world.refined_rule_text(target))
        rows, _, _ = generate_corpus(24, seed=3)
        phrases = world.predicate_phrases
        for row in rows:
            fact = row["fact"]
            holds_root = antecedent_holds(root.antecedent, fact, phrases)
            holds_refined = antecedent_holds(refined.antecedent, fact, phrases)
            if row["meta"]["accusation"] == ["theft"]:
                assert holds_root and holds_refined
            elif row["meta"]["accusation"] == ["robbery"]:
                assert holds_root and not holds_refined
            else:
                assert not holds_refined


class TestCorpusGeneration:
    def test_deterministic(self):
        first, _, _ = generate_corpus(60, seed=3)
        second, _, _ = generate_corpus(60, seed=3)
        assert first == second

    def test_written_corpus_loads_cleanly(self, tmp_path):
        write_corpus(tmp_path, num_cases=60, seed=3)
        cases = load_cases(tmp_path / "cases.jsonl")
        assert len(cases) == 60
        labels = load_label_space(tmp_path / "labels.json")
        assert len(labels.articles) == 12
        assert len(labels.prison_terms) == 10
        assert all(c.judgment is not None for c in cases)


class TestAntecedentHolds:
    WORLD = build_world()

    def test_and_or_not(self):
        phrases = {"A": "alpha", "B": "beta"}
        rule = parse_rule("FORALL x ((A(x) AND NOT B(x))) -> ARTICLE(1) CHARGE(c)")
        assert antecedent_holds(rule.antecedent, "has alpha only", phrases)
        assert not antecedent_holds(rule.antecedent, "alpha and beta", phrases)
        rule_or = parse_rule("(A() OR B()) -> ARTICLE(1) CHARGE(c)")
        assert antecedent_holds(rule_or.antecedent, "just beta", phrases)

    def test_unknown_predicate_is_false(self):
        rule = parse_rule("(Mystery()) -> ARTICLE(1) CHARGE(c)")
        assert not antecedent_holds(rule.antecedent, "anything", {})


class TestOracleAgent:
    WORLD = build_world()

    def _send(self, tag, text):
        agent = OracleAgent(self.WORLD)
        return agent.send(
            ChatRequest(system_text="s", user_text=text, tag=tag)
        ).text

    def test_quiz_answer_picks_target_when_rule_fires(self):
        fact = "the defendant took property belonging to another person quietly"
        prompt = (
            "Apply this judgment rule.\n\n"
            "Rule:\nFORALL x (TookProperty(x)) -> ARTICLE(264) CHARGE(theft)\n\n"
            f"Case facts:\n{fact}\n\n"
            "Options:\nA) ARTICLE(263) CHARGE(robbery)\nB) ARTICLE(264) CHARGE(theft)\n\n"
            "Reply exactly in this format:\nReasoning: r\nAnswer: <letter>"
        )
        reply = self._send("quiz/x/p1", prompt)
        assert reply.endswith("Answer: B")

    def test_quiz_answer_avoids_target_when_rule_fails(self):
        prompt = (
            "Apply this judgment rule.\n\n"
            "Rule:\nFORALL x (TookProperty(x)) -> ARTICLE(264) CHARGE(theft)\n\n"
            "Case facts:\nthe defendant attacked the victim physically\n\n"
            "Options:\nA) ARTICLE(264) CHARGE(theft)\nB) ARTICLE(232) CHARGE(homicide)\n\n"
            "Reply exactly in this format:\nReasoning: r\nAnswer: <letter>"
        )
        reply = self._send("quiz/x/p1", prompt)
        assert reply.endswith("Answer: B")

    def test_exam_yes_no(self):
        yes_prompt = (
            "Judgment rule:\nFORALL x (HeldNarcotics(x)) -> ARTICLE(348) CHARGE(drugs)\n\n"
            "Case facts:\nthe defendant held illegal narcotics at home\n\n"
            "Reply exactly in this format:\nReasoning: r\nAnswer: YES or NO"
        )
        assert self._send("exam/c/article/348", yes_prompt).endswith("Answer: YES")
        no_prompt = yes_prompt.replace("held illegal narcotics at home", "sold vegetables")
        assert self._send("exam/c/article/348", no_prompt).endswith("Answer: NO")

    def test_rule_emission_matches_world(self):
        prompt = (
            "Construct one judgment rule for ARTICLE(264) CHARGE(theft).\n"
            "The consequent must be exactly: ARTICLE(264) CHARGE(theft)\n"
        )
        reply = self._send("init/rule/article=264,charge=theft", prompt)
        assert reply == "RULE: " + self.WORLD.root_rule_text(ArticleCharge("264", "theft"))
        rewrite = self._send("cacl/article=264,charge=theft/rewrite", prompt)
        assert rewrite == "RULE: " + self.WORLD.refined_rule_text(
            ArticleCharge("264", "theft")
        )

    def test_term_target_rules_resolve_by_article(self):
        target = ArticleTerm("348", "7y_10y")
        text = self.WORLD.root_rule_text(target)
        rule = parse_rule(text)
        assert rule.target == target

    def test_unknown_tag_errors(self):
        with pytest.raises(AgentError):
            self._send("mystery/tag", "hello")

    def test_replies_are_pure_functions_of_request(self):
        prompt = (
            "Judgment rule:\nFORALL x (CausedFire(x)) -> ARTICLE(114) CHARGE(arson)\n\n"
            "Case facts:\ncaused a destructive fire at the premises\n\n"
            "Answer: YES or NO"
        )
        assert self._send("exam/a/article/114", prompt) == self._send(
            "exam/a/article/114", prompt
        )
