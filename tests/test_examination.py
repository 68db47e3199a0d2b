import random
from collections import Counter

import pytest

import rljp.examination as examination
from helpers import LABELS, scripted, transcript_entries
from rljp import rule_init
from rljp.agents import Agent, AgentError, ChatResponse
from rljp.candidates import CharNgramPerceptron
from rljp.config import load_config
from rljp.examination import RuleIndex, examine_case, maybe_abstract
from rljp.fol import consequent_key, consequent_labels, parse_rule
from rljp.pipeline import run_pipeline
from rljp.quiz import derive_rng
from rljp.rule_init import RuleSet


def _ruleset(*rules):
    ruleset = RuleSet()
    for rule in rules:
        ruleset.add(rule)
    return ruleset


def _rule(article, charge=None, term=None, pred="P"):
    if charge is not None:
        text = f"FORALL x ({pred}(x)) -> ARTICLE({article}) CHARGE({charge})"
    elif term is not None:
        text = f"FORALL x ({pred}(x)) -> ARTICLE({article}) TERM({term})"
    else:
        text = f"FORALL x ({pred}(x)) -> ARTICLE({article})"
    return parse_rule(text, rule_id=f"{article}/{charge or term or 'a'}")


def _candidates(article_order, charge_order, term_order):
    return {
        "article": tuple(article_order),
        "charge": tuple(charge_order),
        "prison_term": tuple(term_order),
    }


def _yes(reason="holds"):
    return f"Reasoning: {reason}\nAnswer: YES"


def _no(reason="fails"):
    return f"Reasoning: {reason}\nAnswer: NO"


class TestMaybeAbstract:
    def test_short_fact_unchanged(self):
        text, used = maybe_abstract("short fact", 4000, scripted({}))
        assert text == "short fact" and used is False

    def test_long_fact_abstracted(self):
        agent = scripted({"abstract": "a 500 char abstract"})
        text, used = maybe_abstract("x" * 9000, 4000, agent)
        assert text == "a 500 char abstract" and used is True

    def test_agent_failure_falls_back_to_truncation(self):
        agent = scripted({})  # unscripted tag -> AgentError
        long_fact = "y" * 9000
        text, used = maybe_abstract(long_fact, 4000, agent)
        assert text == long_fact[:4000] and used is True

    def test_overrun_abstract_is_hard_capped(self):
        agent = scripted({"abstract": "z" * 5000})
        text, used = maybe_abstract("x" * 9000, 4000, agent)
        assert len(text) == 4000 and used is True


class TestPredictCase:
    def test_first_candidate_yes_wins_without_further_calls(self):
        rules = _ruleset(
            _rule("264", charge="theft"),
            _rule("263", charge="robbery"),
            _rule("264", term="b0"),
        )
        candidates = _candidates(["264", "263"], ["theft", "robbery"], ["b0", "b1"])
        agent = scripted(
            {
                "exam/c1/article/264": _yes(),
                "exam/c1/charge/theft": _yes(),
                "exam/c1/prison_term/b0": _yes(),
            }
        )
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        assert prediction.article_id == "264"
        assert prediction.charge_id == "theft"
        assert prediction.prison_term_bucket == "b0"
        assert prediction.used_fallback == {
            "article": False, "charge": False, "prison_term": False,
        }
        # the charge check reuses the article's verdict on rule 264/theft
        assert [call.tag for call in agent.backend.calls] == [
            "exam/c1/article/264", "exam/c1/prison_term/b0"
        ]

    def test_candidates_without_rules_are_skipped(self):
        rules = _ruleset(_rule("263", charge="robbery"), _rule("263", term="b1"))
        candidates = _candidates(["264", "263"], ["theft", "robbery"], ["b0", "b1"])
        agent = scripted(
            {
                "exam/c1/article/263": _yes(),
                "exam/c1/charge/robbery": _yes(),
                "exam/c1/prison_term/b1": _yes(),
            }
        )
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        # 264/theft/b0 had no rule: skipped without an agent call
        assert prediction.article_id == "263"
        assert prediction.charge_id == "robbery"
        # the charge check reuses the article's verdict on rule 263/robbery
        assert [call.tag for call in agent.backend.calls] == [
            "exam/c1/article/263", "exam/c1/prison_term/b1"
        ]

    def test_fallback_traversal_finds_ruled_label(self):
        # candidates' rules answer NO; fraud (not a candidate, but ruled
        # under the predicted article) holds: its rule is the first of
        # article 264, so the article check already answered YES for it
        rules = _ruleset(
            _rule("264", charge="fraud"),
            _rule("264", charge="theft"),
            _rule("263", charge="robbery"),
            _rule("264", term="b0"),
        )
        candidates = _candidates(["264"], ["theft", "robbery"], ["b0"])
        agent = scripted(
            {
                "exam/c1/article/264": _yes(),
                "exam/c1/charge/theft": _no(),
                "exam/c1/charge/robbery": _no(),
                "exam/c1/prison_term/b0": _yes(),
            }
        )
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        assert prediction.charge_id == "fraud"
        assert prediction.used_fallback["charge"] is True
        assert prediction.used_fallback["article"] is False
        assert "exam/c1/charge/fraud" not in [call.tag for call in agent.backend.calls]

    def test_everything_no_falls_back_to_top_candidate(self):
        rules = _ruleset(
            _rule("264", charge="theft"),
            _rule("263", charge="robbery"),
            _rule("264", term="b0"),
        )
        candidates = _candidates(["264", "263"], ["theft", "robbery"], ["b0"])
        script = {
            "exam/c1/article/264": _no(),
            "exam/c1/article/263": _no(),
            "exam/c1/charge/theft": _no(),
            "exam/c1/charge/robbery": _no(),
            "exam/c1/prison_term/b0": _no(),
        }
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, scripted(script), seed=0)
        assert prediction.article_id == "264"  # top-1 candidate
        assert prediction.charge_id == "theft"
        assert prediction.used_fallback == {
            "article": True, "charge": True, "prison_term": True,
        }
        assert "no rule satisfied" in prediction.rationale

    def test_agent_failure_treated_as_no(self):
        rules = _ruleset(_rule("264", charge="theft"), _rule("264", term="b0"))
        candidates = _candidates(["264"], ["theft"], ["b0"])
        # only the term check is scripted; article/charge checks fail -> NO
        agent = scripted({"exam/c1/prison_term/b0": _yes()})
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        assert prediction.used_fallback["article"] is True
        assert prediction.prison_term_bucket == "b0"

    def test_reply_without_a_verdict_is_no_and_not_re_asked(self):
        rules = _ruleset(_rule("264", charge="theft"), _rule("264", term="b0"))
        candidates = _candidates(["264"], ["theft"], ["b0"])
        agent = scripted(
            {
                "exam/c1/article/264": "Reasoning: unsure\nAnswer: maybe",
                "exam/c1/charge/theft": _yes(),
                "exam/c1/prison_term/b0": _yes(),
            }
        )
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        assert prediction.used_fallback["article"] is True
        assert [r.tag for r in agent.backend.calls].count("exam/c1/article/264") == 1
        # the failed check is not reused: the charge check on the same rule is sent
        assert prediction.charge_id == "theft"
        assert prediction.used_fallback["charge"] is False

    def test_a_failed_check_is_asked_again_by_the_next_subtask(self):
        rules = _ruleset(_rule("264", charge="theft"), _rule("264", term="b0"))
        candidates = _candidates(["264"], ["theft"], ["b0"])
        # the article check is unscripted -> AgentError; the charge check holds
        agent = scripted(
            {"exam/c1/charge/theft": _yes(), "exam/c1/prison_term/b0": _yes()}
        )
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        assert [call.tag for call in agent.backend.calls] == [
            "exam/c1/article/264", "exam/c1/charge/theft", "exam/c1/prison_term/b0"
        ]
        assert prediction.used_fallback == {
            "article": True, "charge": False, "prison_term": False,
        }
        assert prediction.charge_id == "theft"

    def test_a_repeated_check_reuses_its_verdict_without_a_call(self, tmp_path):
        # the article and charge subtasks both check ArticleCharge rules
        rules = _ruleset(_rule("264", charge="theft"), _rule("264", term="b0"))
        candidates = _candidates(["264"], ["theft"], ["b0"])
        agent = scripted(
            {"exam/c1/article/264": _yes(), "exam/c1/prison_term/b0": _yes()},
            tmp_path / "transcript.jsonl",
        )
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        assert (prediction.article_id, prediction.charge_id) == ("264", "theft")
        assert "charge: rule 264/theft satisfied" in prediction.rationale
        tags = ["exam/c1/article/264", "exam/c1/prison_term/b0"]
        assert [call.tag for call in agent.backend.calls] == tags
        assert [entry["tag"] for entry in transcript_entries(agent.transcript)] == tags
        assert agent.transcript.calls == 2

    def test_article_narrows_charge_rule_pool(self):
        # theft rule exists under 264 and (bogus) under 263; after predicting
        # article 263 the charge check must use the 263 rule
        rule_264 = _rule("264", charge="theft", pred="P264")
        rule_263 = parse_rule(
            "FORALL x (P263(x)) -> ARTICLE(263) CHARGE(theft)", rule_id="bogus/263"
        )
        rules = _ruleset(rule_264, _rule("263", charge="robbery"), rule_263, _rule("263", term="b1"))
        # RuleSet keys by consequent; both theft rules coexist under distinct keys
        candidates = _candidates(["263"], ["theft"], ["b1"])
        agent = scripted(
            {
                "exam/c1/article/263": _yes(),
                "exam/c1/charge/theft": _yes(),
                "exam/c1/prison_term/b1": _yes(),
            }
        )
        prediction = examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        assert prediction.charge_id == "theft"
        charge_call = next(c for c in agent.backend.calls if c.tag == "exam/c1/charge/theft")
        assert "P263" in charge_call.user_text
        assert "P264" not in charge_call.user_text

    def test_determinism_same_seed_same_prediction(self):
        rules = _ruleset(
            _rule("264", charge="theft"),
            _rule("263", charge="robbery"),
            _rule("266", charge="fraud"),
            _rule("234", charge="assault"),
            _rule("264", term="b0"),
        )
        candidates = _candidates(["264"], ["theft"], ["b0"])
        script = {
            "exam/c1/article/264": _yes(),
            "exam/c1/charge/theft": _no(),
            "exam/c1/charge/robbery": _no(),
            "exam/c1/charge/fraud": _no(),
            "exam/c1/charge/assault": _yes(),
            "exam/c1/prison_term/b0": _yes(),
        }
        first = examine_case(
            "c1", "facts", rules, candidates, LABELS, scripted(dict(script)), seed=9
        )
        second = examine_case(
            "c1", "facts", rules, candidates, LABELS, scripted(dict(script)), seed=9
        )
        assert first == second

    def test_call_budget(self):
        # agent calls per subtask <= ruled candidates + ruled remaining labels
        rules = _ruleset(
            _rule("264", charge="theft"),
            _rule("263", charge="robbery"),
            _rule("266", charge="fraud"),
            _rule("264", term="b0"),
        )
        candidates = _candidates(["264", "263"], ["theft", "robbery"], ["b0"])
        script = {
            "exam/c1/article/264": _no(),
            "exam/c1/article/263": _no(),
            "exam/c1/article/266": _no(),
            "exam/c1/charge/theft": _no(),
            "exam/c1/charge/robbery": _no(),
            "exam/c1/charge/fraud": _no(),
            "exam/c1/prison_term/b0": _no(),
        }
        agent = scripted(script)
        examine_case("c1", "facts", rules, candidates, LABELS, agent, seed=0)
        by_subtask = {}
        for call in agent.backend.calls:
            subtask = call.tag.split("/")[2]
            by_subtask[subtask] = by_subtask.get(subtask, 0) + 1
        assert by_subtask["article"] <= 3
        assert by_subtask.get("charge", 0) <= 3
        assert by_subtask["prison_term"] <= 1


class TestExamineCase:
    def test_rules_are_checked_against_the_abstract_of_a_long_fact(self, monkeypatch):
        monkeypatch.setattr(examination, "ABSTRACT_THRESHOLD_DEFAULT", 20)
        rules = _ruleset(_rule("264", charge="theft"), _rule("264", term="b0"))
        candidates = _candidates(["264"], ["theft"], ["b0"])
        agent = scripted(
            {
                "abstract/c1": "short abstract",
                "exam/c1/article/264": _yes(),
                "exam/c1/prison_term/b0": _yes(),
            }
        )
        prediction = examine_case("c1", "x" * 50, rules, candidates, LABELS, agent)
        assert prediction.used_abstract is True
        assert (prediction.article_id, prediction.charge_id) == ("264", "theft")
        checks = [call for call in agent.backend.calls if call.tag.startswith("exam/")]
        assert all("short abstract" in call.user_text for call in checks)
        assert all("x" * 50 not in call.user_text for call in checks)


def _two_loop_predict_subtask(case_id, subtask, ordered, pool, labels, seed, holds):
    """The subtask loop as two loops, the shape it had before: the
    candidates that have a rule in order, then the remaining ruled labels in
    seeded order."""
    for label in ordered:
        rule = pool.get(label)
        if rule is None:
            continue
        if holds(rule, f"exam/{case_id}/{subtask}/{label}"):
            return label, False, f"rule {rule.rule_id} satisfied"
    remaining = [label for label in labels.of(subtask) if label in pool and label not in ordered]
    derive_rng(seed, "fallback", case_id, subtask).shuffle(remaining)
    for label in remaining:
        rule = pool[label]
        if holds(rule, f"exam/{case_id}/{subtask}/{label}"):
            return label, True, f"fallback rule {rule.rule_id} satisfied"
    if not ordered:
        raise ValueError(f"no candidates for subtask {subtask}")
    return ordered[0], True, "no rule satisfied"


class VerdictBackend:
    """Answers each exam tag YES or NO, or fails it, from a fixed table."""

    name = "verdicts"

    def __init__(self, verdicts):
        self.verdicts = verdicts
        self.tags = []

    def send(self, request):
        self.tags.append(request.tag)
        verdict = self.verdicts[request.tag]
        if verdict == "failed":
            raise AgentError("refused")
        return ChatResponse(text=f"Reasoning: scripted\nAnswer: {verdict}", latency_ms=0.0)


class TestOneLoopMatchesTwoLoops:
    @pytest.mark.parametrize("seed", range(40))
    def test_predictions_and_checks_are_equal(self, seed, monkeypatch):
        rng = random.Random(seed)
        rules = _ruleset(
            *(
                _rule(article, **{kind: label}, pred=rng.choice(["P", "Q"]))
                for article in LABELS.articles
                for kind, pool in (("charge", LABELS.charges), ("term", LABELS.prison_terms))
                for label in pool
                if rng.random() < 0.3
            )
        )
        candidates = {
            subtask: tuple(rng.sample(LABELS.of(subtask), rng.randint(1, len(LABELS.of(subtask)))))
            for subtask in ("article", "charge", "prison_term")
        }
        verdicts = {
            f"exam/c{seed}/{subtask}/{label}": rng.choice(["YES", "NO", "failed"])
            for subtask in ("article", "charge", "prison_term")
            for label in LABELS.of(subtask)
        }

        def examine(backend):
            return examine_case(
                f"c{seed}", "facts", rules, candidates, LABELS, Agent(backend), seed=seed
            )

        with monkeypatch.context() as patch:
            patch.setattr(examination, "_predict_subtask", _two_loop_predict_subtask)
            two_loops = VerdictBackend(verdicts)
            want = examine(two_loops)
        one_loop = VerdictBackend(verdicts)
        assert examine(one_loop) == want
        assert one_loop.tags == two_loops.tags


def _walked_rule_pool(rules, subtask, article):
    """The pool as each case built it before the index: one walk over every
    rule, widened to all rules naming the subtask when the article has none."""
    pool, widened = {}, {}
    for rule in rules.rules.values():
        named = consequent_labels(rule.target)
        if subtask not in named:
            continue
        widened.setdefault(named[subtask], rule)
        if article is None or named["article"] == article:
            pool.setdefault(named[subtask], rule)
    return widened if not pool and widened else pool


class TestRuleIndex:
    @pytest.mark.parametrize("seed", range(20))
    def test_every_pool_equals_a_walk_over_the_rules(self, seed):
        rng = random.Random(seed)
        rules = _ruleset(
            *(
                _rule(article, **{kind: label}, pred=rng.choice(["P", "Q"]))
                for article in LABELS.articles[:3]  # the fourth article has no rule
                for kind, pool in (("charge", LABELS.charges), ("term", LABELS.prison_terms))
                for label in pool
                if rng.random() < 0.4
            )
        )
        index = RuleIndex(rules)
        for subtask in ("article", "charge", "prison_term"):
            for article in (None, *LABELS.articles):
                want = _walked_rule_pool(rules, subtask, article)
                assert list(index.pool(subtask, article).items()) == list(want.items()), (
                    subtask, article,
                )
            # an article without rules widens the pool to every rule naming the subtask
            assert index.pool(subtask, LABELS.articles[3]) == index.pool(subtask, None)
        for rule in rules.rules.values():
            assert index.texts[rule.target] == examination.render_rule(rule)

    def test_a_pool_widens_only_to_rules_naming_its_subtask(self):
        index = RuleIndex(_ruleset(_rule("264", charge="theft")))
        assert index.pool("prison_term", None) == index.pool("prison_term", "264") == {}
        assert index.pool("charge", "263") == {"theft": _rule("264", charge="theft")}


def test_a_fixture_examine_renders_each_rule_once(fixture_config_path, tmp_path, monkeypatch):
    config = load_config(fixture_config_path)
    run_dir = tmp_path / "run"
    run_pipeline(config, run_dir, last_stage="train-candidates")
    rendered = Counter()
    render_rule = examination.render_rule

    def counted_render_rule(rule):
        rendered[consequent_key(rule.target)] += 1
        return render_rule(rule)

    monkeypatch.setattr(examination, "render_rule", counted_render_rule)
    top_labels = CharNgramPerceptron.top_labels

    def best_last(provider, fact_texts, k):
        # the prescreener ranks most gold labels first, so reversed they are
        # checked after every other candidate that has a rule
        return [
            {subtask: ordered[::-1] for subtask, ordered in ranked.items()}
            for ranked in top_labels(provider, fact_texts, k)
        ]

    monkeypatch.setattr(CharNgramPerceptron, "top_labels", best_last)
    run_pipeline(config, run_dir, resume=True)
    rules = rule_init.load_ruleset(run_dir / "rules_optimized.json").rules
    assert set(rendered) == set(rules) and max(rendered.values()) == 1
    checks = (run_dir / "transcript.jsonl").read_text(encoding="utf-8").count('{"tag": "exam/')
    assert checks > len(rules)  # so a render per check would have rendered a rule twice
