import pytest

from helpers import LABELS, make_case
from rljp.agents import ScriptedBackend, Transcript
from rljp.fol import ArticleCharge, ArticleTerm, consequent_key
from rljp.rule_init import (
    CircumstanceFactors,
    InitError,
    define_symbols,
    init_all_rules,
    init_rule_for_target,
    summarize_circumstances,
)

TARGET = ArticleCharge("264", "theft")
KEY = consequent_key(TARGET)

SIX_LINES = (
    "SUBJECT: adult offender\n"
    "VICTIM: shop owner\n"
    "TIME_LOCATION: night, commercial district\n"
    "BEHAVIOR: taking property covertly\n"
    "CONSEQUENCES: property loss\n"
    "MENTAL_STATE: intentional"
)

SYMBOLS_OK = (
    "VAR x: the case\n"
    "PRED Theft/1: took property covertly\n"
    "PRED ValueLarge/1: value above threshold\n"
    "QUANT x: FORALL"
)

RULE_OK = "RULE: FORALL x ((Theft(x) AND ValueLarge(x))) -> ARTICLE(264) CHARGE(theft)"

PRECEDENTS = [make_case(f"p{i}", f"precedent facts {i}") for i in range(3)]


class TestSummarize:
    def test_six_labeled_lines(self):
        backend = ScriptedBackend({f"init/summarize/{KEY}": SIX_LINES})
        factors = summarize_circumstances(PRECEDENTS, TARGET, backend)
        assert factors.subject_category == "adult offender"
        assert factors.mental_state == "intentional"

    def test_missing_victim_line_becomes_unspecified(self):
        partial = "\n".join(
            line for line in SIX_LINES.splitlines() if not line.startswith("VICTIM")
        )
        backend = ScriptedBackend({f"init/summarize/{KEY}": partial})
        factors = summarize_circumstances(PRECEDENTS, TARGET, backend)
        assert factors.victim_category == "unspecified"
        assert factors.behavior == "taking property covertly"

    def test_empty_precedents_rejected(self):
        with pytest.raises(InitError):
            summarize_circumstances([], TARGET, ScriptedBackend({}))


class TestDefineSymbols:
    FACTORS = CircumstanceFactors(behavior="taking property")

    def test_parses_table(self):
        backend = ScriptedBackend({f"init/symbols/{KEY}": SYMBOLS_OK})
        table = define_symbols(self.FACTORS, TARGET, backend)
        assert len(table.predicates) == 2
        assert len(table.variables) == 1
        assert table.quantifiers == {"x": "FORALL"}

    def test_duplicate_name_triggers_one_repair(self):
        duplicated = "VAR x: a\nPRED x/1: conflicts with the variable"
        backend = ScriptedBackend(
            {f"init/symbols/{KEY}": [duplicated, SYMBOLS_OK]}
        )
        table = define_symbols(self.FACTORS, TARGET, backend)
        assert len(backend.calls) == 2
        assert "duplicate symbol name" in backend.calls[1].user_text
        assert len(table.predicates) == 2

    def test_empty_reply_three_times_errors(self):
        backend = ScriptedBackend({f"init/symbols/{KEY}": ["", "", ""]})
        with pytest.raises(InitError, match="symbol definition failed"):
            define_symbols(self.FACTORS, TARGET, backend)


class TestInitRuleForTarget:
    def _script(self, rule_entries):
        return {
            f"init/summarize/{KEY}": SIX_LINES,
            f"init/symbols/{KEY}": SYMBOLS_OK,
            f"init/rule/{KEY}": rule_entries,
        }

    def test_three_step_transcript_yields_version_zero(self):
        backend = ScriptedBackend(self._script(RULE_OK))
        transcript = Transcript()
        rule = init_rule_for_target(
            TARGET, PRECEDENTS, backend, LABELS, transcript=transcript
        )
        assert rule.version == 0
        assert rule.provenance.kind == "initialized"
        assert rule.target == TARGET
        assert len(transcript) == 3

    def test_invalid_then_valid_is_four_calls(self):
        backend = ScriptedBackend(
            self._script(["RULE: FORALL x Theft(x) -> ARTICLE(264)", RULE_OK])
        )
        transcript = Transcript()
        rule = init_rule_for_target(
            TARGET, PRECEDENTS, backend, LABELS, transcript=transcript
        )
        assert rule.version == 0
        assert len(transcript) == 4

    def test_term_target_keeps_term_consequent(self):
        target = ArticleTerm("264", "b1")
        key = consequent_key(target)
        backend = ScriptedBackend(
            {
                f"init/summarize/{key}": SIX_LINES,
                f"init/symbols/{key}": SYMBOLS_OK,
                f"init/rule/{key}": "RULE: FORALL x (Theft(x)) -> ARTICLE(264) TERM(b1)",
            }
        )
        rule = init_rule_for_target(target, PRECEDENTS, backend, LABELS)
        assert rule.target == target

    def test_unrecoverable_failure_raises(self):
        backend = ScriptedBackend(self._script(["bad", "bad", "bad"]))
        with pytest.raises(InitError, match="rule construction failed"):
            init_rule_for_target(TARGET, PRECEDENTS, backend, LABELS)


class TestInitAllRules:
    def _groups(self):
        return {
            ArticleCharge("264", "theft"): [make_case("a", "theft facts")],
            ArticleCharge("263", "robbery"): [make_case("b", "robbery facts", "263", "robbery")],
            ArticleCharge("266", "fraud"): [make_case("c", "fraud facts", "266", "fraud")],
        }

    def _target(self, article, charge):
        return ArticleCharge(article, charge)

    def test_all_targets_scripted_success(self):
        targets = [
            self._target("264", "theft"),
            self._target("263", "robbery"),
            self._target("266", "fraud"),
        ]
        script = {}
        for target in targets:
            key = consequent_key(target)
            rule = (
                f"RULE: FORALL x (Theft(x)) -> "
                f"ARTICLE({target.article_id}) CHARGE({target.charge_id})"
            )
            script[f"init/summarize/{key}"] = SIX_LINES
            script[f"init/symbols/{key}"] = SYMBOLS_OK
            script[f"init/rule/{key}"] = rule
        ruleset = init_all_rules(self._groups(), targets, ScriptedBackend(script), LABELS)
        assert len(ruleset.rules) == 3
        assert ruleset.failures == {}

    def test_one_failure_is_reported_not_fatal(self):
        targets = [self._target("264", "theft"), self._target("263", "robbery")]
        script = {}
        for target in targets:
            key = consequent_key(target)
            script[f"init/summarize/{key}"] = SIX_LINES
            script[f"init/symbols/{key}"] = SYMBOLS_OK
        script[f"init/rule/{consequent_key(targets[0])}"] = RULE_OK
        script[f"init/rule/{consequent_key(targets[1])}"] = ["bad", "bad", "bad"]
        ruleset = init_all_rules(self._groups(), targets, ScriptedBackend(script), LABELS)
        assert len(ruleset.rules) == 1
        assert list(ruleset.failures) == [consequent_key(targets[1])]

    def test_zero_precedents_skipped_with_report(self):
        targets = [self._target("234", "assault")]
        ruleset = init_all_rules(self._groups(), targets, ScriptedBackend({}), LABELS)
        assert ruleset.rules == {}
        assert ruleset.failures == {consequent_key(targets[0]): "no precedents"}

    def test_initialized_rules_validate(self):
        targets = [self._target("264", "theft")]
        script = {
            f"init/summarize/{KEY}": SIX_LINES,
            f"init/symbols/{KEY}": SYMBOLS_OK,
            f"init/rule/{KEY}": RULE_OK,
        }
        ruleset = init_all_rules(self._groups(), targets, ScriptedBackend(script), LABELS)
        from rljp.fol import validate_rule

        for rule in ruleset.rules.values():
            assert validate_rule(rule, LABELS) == []

    def test_temperature_reaches_every_init_call(self):
        targets = [self._target("264", "theft")]
        script = {
            f"init/summarize/{KEY}": SIX_LINES,
            f"init/symbols/{KEY}": SYMBOLS_OK,
            f"init/rule/{KEY}": RULE_OK,
        }
        backend = ScriptedBackend(script)
        init_all_rules(self._groups(), targets, backend, LABELS, temperature=0.2)
        assert len(backend.calls) == 3
        assert [call.temperature for call in backend.calls] == [0.2] * 3
