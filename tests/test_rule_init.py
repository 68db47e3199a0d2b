import pytest

from helpers import LABELS, make_case, scripted
from rljp.fol import ArticleCharge, ArticleTerm, consequent_key
from rljp.rule_init import (
    InitError,
    _parse_symbols,
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
        agent = scripted({f"init/summarize/{KEY}": SIX_LINES})
        factors = summarize_circumstances(PRECEDENTS, TARGET, agent).splitlines()
        assert factors[0] == "SUBJECT: adult offender"
        assert factors[5] == "MENTAL_STATE: intentional"

    def test_missing_victim_line_becomes_unspecified(self):
        partial = "\n".join(
            line for line in SIX_LINES.splitlines() if not line.startswith("VICTIM")
        )
        agent = scripted({f"init/summarize/{KEY}": partial})
        factors = summarize_circumstances(PRECEDENTS, TARGET, agent).splitlines()
        assert factors[1] == "VICTIM: unspecified"
        assert factors[3] == "BEHAVIOR: taking property covertly"

    def test_empty_precedents_rejected(self):
        with pytest.raises(InitError):
            summarize_circumstances([], TARGET, scripted({}))


class TestDefineSymbols:
    FACTORS = (
        "SUBJECT: unspecified\nVICTIM: unspecified\nTIME_LOCATION: unspecified\n"
        "BEHAVIOR: taking property\nCONSEQUENCES: unspecified\nMENTAL_STATE: unspecified"
    )

    @staticmethod
    def _kinds(table):
        return [line.split()[0] for line in table.splitlines()]

    def test_parses_table(self):
        agent = scripted({f"init/symbols/{KEY}": SYMBOLS_OK})
        table = define_symbols(self.FACTORS, TARGET, agent)
        assert self._kinds(table).count("PRED") == 2
        assert self._kinds(table).count("VAR") == 1
        assert [line for line in table.splitlines() if line.startswith("QUANT")] == [
            "QUANT x: FORALL"
        ]

    def test_symbol_lines_are_normalized(self):
        reply = (
            "QUANT y: EXISTS\n  PRED  Took / 02 :  took it  \nVAR x :  the case \n"
            "chatter\nQUANT x: EXISTS\nQUANT y: FORALL"
        )
        assert _parse_symbols(reply) == (
            "VAR x: the case\nPRED Took/2: took it\nQUANT y: FORALL\nQUANT x: EXISTS"
        )

    def test_duplicate_name_triggers_one_repair(self):
        duplicated = "VAR x: a\nPRED x/1: conflicts with the variable"
        agent = scripted(
            {f"init/symbols/{KEY}": [duplicated, SYMBOLS_OK]}
        )
        table = define_symbols(self.FACTORS, TARGET, agent)
        assert len(agent.backend.calls) == 2
        assert "duplicate symbol name" in agent.backend.calls[1].user_text
        assert self._kinds(table).count("PRED") == 2

    def test_repair_prompt_quotes_the_error_under_the_first_prompt(self):
        agent = scripted({f"init/symbols/{KEY}": ["", "VAR x: a\nVAR x: b", ""]})
        with pytest.raises(InitError) as err:
            define_symbols(self.FACTORS, TARGET, agent)
        first = agent.backend.calls[0].user_text
        assert [r.user_text for r in agent.backend.calls[1:]] == [
            f"{first}\n\nYour previous reply was rejected: no symbols parsed from reply\n"
            "Emit the corrected symbol list only.",
            f"{first}\n\nYour previous reply was rejected: duplicate symbol name x\n"
            "Emit the corrected symbol list only.",
        ]
        assert str(err.value) == (
            "symbol definition failed after 2 repairs: no symbols parsed from reply"
        )

    def test_empty_reply_three_times_errors(self):
        agent = scripted({f"init/symbols/{KEY}": ["", "", ""]})
        with pytest.raises(InitError, match="symbol definition failed"):
            define_symbols(self.FACTORS, TARGET, agent)


class TestInitRuleForTarget:
    def _script(self, rule_entries):
        return {
            f"init/summarize/{KEY}": SIX_LINES,
            f"init/symbols/{KEY}": SYMBOLS_OK,
            f"init/rule/{KEY}": rule_entries,
        }

    def test_three_step_transcript_yields_version_zero(self):
        agent = scripted(self._script(RULE_OK))
        rule = init_rule_for_target(TARGET, PRECEDENTS, agent, LABELS)
        assert rule.version == 0
        assert rule.provenance.kind == "initialized"
        assert rule.target == TARGET
        assert agent.transcript.calls == 3

    def test_invalid_then_valid_is_four_calls(self):
        agent = scripted(
            self._script(["RULE: FORALL x Theft(x) -> ARTICLE(264)", RULE_OK])
        )
        rule = init_rule_for_target(TARGET, PRECEDENTS, agent, LABELS)
        assert rule.version == 0
        assert agent.transcript.calls == 4

    def test_term_target_keeps_term_consequent(self):
        target = ArticleTerm("264", "b1")
        key = consequent_key(target)
        agent = scripted(
            {
                f"init/summarize/{key}": SIX_LINES,
                f"init/symbols/{key}": SYMBOLS_OK,
                f"init/rule/{key}": "RULE: FORALL x (Theft(x)) -> ARTICLE(264) TERM(b1)",
            }
        )
        rule = init_rule_for_target(target, PRECEDENTS, agent, LABELS)
        assert rule.target == target

    def test_unrecoverable_failure_raises(self):
        agent = scripted(self._script(["bad", "bad", "bad"]))
        with pytest.raises(InitError, match="rule construction failed"):
            init_rule_for_target(TARGET, PRECEDENTS, agent, LABELS)


class TestInitAllRules:
    def _groups(self, targets):
        """The precedent groups of `targets`, in their order."""
        groups = {
            ArticleCharge("264", "theft"): [make_case("a", "theft facts")],
            ArticleCharge("263", "robbery"): [make_case("b", "robbery facts", "263", "robbery")],
            ArticleCharge("266", "fraud"): [make_case("c", "fraud facts", "266", "fraud")],
        }
        return {target: groups[target] for target in targets}

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
        ruleset = init_all_rules(self._groups(targets), scripted(script), LABELS)
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
        ruleset = init_all_rules(self._groups(targets), scripted(script), LABELS)
        assert len(ruleset.rules) == 1
        assert list(ruleset.failures) == [consequent_key(targets[1])]

    def test_initialized_rules_validate(self):
        targets = [self._target("264", "theft")]
        script = {
            f"init/summarize/{KEY}": SIX_LINES,
            f"init/symbols/{KEY}": SYMBOLS_OK,
            f"init/rule/{KEY}": RULE_OK,
        }
        ruleset = init_all_rules(self._groups(targets), scripted(script), LABELS)
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
        agent = scripted(script)
        init_all_rules(self._groups(targets), agent, LABELS, temperature=0.2)
        assert len(agent.backend.calls) == 3
        assert [call.temperature for call in agent.backend.calls] == [0.2] * 3
