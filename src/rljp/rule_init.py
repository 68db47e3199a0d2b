"""Rule initialization from precedents: summarize circumstances, define logic
symbols, construct one rule per target label combination.

Each step is a separate agent call so a scripted backend can pin any stage.
Rule construction feeds parse/validation errors back through up to two repair
prompts; a target that still fails is reported and skipped, never fatal to
the other targets.
"""

from __future__ import annotations

import json
import logging
import re
from contextlib import closing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .agents import Agent, fan_out, render_template
from .cacl import MAX_REPAIRS, request_rule
from .corpus import LabelSpace, LegalCase
from .fol import (
    GRAMMAR_HELP,
    Consequent,
    FolRule,
    Provenance,
    consequent_key,
    render_consequent,
    rule_from_row,
    rule_row,
)
from .prompts import (
    CONSTRUCT_RULE,
    DEFINE_SYMBOLS,
    REPAIR_SYMBOLS,
    SUMMARIZE_CIRCUMSTANCES,
    ask,
)

logger = logging.getLogger(__name__)

# the six circumstance headings, in prompt order
FACTOR_FIELDS = ("SUBJECT", "VICTIM", "TIME_LOCATION", "BEHAVIOR", "CONSEQUENCES", "MENTAL_STATE")


class InitError(RuntimeError):
    pass


@dataclass
class RuleSet:
    rules: dict[str, FolRule] = field(default_factory=dict)  # consequent_key -> rule
    failures: dict[str, str] = field(default_factory=dict)  # consequent_key -> reason
    weights: dict[str, float] = field(default_factory=dict)  # consequent_key -> quiz score

    def add(self, rule: FolRule) -> None:
        self.rules[consequent_key(rule.target)] = rule


def save_ruleset(path: str | Path, ruleset: RuleSet) -> None:
    """rules_*.json: rule rows and any weights by sorted target key, then the sorted failures."""
    rows = {}
    for key in sorted(ruleset.rules):
        rows[key] = {"target": key, **rule_row(ruleset.rules[key])}
        if key in ruleset.weights:
            rows[key]["weight"] = ruleset.weights[key]
    payload = {"rules": rows, "failures": dict(sorted(ruleset.failures.items()))}
    Path(path).write_text(
        json.dumps(payload, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )


def load_ruleset(path: str | Path) -> RuleSet:
    """The rule set `save_ruleset` wrote."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    rows = payload["rules"]
    return RuleSet(
        rules={key: rule_from_row(rows[key]) for key in sorted(rows)},
        failures=dict(payload.get("failures", {})),
        weights={key: row["weight"] for key, row in rows.items() if "weight" in row},
    )


def _precedents_text(precedents: Sequence[LegalCase]) -> str:
    return "\n\n".join(
        f"Case {i + 1} ({case.case_id}):\n{case.fact_text}"
        for i, case in enumerate(precedents)
    )


def _parse_circumstances(text: str) -> str:
    """The six "HEADING: value" lines, in FACTOR_FIELDS order; a heading the
    reply lacks, or leaves empty, is "unspecified"."""
    values: dict[str, str] = {}
    for line in text.splitlines():
        heading, _, value = line.partition(":")
        heading = heading.strip().upper()
        if value.strip() and heading in FACTOR_FIELDS:
            values[heading] = value.strip()
    for heading in FACTOR_FIELDS:
        if heading not in values:
            logger.info("circumstance field %s missing; set unspecified", heading)
    return "\n".join(f"{h}: {values.get(h, 'unspecified')}" for h in FACTOR_FIELDS)


def summarize_circumstances(
    precedents: Sequence[LegalCase],
    target: Consequent,
    agent: Agent,
    *,
    temperature: float = 0.7,
) -> str:
    """Step 1: one agent call summarizing the six circumstance categories, as
    "HEADING: value" lines. Missing or unlabeled categories come back as
    "unspecified"."""
    if not precedents:
        raise InitError("no precedents to summarize")
    prompt = render_template(
        SUMMARIZE_CIRCUMSTANCES,
        {"target": render_consequent(target), "precedents": _precedents_text(precedents)},
    )
    return ask(
        agent, prompt, tag=f"init/summarize/{consequent_key(target)}", temperature=temperature,
        parse=_parse_circumstances,
    )


_VAR_RE = re.compile(r"^VAR\s+([A-Za-z_]\w*)\s*:\s*(.+)$")
_PRED_RE = re.compile(r"^PRED\s+([A-Za-z_]\w*)\s*/\s*(\d+)\s*:\s*(.+)$")
_QUANT_RE = re.compile(r"^QUANT\s+([A-Za-z_]\w*)\s*:\s*(FORALL|EXISTS)\s*$")


def _parse_symbols(text: str) -> str:
    """The reply's VAR lines, then its PRED lines, then its QUANT lines, each
    rewritten in canonical form. A repeated VAR/PRED name is an error; a later
    QUANT for a variable replaces the earlier one in place."""
    variables: list[str] = []
    predicates: list[str] = []
    quantifiers: dict[str, str] = {}
    names: set[str] = set()

    def declare(name: str) -> None:
        if name in names:
            raise ValueError(f"duplicate symbol name {name}")
        names.add(name)

    for raw in text.splitlines():
        line = raw.strip()
        if m := _VAR_RE.match(line):
            declare(m.group(1))
            variables.append(f"VAR {m.group(1)}: {m.group(2).strip()}")
        elif m := _PRED_RE.match(line):
            declare(m.group(1))
            predicates.append(f"PRED {m.group(1)}/{int(m.group(2))}: {m.group(3).strip()}")
        elif m := _QUANT_RE.match(line):
            quantifiers[m.group(1)] = f"QUANT {m.group(1)}: {m.group(2)}"
    if not variables and not predicates:
        raise ValueError("no symbols parsed from reply")
    return "\n".join(variables + predicates + list(quantifiers.values()))


def define_symbols(
    factors: str,
    target: Consequent,
    agent: Agent,
    *,
    temperature: float = 0.7,
) -> str:
    """Step 2: elicit VAR/PRED/QUANT lines for the summarized `factors`;
    duplicates or an empty table get up to MAX_REPAIRS repair prompts, then
    InitError."""
    prompt = render_template(
        DEFINE_SYMBOLS,
        {"target": render_consequent(target), "factors": factors},
    )
    try:
        return ask(
            agent, prompt, tag=f"init/symbols/{consequent_key(target)}", temperature=temperature,
            parse=_parse_symbols, attempts=1 + MAX_REPAIRS,
            follow_up=lambda reply, error: render_template(
                REPAIR_SYMBOLS, {"prompt": prompt, "error": str(error)}
            ),
        )
    except ValueError as exc:
        raise InitError(f"symbol definition failed after {MAX_REPAIRS} repairs: {exc}") from exc


def init_rule_for_target(
    target: Consequent,
    precedents: Sequence[LegalCase],
    agent: Agent,
    labels: LabelSpace,
    *,
    temperature: float = 0.7,
) -> FolRule:
    """Steps 1-3 for one target; returns a version-0 rule that parses and
    validates, or raises InitError."""
    factors = summarize_circumstances(precedents, target, agent, temperature=temperature)
    symbols = define_symbols(factors, target, agent, temperature=temperature)
    prompt = render_template(
        CONSTRUCT_RULE,
        {
            "target": render_consequent(target),
            "symbols": symbols,
            "grammar": GRAMMAR_HELP,
            "consequent": render_consequent(target),
        },
    )
    return request_rule(
        prompt,
        agent,
        labels,
        tag=f"init/rule/{consequent_key(target)}",
        rule_id=f"{consequent_key(target)}/0/0",
        version=0,
        provenance=Provenance("initialized"),
        target=target,
        what="rule construction",
        error=InitError,
        temperature=temperature,
    )


def init_all_rules(
    precedent_groups: dict[Consequent, Sequence[LegalCase]],
    agent: Agent,
    labels: LabelSpace,
    *,
    temperature: float = 0.7,
    concurrency: int = 1,
) -> RuleSet:
    """Initialize one rule per target of `precedent_groups` from its
    precedents, `concurrency` targets at a time; per-target failures are
    reported in the RuleSet, in target order, not raised."""

    def init_one(target: Consequent, agent: Agent) -> FolRule | str:
        """The target's rule, or the reason it has none."""
        try:
            return init_rule_for_target(
                target, precedent_groups[target], agent, labels, temperature=temperature
            )
        except Exception as exc:
            logger.warning("target %s failed: %s", consequent_key(target), exc)
            return str(exc)

    ruleset = RuleSet()
    with closing(fan_out(init_one, precedent_groups, agent, concurrency)) as outcomes:
        for target, outcome in zip(precedent_groups, outcomes, strict=True):
            if isinstance(outcome, str):
                ruleset.failures[consequent_key(target)] = outcome
            else:
                ruleset.add(outcome)
    return ruleset
