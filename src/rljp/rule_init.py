"""Rule initialization from precedents: summarize circumstances, define logic
symbols, construct one rule per target label combination.

Each step is a separate agent call so a scripted backend can pin any stage.
Rule construction feeds parse/validation errors back through up to two repair
prompts; a target that still fails is reported and skipped, never fatal to
the other targets.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .agents import Backend, Transcript, fan_out, render_template
from .cacl import request_rule
from .corpus import LabelSpace, LegalCase
from .fol import (
    GRAMMAR_HELP,
    Consequent,
    FolRule,
    Provenance,
    consequent_key,
    render_consequent,
)
from .prompts import (
    CONSTRUCT_RULE,
    DEFINE_SYMBOLS,
    REPAIR_SYMBOLS,
    SUMMARIZE_CIRCUMSTANCES,
    ask,
)

logger = logging.getLogger(__name__)

FACTOR_FIELDS = {
    "SUBJECT": "subject_category",
    "VICTIM": "victim_category",
    "TIME_LOCATION": "time_location",
    "BEHAVIOR": "behavior",
    "CONSEQUENCES": "consequences",
    "MENTAL_STATE": "mental_state",
}


class InitError(RuntimeError):
    pass


@dataclass(frozen=True)
class CircumstanceFactors:
    subject_category: str = "unspecified"
    victim_category: str = "unspecified"
    time_location: str = "unspecified"
    behavior: str = "unspecified"
    consequences: str = "unspecified"
    mental_state: str = "unspecified"

    def as_text(self) -> str:
        return "\n".join(
            f"{heading}: {getattr(self, attr)}" for heading, attr in FACTOR_FIELDS.items()
        )


@dataclass(frozen=True)
class SymbolTable:
    variables: tuple[dict, ...]  # {name, denotes}
    predicates: tuple[dict, ...]  # {name, arity, meaning}
    quantifiers: dict[str, str]  # variable -> "FORALL" | "EXISTS"

    def as_text(self) -> str:
        lines = [f"VAR {v['name']}: {v['denotes']}" for v in self.variables]
        lines += [f"PRED {p['name']}/{p['arity']}: {p['meaning']}" for p in self.predicates]
        lines += [f"QUANT {name}: {kind}" for name, kind in self.quantifiers.items()]
        return "\n".join(lines)


@dataclass
class RuleSet:
    rules: dict[str, FolRule] = field(default_factory=dict)  # consequent_key -> rule
    failures: dict[str, str] = field(default_factory=dict)  # consequent_key -> reason

    def add(self, rule: FolRule) -> None:
        self.rules[consequent_key(rule.target)] = rule


def _precedents_text(precedents: Sequence[LegalCase]) -> str:
    return "\n\n".join(
        f"Case {i + 1} ({case.case_id}):\n{case.fact_text}"
        for i, case in enumerate(precedents)
    )


def _parse_circumstances(text: str) -> CircumstanceFactors:
    values: dict[str, str] = {}
    for line in text.splitlines():
        if ":" not in line:
            continue
        heading, _, value = line.partition(":")
        heading = heading.strip().upper()
        if heading in FACTOR_FIELDS and value.strip():
            values[FACTOR_FIELDS[heading]] = value.strip()
    for heading, attr in FACTOR_FIELDS.items():
        if attr not in values:
            logger.info("circumstance field %s missing; set unspecified", heading)
    return CircumstanceFactors(**values)


def summarize_circumstances(
    precedents: Sequence[LegalCase],
    target: Consequent,
    agent: Backend,
    *,
    transcript: Optional[Transcript] = None,
    temperature: float = 0.7,
) -> CircumstanceFactors:
    """Step 1: one agent call summarizing the six circumstance categories.

    Missing or unlabeled categories come back as "unspecified"."""
    if not precedents:
        raise InitError("no precedents to summarize")
    prompt = render_template(
        SUMMARIZE_CIRCUMSTANCES,
        {"target": render_consequent(target), "precedents": _precedents_text(precedents)},
    )
    return ask(
        agent, prompt, tag=f"init/summarize/{consequent_key(target)}", temperature=temperature,
        transcript=transcript, parse=_parse_circumstances,
    )


_VAR_RE = re.compile(r"^VAR\s+([A-Za-z_]\w*)\s*:\s*(.+)$")
_PRED_RE = re.compile(r"^PRED\s+([A-Za-z_]\w*)\s*/\s*(\d+)\s*:\s*(.+)$")
_QUANT_RE = re.compile(r"^QUANT\s+([A-Za-z_]\w*)\s*:\s*(FORALL|EXISTS)\s*$")


def _parse_symbols(text: str) -> SymbolTable:
    variables: list[dict] = []
    predicates: list[dict] = []
    quantifiers: dict[str, str] = {}
    names: set[str] = set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if m := _VAR_RE.match(line):
            name = m.group(1)
            if name in names:
                raise ValueError(f"duplicate symbol name {name}")
            names.add(name)
            variables.append({"name": name, "denotes": m.group(2).strip()})
        elif m := _PRED_RE.match(line):
            name = m.group(1)
            if name in names:
                raise ValueError(f"duplicate symbol name {name}")
            names.add(name)
            predicates.append(
                {"name": name, "arity": int(m.group(2)), "meaning": m.group(3).strip()}
            )
        elif m := _QUANT_RE.match(line):
            quantifiers[m.group(1)] = m.group(2)
    if not variables and not predicates:
        raise ValueError("no symbols parsed from reply")
    return SymbolTable(
        variables=tuple(variables), predicates=tuple(predicates), quantifiers=quantifiers
    )


def define_symbols(
    factors: CircumstanceFactors,
    target: Consequent,
    agent: Backend,
    *,
    transcript: Optional[Transcript] = None,
    temperature: float = 0.7,
    max_repairs: int = 2,
) -> SymbolTable:
    """Step 2: elicit VAR/PRED/QUANT lines; duplicates or an empty table get
    up to two repair prompts, then InitError."""
    prompt = render_template(
        DEFINE_SYMBOLS,
        {"target": render_consequent(target), "factors": factors.as_text()},
    )
    try:
        return ask(
            agent, prompt, tag=f"init/symbols/{consequent_key(target)}", temperature=temperature,
            transcript=transcript, parse=_parse_symbols, attempts=1 + max_repairs,
            follow_up=lambda reply, error: render_template(
                REPAIR_SYMBOLS, {"prompt": prompt, "error": str(error)}
            ),
        )
    except ValueError as exc:
        raise InitError(f"symbol definition failed after {max_repairs} repairs: {exc}") from exc


def init_rule_for_target(
    target: Consequent,
    precedents: Sequence[LegalCase],
    agent: Backend,
    labels: LabelSpace,
    *,
    transcript: Optional[Transcript] = None,
    temperature: float = 0.7,
    max_repairs: int = 2,
) -> FolRule:
    """Steps 1-3 for one target; returns a version-0 rule that parses and
    validates, or raises InitError."""
    factors = summarize_circumstances(
        precedents, target, agent, transcript=transcript, temperature=temperature
    )
    symbols = define_symbols(
        factors, target, agent, transcript=transcript, temperature=temperature,
        max_repairs=max_repairs,
    )
    prompt = render_template(
        CONSTRUCT_RULE,
        {
            "target": render_consequent(target),
            "symbols": symbols.as_text(),
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
        transcript=transcript,
        temperature=temperature,
        max_repairs=max_repairs,
    )


def init_all_rules(
    precedent_groups: dict[Consequent, Sequence[LegalCase]],
    targets: Sequence[Consequent],
    agent: Backend,
    labels: LabelSpace,
    *,
    transcript: Optional[Transcript] = None,
    temperature: float = 0.7,
    k: int = 3,
    concurrency: int = 1,
) -> RuleSet:
    """Initialize one rule per target from its precedent group, `concurrency`
    targets at a time; per-target failures are reported in the RuleSet, in
    target order, not raised."""

    def init_one(target: Consequent) -> FolRule | str:
        """The target's rule, or the reason it has none."""
        precedents = list(precedent_groups.get(target, ()))[:k]
        if not precedents:
            logger.warning("target %s skipped: no precedents", consequent_key(target))
            return "no precedents"
        try:
            return init_rule_for_target(
                target,
                precedents,
                agent,
                labels,
                transcript=transcript,
                temperature=temperature,
            )
        except Exception as exc:
            logger.warning("target %s failed: %s", consequent_key(target), exc)
            return str(exc)

    ruleset = RuleSet()
    for target, outcome in zip(targets, fan_out(init_one, targets, concurrency)):
        if isinstance(outcome, str):
            ruleset.failures[consequent_key(target)] = outcome
        else:
            ruleset.add(outcome)
    return ruleset
