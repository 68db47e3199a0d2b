"""Bundled synthetic legal corpus and a deterministic oracle agent.

The corpus is built from confusable charge pairs: both charges of a pair
share a coarse circumstance phrase and differ only in a fine one, and every
case has a positional "twin" in the sibling charge sharing a unique docket
token, so embedding-based mining reliably surfaces sibling cases as hard
negatives.

The oracle agent answers any pipeline prompt by actually reading it: it
parses the rule out of the prompt, evaluates each predicate as "its marker
phrase occurs in the fact", and answers accordingly. Initialization emits
the coarse-only rule for a target; the rewrite step emits the coarse+fine
rule. That makes the refined rule strictly more discriminative, which is the
behavior the optimization loop is supposed to find. Every reply is a pure
function of the request, so full runs are bit-reproducible.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from pathlib import Path
from .agents import AgentError, ChatResponse
from .fol import (
    AstNode,
    Connective,
    Consequent,
    FolRule,
    PredicateAtom,
    Quantifier,
    consequent_labels,
    parse_rule,
    render_consequent,
)

TERM_BUCKETS = (
    "lt_6m", "6m_1y", "1y_2y", "2y_3y", "3y_5y",
    "5y_7y", "7y_10y", "10y_plus", "life", "death",
)

# (charge, article, coarse predicate, fine predicate, coarse phrase, fine phrase)
_PAIR_SPECS = [
    (
        ("theft", "264", "TookProperty", "ActedCovertly",
         "took property belonging to another person",
         "acted covertly without any confrontation"),
        ("robbery", "263", "TookProperty", "UsedForce",
         "took property belonging to another person",
         "used force against the victim on the spot"),
    ),
    (
        ("fraud", "266", "ObtainedMoney", "FabricatedFacts",
         "obtained money from the victim",
         "fabricated false facts to mislead the victim"),
        ("extortion", "274", "ObtainedMoney", "IssuedThreats",
         "obtained money from the victim",
         "issued threats of harm to compel payment"),
    ),
    (
        ("assault", "234", "PhysicalAttack", "RecoverableInjury",
         "attacked the victim physically",
         "caused recoverable injuries of limited severity"),
        ("homicide", "232", "PhysicalAttack", "CausedDeath",
         "attacked the victim physically",
         "caused the death of the victim"),
    ),
    (
        ("drug_possession", "348", "HeldNarcotics", "PersonalUse",
         "held illegal narcotics",
         "kept the narcotics for personal use only"),
        ("drug_trafficking", "347", "HeldNarcotics", "SoldToBuyers",
         "held illegal narcotics",
         "sold the narcotics to multiple buyers"),
    ),
    (
        ("bribe_giving", "389", "ImproperBenefit", "OfferedPayment",
         "exchanged improper benefits with an official",
         "offered payment to obtain official favor"),
        ("bribe_taking", "385", "ImproperBenefit", "AcceptedPayment",
         "exchanged improper benefits with an official",
         "accepted payment in exchange for official acts"),
    ),
    (
        ("arson", "114", "CausedFire", "DeliberateIgnition",
         "caused a destructive fire at the premises",
         "set the fire deliberately with intent"),
        ("negligent_fire", "115", "CausedFire", "CarelessIgnition",
         "caused a destructive fire at the premises",
         "ignited the fire through careless handling"),
    ),
]

_CITIES = ["Riverton", "Lakewood", "Northfield", "Eastvale", "Milldale", "Harborview"]
_SURNAMES = ["Chen", "Wang", "Li", "Zhao", "Sun", "Zhou", "Wu", "Zheng", "Feng", "Han"]
_OPENINGS = [
    "On the first day of the term,",
    "During the morning session,",
    "In the late evening hours,",
    "Near the close of the quarter,",
    "At the start of the review period,",
]


@dataclass(frozen=True)
class ChargeProfile:
    charge: str
    article: str
    term_bucket: str
    coarse_predicate: str
    fine_predicate: str
    coarse_phrase: str
    fine_phrase: str


@dataclass(frozen=True)
class SyntheticWorld:
    profiles: tuple[ChargeProfile, ...]
    predicate_phrases: dict[str, str]  # predicate name -> marker phrase

    def by_charge(self, charge: str) -> ChargeProfile:
        return next(p for p in self.profiles if p.charge == charge)

    def by_article(self, article: str) -> ChargeProfile:
        return next(p for p in self.profiles if p.article == article)

    def profile_for(self, target: Consequent) -> ChargeProfile:
        labels = consequent_labels(target)
        if "charge" in labels:
            return self.by_charge(labels["charge"])
        return self.by_article(labels["article"])

    def root_rule_text(self, target: Consequent) -> str:
        profile = self.profile_for(target)
        return (
            f"FORALL x ({profile.coarse_predicate}(x)) -> {render_consequent(target)}"
        )

    def refined_rule_text(self, target: Consequent) -> str:
        profile = self.profile_for(target)
        return (
            f"FORALL x (({profile.coarse_predicate}(x) AND "
            f"{profile.fine_predicate}(x))) -> {render_consequent(target)}"
        )

    def to_dict(self) -> dict:
        return {
            "profiles": [vars(p) for p in self.profiles],
            "predicate_phrases": self.predicate_phrases,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "SyntheticWorld":
        return cls(
            profiles=tuple(ChargeProfile(**row) for row in payload["profiles"]),
            predicate_phrases=dict(payload["predicate_phrases"]),
        )

    @classmethod
    def load(cls, path: str | Path) -> "SyntheticWorld":
        return cls.from_dict(json.loads(Path(path).read_text(encoding="utf-8")))

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8"
        )


def build_world() -> SyntheticWorld:
    profiles = []
    phrases: dict[str, str] = {}
    index = 0
    for pair in _PAIR_SPECS:
        for charge, article, coarse_pred, fine_pred, coarse_phrase, fine_phrase in pair:
            profiles.append(
                ChargeProfile(
                    charge=charge,
                    article=article,
                    term_bucket=TERM_BUCKETS[index % len(TERM_BUCKETS)],
                    coarse_predicate=coarse_pred,
                    fine_predicate=fine_pred,
                    coarse_phrase=coarse_phrase,
                    fine_phrase=fine_phrase,
                )
            )
            phrases[coarse_pred] = coarse_phrase
            phrases[fine_pred] = fine_phrase
            index += 1
    return SyntheticWorld(profiles=tuple(profiles), predicate_phrases=phrases)


def generate_corpus(
    num_cases: int = 60, seed: int = 11
) -> tuple[list[dict], dict, SyntheticWorld]:
    """Synthetic JSONL rows (CAIL-style schema), label metadata, and the world.

    Cases are dealt round-robin across charges; case slot j of a charge and
    slot j of its sibling share a twin docket token, which is what makes the
    sibling the nearest other-label neighbor under the hashing embedder.
    """
    world = build_world()
    rng = random.Random(seed)
    rows: list[dict] = []
    n_charges = len(world.profiles)
    for i in range(num_cases):
        profile = world.profiles[i % n_charges]
        slot = i // n_charges
        pair_index = (i % n_charges) // 2
        city = _CITIES[(i + seed) % len(_CITIES)]
        name = _SURNAMES[(i * 7 + slot) % len(_SURNAMES)]
        amount = 500 + ((i * 137 + slot * 59) % 90) * 100
        twin_token = f"bundle P{pair_index}-{slot:02d}"
        opening = _OPENINGS[slot % len(_OPENINGS)]
        extra = f"evidence tag E{rng.randint(100, 999)}"
        fact = (
            f"{opening} in {city}, the defendant {name} "
            f"{profile.coarse_phrase}. Investigators recorded that the defendant "
            f"{profile.fine_phrase}. The amount involved was {amount} yuan, filed "
            f"jointly under case {twin_token}, with {twin_token} noted as the "
            f"controlling docket, and {extra} admitted into evidence."
        )
        rows.append(
            {
                "case_id": f"syn_{i:04d}",
                "fact": fact,
                "meta": {
                    "relevant_articles": [profile.article],
                    "accusation": [profile.charge],
                    "term_bucket": [profile.term_bucket],
                },
            }
        )
    labels_meta = {
        "articles": [p.article for p in world.profiles],
        "charges": [p.charge for p in world.profiles],
        "prison_terms": list(TERM_BUCKETS),
    }
    return rows, labels_meta, world


def write_corpus(
    directory: str | Path, num_cases: int = 60, seed: int = 11
) -> SyntheticWorld:
    """Write cases.jsonl, labels.json, and world.json under `directory`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rows, labels_meta, world = generate_corpus(num_cases, seed)
    with (directory / "cases.jsonl").open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row, ensure_ascii=False) + "\n")
    (directory / "labels.json").write_text(
        json.dumps(labels_meta, indent=2) + "\n", encoding="utf-8"
    )
    world.save(directory / "world.json")
    return world


# ---------------------------------------------------------------------------
# Rule evaluation against marker phrases (mock-side semantics)


def antecedent_holds(node: AstNode, fact_text: str, phrases: dict[str, str]) -> bool:
    """Evaluate a rule body by substring-checking each predicate's marker
    phrase; unknown predicates are false. Quantifiers are transparent (one
    implicit case)."""
    fact = fact_text.lower()

    def walk(n: AstNode) -> bool:
        if isinstance(n, Quantifier):
            return walk(n.body)
        if isinstance(n, Connective):
            if n.kind == "not":
                return not walk(n.children[0])
            if n.kind == "and":
                return all(walk(c) for c in n.children)
            return any(walk(c) for c in n.children)
        if isinstance(n, PredicateAtom):
            phrase = phrases.get(n.name)
            return phrase is not None and phrase.lower() in fact
        raise TypeError(f"unexpected node {n!r}")

    return walk(node)


# ---------------------------------------------------------------------------
# Oracle agent


_RULE_SECTION_RE = re.compile(r"(?:^|\n)(?:Judgment rule|Rule|Current rule):\n(.+)")
_FACT_SECTION_RE = re.compile(r"\nCase facts:\n(.*?)(?:\n\n|\Z)", re.DOTALL)
_OPTION_RE = re.compile(r"^([A-Z])\)\s*(.+)$", re.MULTILINE)
# where a prompt names its target: rule prompts, then the summary and the
# symbols prompts
_CONSEQUENT_RE = re.compile(r"consequent must (?:be|remain) exactly: (.+)")
_JUDGMENT_RE = re.compile(r"received the judgment (.+?)\.\n")
_LOGIC_FOR_RE = re.compile(r"judgment logic for (.+?)\.")
_LIMIT_RE = re.compile(r"at most (\d+) characters")


class OracleAgent:
    """Deterministic content-driven backend covering every pipeline prompt."""

    name = "synthetic-oracle"

    def __init__(self, world: SyntheticWorld):
        self.world = world
        # parsed rules by rule text: a run's quiz and exam prompts quote few
        # rules; threads racing on one text only parse it twice
        self._rules: dict[str, FolRule] = {}

    def send(self, request) -> ChatResponse:
        """Answer one agents.ChatRequest by its tag and user text."""
        tag = request.tag
        text = request.user_text
        if tag.startswith("init/summarize/"):
            reply = self._summarize(text)
        elif tag.startswith("init/symbols/"):
            reply = self._symbols(text)
        elif tag.startswith("init/rule/") or tag.startswith("cacl") and "/rewrite" in tag:
            reply = self._emit_rule(text, refined="/rewrite" in tag)
        elif tag.startswith("quiz/"):
            reply = self._quiz(text)
        elif tag.startswith("exam/"):
            reply = self._exam(text)
        elif tag.startswith("abstract"):
            reply = self._abstract(text)
        elif "/keep" in tag:
            reply = "The shared circumstance predicate matched the facts of the correct answers."
        elif "/improve" in tag:
            reply = "The rule fires on confusable cases; it lacks the distinguishing circumstance."
        elif "/synthesize" in tag:
            reply = (
                "KEEP: the shared circumstance predicate\n"
                "IMPROVE: add the distinguishing circumstance predicate for this charge"
            )
        else:
            raise AgentError(f"oracle has no handler for tag {tag!r}")
        # billed in characters, so offline runs exercise the usage accounting
        units = len(request.system_text) + len(request.user_text)
        return ChatResponse(text=reply, input_units=units, output_units=len(reply))

    # -- handlers

    def _target(self, text: str, *patterns: re.Pattern) -> Consequent:
        """The consequent that the first matching pattern captures."""
        for pattern in patterns:
            match = pattern.search(text)
            if match is not None:
                return parse_rule(f"FORALL x (P(x)) -> {match.group(1).strip()}").target
        raise AgentError("cannot locate target in prompt")

    def _summarize(self, text: str) -> str:
        target = self._target(text, _JUDGMENT_RE, _LOGIC_FOR_RE)
        profile = self.world.profile_for(target)
        return (
            "SUBJECT: an adult acting alone\n"
            "VICTIM: a private individual or entity\n"
            "TIME_LOCATION: daytime, within the municipality\n"
            f"BEHAVIOR: {profile.coarse_phrase}; {profile.fine_phrase}\n"
            "CONSEQUENCES: measurable loss established by the record\n"
            "MENTAL_STATE: aware of the nature of the act"
        )

    def _symbols(self, text: str) -> str:
        target = self._target(text, _JUDGMENT_RE, _LOGIC_FOR_RE)
        profile = self.world.profile_for(target)
        return (
            "VAR x: the case under consideration\n"
            f"PRED {profile.coarse_predicate}/1: {profile.coarse_phrase}\n"
            f"PRED {profile.fine_predicate}/1: {profile.fine_phrase}\n"
            "QUANT x: FORALL"
        )

    def _emit_rule(self, text: str, refined: bool) -> str:
        target = self._target(text, _CONSEQUENT_RE)
        rule_text = (
            self.world.refined_rule_text(target)
            if refined
            else self.world.root_rule_text(target)
        )
        return f"RULE: {rule_text}"

    def _parse_rule_and_fact(self, text: str) -> tuple[FolRule, str]:
        rule_match = _RULE_SECTION_RE.search(text)
        fact_match = _FACT_SECTION_RE.search(text)
        if rule_match is None or fact_match is None:
            raise AgentError("prompt lacks rule or fact section")
        rule_text = rule_match.group(1).strip()
        rule = self._rules.get(rule_text)
        if rule is None:
            rule = self._rules[rule_text] = parse_rule(rule_text)
        return rule, fact_match.group(1).strip()

    def _quiz(self, text: str) -> str:
        rule, fact = self._parse_rule_and_fact(text)
        options = _OPTION_RE.findall(text)
        if not options:
            raise AgentError("quiz prompt lacks options")
        target_text = render_consequent(rule.target)
        holds = antecedent_holds(rule.antecedent, fact, self.world.predicate_phrases)
        if holds:
            choice = next(
                (letter for letter, label in options if label.strip() == target_text),
                options[0][0],
            )
            reasoning = "The rule's conditions are all present in the facts."
        else:
            choice = next(
                (letter for letter, label in options if label.strip() != target_text),
                options[0][0],
            )
            reasoning = "A required condition of the rule is absent from the facts."
        return f"Reasoning: {reasoning}\nAnswer: {choice}"

    def _exam(self, text: str) -> str:
        rule, fact = self._parse_rule_and_fact(text)
        holds = antecedent_holds(rule.antecedent, fact, self.world.predicate_phrases)
        verdict = "YES" if holds else "NO"
        reasoning = (
            "Each condition was checked against the facts; "
            + ("all hold." if holds else "at least one does not hold.")
        )
        return f"Reasoning: {reasoning}\nAnswer: {verdict}"

    def _abstract(self, text: str) -> str:
        fact_match = _FACT_SECTION_RE.search(text)
        if fact_match is None:
            raise AgentError("abstract prompt lacks fact section")
        limit_match = _LIMIT_RE.search(text)
        limit = int(limit_match.group(1)) if limit_match else 1000
        fact = fact_match.group(1).strip()
        return fact[: min(limit, 1000)]
