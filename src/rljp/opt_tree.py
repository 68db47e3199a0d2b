"""Weighted rule-optimization tree and its best-first refinement loop.

Nodes are rule versions; a node's weight is its quiz score, memoized so a
rule is never re-evaluated. Each iteration evaluates whatever is new, stops
once the best weight reaches the threshold or the iteration cap, and
otherwise expands the current best node with one refined child. The max
pointer is derived: the first node, in insertion order, of the highest
weight, so the first achiever of a weight survives ties.
"""

from __future__ import annotations

import json
import logging
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

from .agents import Agent
from .fol import Consequent, FolRule, consequent_key, rule_from_row, rule_row
from .quiz import OUTCOMES, QuizQuestion, QuizResult, ReasoningRecord, run_quiz

logger = logging.getLogger(__name__)

# rewrite callback: (rule, its quiz result, child rule id) -> child rule
RewriteFn = Callable[[FolRule, QuizResult, str], FolRule]


class TreeError(RuntimeError):
    pass


@dataclass
class RuleNode:
    node_id: str
    rule: FolRule
    parent: Optional[str] = None
    eval: Optional[QuizResult] = None

    @property
    def weight(self) -> Optional[float]:
        """The quiz score, or None before evaluation."""
        return None if self.eval is None else self.eval.score


@dataclass
class OptimizationTree:
    target: Consequent
    nodes: dict[str, RuleNode]
    iteration: int = 0
    _sequence: int = 0

    @property
    def root_id(self) -> str:
        return next(iter(self.nodes))

    @property
    def max_pointer(self) -> Optional[str]:
        """The first node, in insertion order, of the highest weight; None
        before any evaluation."""
        evaluated = [node for node in self.nodes.values() if node.eval is not None]
        return max(evaluated, key=lambda node: node.weight).node_id if evaluated else None

    @property
    def max_score(self) -> float:
        """The max-pointer node's weight, or 0.0 before any evaluation."""
        pointer = self.max_pointer
        return 0.0 if pointer is None else self.nodes[pointer].weight

    def node(self, node_id: str) -> RuleNode:
        if node_id not in self.nodes:
            raise TreeError(f"unknown node {node_id}")
        return self.nodes[node_id]

    def next_node_id(self, version: int) -> str:
        node_id = f"{consequent_key(self.target)}/{version}/{self._sequence}"
        self._sequence += 1
        return node_id


def new_tree(initial: FolRule) -> OptimizationTree:
    """A tree holding just the (unevaluated) initial rule."""
    tree = OptimizationTree(target=initial.target, nodes={})
    root_id = tree.next_node_id(initial.version)
    tree.nodes[root_id] = RuleNode(node_id=root_id, rule=initial)
    return tree


def evaluate_node(
    tree: OptimizationTree,
    node_id: str,
    questions: Sequence[QuizQuestion],
    agent: Agent,
) -> float:
    """Quiz the node's rule (memoized) and return its weight.

    A cached node costs zero agent calls.
    """
    node = tree.node(node_id)
    if node.eval is not None:
        return node.eval.score
    result = run_quiz(node.rule, questions, agent, tag_prefix=f"quiz/{node_id}")
    node.eval = result
    return result.score


def select_best(tree: OptimizationTree) -> str:
    """The max-pointer node (earliest achiever among equal weights)."""
    pointer = tree.max_pointer
    if pointer is None:
        raise TreeError("no evaluated nodes")
    return pointer


def expand(
    tree: OptimizationTree,
    node_id: str,
    rewrite: RewriteFn,
) -> Optional[str]:
    """Attach one refined child under an evaluated node.

    Returns the child's id, or None when the rewrite fails (the tree is left
    unchanged; the caller still counts the iteration).
    """
    node = tree.node(node_id)
    if node.eval is None:
        raise TreeError(f"cannot expand unevaluated node {node_id}")
    child_id = tree.next_node_id(node.rule.version + 1)
    try:
        child_rule = rewrite(node.rule, node.eval, child_id)
    except Exception as exc:
        logger.warning("expansion of %s failed: %s", node_id, exc)
        return None
    child = RuleNode(node_id=child_id, rule=child_rule, parent=node_id)
    tree.nodes[child_id] = child
    return child_id


def optimize(
    tree: OptimizationTree,
    questions: Sequence[QuizQuestion],
    agent: Agent,
    *,
    rewrite: RewriteFn,
    defined_score: float,
    max_iterations: int,
    store_path: Optional[str | Path] = None,
) -> FolRule:
    """Run the refinement loop and return the best rule found.

    Per iteration: evaluate every unevaluated node, stop when max_score >=
    defined_score or the iteration cap is reached, otherwise expand the best
    node. A failed expansion still consumes an iteration so the loop always
    terminates. The tree is persisted after every iteration when store_path
    is given, each time after a flush of the agent's transcript.
    """
    if not questions:
        raise ValueError("questions must be non-empty")
    if not tree.nodes:
        raise TreeError("tree has no root")

    def persist() -> None:
        # every answer the store holds is in the transcript file before it
        if store_path is not None:
            agent.transcript.flush()
            save_tree(tree, store_path)

    failures = 0
    while True:
        for node_id in [nid for nid, node in tree.nodes.items() if node.eval is None]:
            evaluate_node(tree, node_id, questions, agent)
        persist()
        if tree.max_score >= defined_score:
            break
        if tree.iteration >= max_iterations:
            break
        child_id = expand(tree, select_best(tree), rewrite)
        if child_id is None:
            failures += 1
        tree.iteration += 1
        persist()
    if failures and tree.max_score < defined_score:
        logger.warning(
            "optimization for %s ended with %d failed expansions; returning current best",
            consequent_key(tree.target),
            failures,
        )
    best = tree.node(select_best(tree))
    return best.rule


# ---------------------------------------------------------------------------
# Persistence
#
# The store keeps, per node, the rendered rule text plus outcome counts and
# the per-question reasoning records; records let a resumed run expand the
# best node without re-issuing a single quiz call.


def tree_path(run_dir: str | Path, target_key: str) -> Path:
    """The target's store under `run_dir`. A key character other than a letter, a digit
    or "=,_" is written "-<hex code point>-", so two keys never share a store."""
    safe = "".join(c if c.isalnum() or c in "=,_" else f"-{ord(c):x}-" for c in target_key)
    return Path(run_dir) / "trees" / f"{safe}.json"


def _node_row(node: RuleNode) -> dict:
    records = node.eval.records if node.eval else ()
    counts = Counter(r.outcome for r in records)
    rule = rule_row(node.rule)
    return {
        "node_id": node.node_id,
        "parent": node.parent,
        # a store lists the rule's keys in this order, not rule_row's
        **{key: rule[key] for key in ("rule_text", "rule_id", "provenance", "version")},
        "weight": node.weight,
        **{outcome.lower(): counts[outcome] if node.eval else None for outcome in OUTCOMES},
        "records": [
            {
                "case_id": r.question.case_id,
                "correct_letter": r.question.correct_letter,
                "predicted_letter": r.predicted_letter,
                "outcome": r.outcome,
                "malformed": r.malformed,
                "reasoning": r.reasoning_text,
            }
            for r in records
        ],
    }


def tree_snapshot(tree: OptimizationTree) -> str:
    """The text of the tree's store."""
    payload = {
        "target": consequent_key(tree.target),
        "nodes": [_node_row(node) for node in tree.nodes.values()],
        "max_pointer": tree.max_pointer,
        "max_score": tree.max_score,
        "iteration": tree.iteration,
        "sequence": tree._sequence,
    }
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def save_tree(tree: OptimizationTree, path: str | Path) -> None:
    write_atomically(path, tree_snapshot(tree))


def write_atomically(path: str | Path, text: str) -> None:
    """Write `text` to the sibling `<name>.tmp`, then rename it over `path`, so a
    write that fails or is killed partway leaves the previous file whole."""
    path = Path(path)
    partial = path.with_name(path.name + ".tmp")
    try:
        partial.write_text(text, encoding="utf-8")
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def load_tree(
    path: str | Path,
    target: Consequent,
    questions: Sequence[QuizQuestion],
) -> OptimizationTree:
    """Rehydrate a persisted tree; `questions` must be the same quiz the run
    was using (records are re-joined to questions by case_id)."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload["target"] != consequent_key(target):
        raise TreeError(
            f"tree store {path} is for {payload['target']}, not {consequent_key(target)}"
        )
    question_by_case = {q.case_id: q for q in questions}
    tree = OptimizationTree(
        target=target,
        nodes={},
        iteration=payload["iteration"],
        _sequence=payload["sequence"],
    )
    for entry in payload["nodes"]:
        node = RuleNode(
            node_id=entry["node_id"], rule=rule_from_row(entry), parent=entry["parent"]
        )
        if entry["weight"] is not None:
            records = []
            for row in entry["records"]:
                question = question_by_case.get(row["case_id"])
                if question is None:
                    raise TreeError(
                        f"tree store {path} references unknown case {row['case_id']}"
                    )
                records.append(
                    ReasoningRecord(
                        question=question,
                        reasoning_text=row["reasoning"],
                        predicted_letter=row["predicted_letter"],
                        outcome=row["outcome"],
                        malformed=row["malformed"],
                    )
                )
            node.eval = QuizResult(tuple(records))
        tree.nodes[node.node_id] = node
    return tree
