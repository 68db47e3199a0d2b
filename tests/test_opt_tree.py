import json

import pytest

from helpers import LABELS, make_case, scripted
from rljp.confusable import ConfusableSet
from rljp.fol import ArticleCharge, FolRule, Provenance, parse_rule
from rljp.opt_tree import (
    TreeError,
    evaluate_node,
    expand,
    load_tree,
    new_tree,
    optimize,
    save_tree,
    select_best,
)
from rljp.quiz import make_quiz

TARGET = ArticleCharge("264", "theft")
KEY = "article=264,charge=theft"
ROOT_RULE = parse_rule(
    "FORALL x (Theft(x)) -> ARTICLE(264) CHARGE(theft)", rule_id=f"{KEY}/0/0"
)


def ten_questions():
    positives = [make_case(f"p{i}", f"stole item number {i}") for i in range(5)]
    negatives = [
        make_case(f"n{i}", f"took item {i} by force", "263", "robbery") for i in range(5)
    ]
    conf = ConfusableSet(
        target=TARGET,
        positives=tuple(positives),
        negatives=tuple(negatives),
        negative_similarity={c.case_id: 0.8 for c in negatives},
    )
    return make_quiz(conf, LABELS, num_options=4, seed=5)


def answers_for_weight(questions, node_id, weight):
    """Script entries making run_quiz score exactly `weight` on 10 questions."""
    corrects = round(weight * len(questions))
    entries = {}
    for i, q in enumerate(questions):
        correct = i < corrects
        if q.is_positive:
            letter = q.target_letter if correct else _non_target(q)
        else:
            letter = _non_target(q) if correct else q.target_letter
        entries[f"quiz/{node_id}/{q.case_id}"] = f"Reasoning: scripted\nAnswer: {letter}"
    return entries


def _non_target(question):
    return next(l for l, _ in question.options if l != question.target_letter)


def stub_rewrite(rule: FolRule, result, child_id: str) -> FolRule:
    return FolRule(
        rule_id=child_id,
        target=rule.target,
        antecedent=rule.antecedent,
        version=rule.version + 1,
        provenance=Provenance("optimized", parent_rule_id=rule.rule_id),
    )


def simulate_walk(weights, threshold, max_iterations):
    """Independent reference walk of the optimization loop.

    Returns (node descriptors in creation order, evaluation order, index of
    the final best node, iterations consumed). Node descriptor = (version,
    sequence) so ids can be reconstructed.
    """
    nodes = [(0, 0)]
    node_weights = {}
    eval_order = []
    unevaluated = [0]
    max_score, max_ptr = 0.0, None
    iteration = 0
    wi = 0
    seq = 1
    while True:
        for idx in unevaluated:
            node_weights[idx] = weights[wi]
            eval_order.append(idx)
            wi += 1
            if node_weights[idx] > max_score or max_ptr is None:
                max_score = node_weights[idx]
                max_ptr = idx
        unevaluated = []
        if max_score >= threshold:
            break
        if iteration >= max_iterations:
            break
        parent_version = nodes[max_ptr][0]
        nodes.append((parent_version + 1, seq))
        unevaluated = [len(nodes) - 1]
        seq += 1
        iteration += 1
    return nodes, eval_order, max_ptr, iteration


def run_scripted_optimize(weights, threshold, max_iterations, store_path=None):
    questions = ten_questions()
    nodes, _, best_idx, _ = simulate_walk(weights, threshold, max_iterations)
    script = {}
    for idx, (version, seq) in enumerate(nodes):
        node_id = f"{KEY}/{version}/{seq}"
        script.update(answers_for_weight(questions, node_id, weights[idx]))
    tree = new_tree(ROOT_RULE)
    best = optimize(
        tree,
        questions,
        scripted(script),
        rewrite=stub_rewrite,
        defined_score=threshold,
        max_iterations=max_iterations,
        store_path=store_path,
    )
    return tree, best, nodes, best_idx


class TestNewTree:
    def test_single_unevaluated_root(self):
        tree = new_tree(ROOT_RULE)
        assert len(tree.nodes) == 1
        assert tree.iteration == 0
        root = tree.node(tree.root_id)
        assert root.parent is None
        assert root.weight is None
        assert tree.max_pointer is None


class TestEvaluateNode:
    def test_memoization_issues_zero_calls(self):
        questions = ten_questions()
        tree = new_tree(ROOT_RULE)
        agent = scripted(answers_for_weight(questions, tree.root_id, 0.8))
        first = evaluate_node(tree, tree.root_id, questions, agent)
        calls_after_first = len(agent.backend.calls)
        second = evaluate_node(tree, tree.root_id, questions, agent)
        assert first == second == 0.8
        assert len(agent.backend.calls) == calls_after_first

    def test_pointer_moves_on_strict_improvement(self):
        questions = ten_questions()
        tree = new_tree(ROOT_RULE)
        agent = scripted(answers_for_weight(questions, tree.root_id, 0.6))
        evaluate_node(tree, tree.root_id, questions, agent)
        child_id = expand(tree, tree.root_id, stub_rewrite)
        agent2 = scripted(answers_for_weight(questions, child_id, 0.8))
        evaluate_node(tree, child_id, questions, agent2)
        assert tree.max_pointer == child_id
        assert tree.max_score == 0.8

    def test_tie_keeps_first_achiever(self):
        questions = ten_questions()
        tree = new_tree(ROOT_RULE)
        agent = scripted(answers_for_weight(questions, tree.root_id, 0.7))
        evaluate_node(tree, tree.root_id, questions, agent)
        child_id = expand(tree, tree.root_id, stub_rewrite)
        agent2 = scripted(answers_for_weight(questions, child_id, 0.7))
        evaluate_node(tree, child_id, questions, agent2)
        assert tree.max_pointer == tree.root_id

    def test_pointer_is_the_first_node_of_the_highest_weight(self):
        # derived from the nodes in insertion order, not from evaluation order
        questions = ten_questions()
        tree = new_tree(ROOT_RULE)
        agent = scripted(answers_for_weight(questions, tree.root_id, 0.7))
        evaluate_node(tree, tree.root_id, questions, agent)
        child_id = expand(tree, tree.root_id, stub_rewrite)
        root = tree.node(tree.root_id)
        root_eval, root.eval = root.eval, None
        agent2 = scripted(answers_for_weight(questions, child_id, 0.7))
        evaluate_node(tree, child_id, questions, agent2)
        assert (tree.max_pointer, tree.max_score) == (child_id, 0.7)
        root.eval = root_eval
        assert (tree.max_pointer, tree.max_score) == (tree.root_id, 0.7)


class TestSelectBest:
    def test_highest_weight_wins(self):
        tree, _, nodes, best_idx = run_scripted_optimize([0.5, 0.7], 0.7, 3)
        version, seq = nodes[best_idx]
        assert select_best(tree) == f"{KEY}/{version}/{seq}"

    def test_no_evaluated_nodes_errors(self):
        tree = new_tree(ROOT_RULE)
        with pytest.raises(TreeError):
            select_best(tree)


class TestExpand:
    def test_child_attached_under_parent(self):
        questions = ten_questions()
        tree = new_tree(ROOT_RULE)
        agent = scripted(answers_for_weight(questions, tree.root_id, 0.5))
        evaluate_node(tree, tree.root_id, questions, agent)
        child_id = expand(tree, tree.root_id, stub_rewrite)
        assert tree.node(child_id).parent == tree.root_id
        assert [n.node_id for n in tree.nodes.values() if n.parent == tree.root_id] == [child_id]
        assert tree.node(child_id).rule.version == ROOT_RULE.version + 1

    def test_failed_rewrite_leaves_tree_unchanged(self):
        questions = ten_questions()
        tree = new_tree(ROOT_RULE)
        agent = scripted(answers_for_weight(questions, tree.root_id, 0.5))
        evaluate_node(tree, tree.root_id, questions, agent)

        def broken(rule, result, child_id):
            raise RuntimeError("rewrite exploded")

        assert expand(tree, tree.root_id, broken) is None
        assert len(tree.nodes) == 1

    def test_unevaluated_node_cannot_expand(self):
        tree = new_tree(ROOT_RULE)
        with pytest.raises(TreeError):
            expand(tree, tree.root_id, stub_rewrite)


class TestOptimize:
    def test_root_at_threshold_stops_immediately(self):
        tree, best, _, _ = run_scripted_optimize([0.9], 0.9, 5)
        assert len(tree.nodes) == 1
        assert tree.iteration == 0
        assert best.rule_id == ROOT_RULE.rule_id

    def test_child_reaches_threshold(self):
        tree, best, _, _ = run_scripted_optimize([0.5, 0.8], 0.8, 5)
        assert len(tree.nodes) == 2
        assert best.version == 1
        assert tree.max_score == 0.8

    def test_derived_walk_returns_point_seven_rule(self):
        # threshold 1.0, cap 3, weights 0.5/0.6/0.4/0.7: expansions branch off
        # the 0.6 node twice; the last child (version 2) wins at 0.7
        tree, best, nodes, best_idx = run_scripted_optimize([0.5, 0.6, 0.4, 0.7], 1.0, 3)
        assert tree.max_score == pytest.approx(0.7)
        version, seq = nodes[best_idx]
        assert best.rule_id == f"{KEY}/{version}/{seq}"
        assert (version, seq) == (2, 3)
        assert len(tree.nodes) == 4 and tree.iteration == 3

    def test_all_expansions_failing_returns_best_with_warning(self, caplog):
        questions = ten_questions()
        tree = new_tree(ROOT_RULE)
        agent = scripted(answers_for_weight(questions, tree.root_id, 0.4))

        def broken(rule, result, child_id):
            raise RuntimeError("always fails")

        with caplog.at_level("WARNING"):
            best = optimize(
                tree, questions, agent, rewrite=broken,
                defined_score=0.9, max_iterations=3,
            )
        assert best.rule_id == ROOT_RULE.rule_id
        assert tree.iteration == 3
        assert any("failed expansions" in r.message for r in caplog.records)


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        store = tmp_path / "tree.json"
        tree, best, _, _ = run_scripted_optimize([0.5, 0.8], 0.8, 5, store_path=store)
        questions = ten_questions()
        loaded = load_tree(store, TARGET, questions)
        assert loaded.max_pointer == tree.max_pointer
        assert loaded.max_score == tree.max_score
        assert loaded.iteration == tree.iteration
        assert set(loaded.nodes) == set(tree.nodes)
        for node_id, node in tree.nodes.items():
            other = loaded.nodes[node_id]
            assert other.weight == node.weight
            assert other.parent == node.parent
            assert [r.outcome for r in other.eval.records] == [
                r.outcome for r in node.eval.records
            ]

    def test_mid_run_reload_reaches_same_best(self, tmp_path):
        weights = [0.5, 0.6, 0.4, 0.7]
        threshold, cap = 1.0, 3
        straight_tree, straight_best, nodes, _ = run_scripted_optimize(
            weights, threshold, cap
        )

        # phase A: stop after 1 iteration, persisting
        questions = ten_questions()
        script = {}
        for idx, (version, seq) in enumerate(nodes):
            node_id = f"{KEY}/{version}/{seq}"
            script.update(answers_for_weight(questions, node_id, weights[idx]))
        store = tmp_path / "tree.json"
        tree_a = new_tree(ROOT_RULE)
        optimize(
            tree_a, questions, scripted(dict(script)),
            rewrite=stub_rewrite, defined_score=threshold, max_iterations=1,
            store_path=store,
        )
        # phase B: reload and continue to the full budget with a fresh backend
        tree_b = load_tree(store, TARGET, questions)
        best_b = optimize(
            tree_b, questions, scripted(dict(script)),
            rewrite=stub_rewrite, defined_score=threshold, max_iterations=cap,
            store_path=store,
        )
        assert best_b.rule_id == straight_best.rule_id
        assert tree_b.max_score == straight_tree.max_score

    def test_load_derives_the_best_node_and_save_writes_it(self, tmp_path):
        store = tmp_path / "tree.json"
        tree, _, _, _ = run_scripted_optimize([0.5, 0.8], 0.8, 5, store_path=store)
        written = store.read_text()
        payload = json.loads(written)
        assert (payload["max_pointer"], payload["max_score"]) == (tree.max_pointer, 0.8)
        payload["max_pointer"], payload["max_score"] = tree.root_id, 0.5
        store.write_text(json.dumps(payload, ensure_ascii=False, indent=2) + "\n")
        loaded = load_tree(store, TARGET, ten_questions())
        assert (loaded.max_pointer, loaded.max_score) == (tree.max_pointer, 0.8)
        save_tree(loaded, store)
        assert store.read_text() == written

    def test_wrong_target_rejected(self, tmp_path):
        store = tmp_path / "tree.json"
        tree, _, _, _ = run_scripted_optimize([0.9], 0.9, 1, store_path=store)
        with pytest.raises(TreeError, match="is for"):
            load_tree(store, ArticleCharge("263", "robbery"), ten_questions())
