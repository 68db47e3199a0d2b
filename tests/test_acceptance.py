"""Acceptance suite: one timed check per criterion, each printing a PASS line
(visible with pytest -s or -rA). Run with: pytest tests/test_acceptance.py -v
"""

import filecmp
import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import rljp.opt_tree as opt_tree_mod
from helpers import LABELS, make_case, random_rule, transcript_entries
from rljp.agents import ScriptedBackend, Transcript
from rljp.cacl import optimize_rule
from rljp.cli import main as cli_main
from rljp.confusable import EmbeddingMatrix, cosine_similarity_matrix, select_hard_negatives
from rljp.fol import parse_rule, render_rule, validate_rule
from rljp.quiz import OUTCOMES, ReasoningRecord, build_quiz_result, score
from rljp.metrics import compute_metrics
from test_confusable import brute_force_cosine, brute_force_negatives
from test_metrics import oracle_confusion
from test_opt_tree import (
    KEY,
    ROOT_RULE,
    TARGET,
    answers_for_weight,
    simulate_walk,
    stub_rewrite,
    ten_questions,
)
from test_quiz import _question

# 50 invalid sources: each must raise a located syntax error or yield at
# least one validation violation.
INVALID_SOURCES = [
    # syntax: malformed structure
    "FORALL x Theft(x AND) -> ARTICLE(264)",
    "FORALL x Theft(x) -> ARTICLE(264)",
    "FORALL (Theft(x)) -> ARTICLE(264)",
    "EXISTS (P()) -> ARTICLE(264)",
    "FORALL x (Theft(x) -> ARTICLE(264)",
    "FORALL x (Theft(x))) -> ARTICLE(264)",
    "(P() AND) -> ARTICLE(264)",
    "(AND P()) -> ARTICLE(264)",
    "(P() OR OR Q()) -> ARTICLE(264)",
    "(NOT) -> ARTICLE(264)",
    "(P()) ARTICLE(264)",
    "(P()) ->",
    "-> ARTICLE(264)",
    "(P()) -> CHARGE(theft)",
    "(P()) -> TERM(b0)",
    "(P()) -> ARTICLE(264) CHARGE(theft) TERM(b0)",
    "(P()) -> ARTICLE(264) ARTICLE(263)",
    "(P()) -> ARTICLE()",
    "(P()) -> ARTICLE(264) CHARGE()",
    "(P()) -> ARTICLE(264) banana",
    "() -> ARTICLE(264)",
    "(P(,)) -> ARTICLE(264)",
    "(P(x,)) -> ARTICLE(264)",
    "(P(x y)) -> ARTICLE(264)",
    "(P((x))) -> ARTICLE(264)",
    "(123()) -> ARTICLE(264)",
    "(P()) -> article(264)",
    "(P()) (Q()) -> ARTICLE(264)",
    "FORALL 7 (P(7)) -> ARTICLE(264)",
    "FORALL FORALL x (P(x)) -> ARTICLE(264)",
    "(P() AND Q() OR) -> ARTICLE(264)",
    "(P(\"unterminated)) -> ARTICLE(264)",
    "(P('single')) -> ARTICLE(264)",
    "(P(x)) -> ARTICLE(264) extra trailing text",
    "(NOT AND P()) -> ARTICLE(264)",
    "(P()) -> ARTICLE(264",
    "FORALL x EXISTS (P(x)) -> ARTICLE(264)",
    "(P()) > ARTICLE(264)",
    "(P()) - > ARTICLE(264)",
    "(P[x]) -> ARTICLE(264)",
    # validation: parses but violates binding, arity, or label membership
    "FORALL x (P(y)) -> ARTICLE(264)",
    "(Theft(v)) -> ARTICLE(264)",
    "EXISTS a (P(a) AND Q(b)) -> ARTICLE(264)",
    "FORALL x (P(x) AND P(x, x)) -> ARTICLE(264)",
    "FORALL x (P() OR P(x)) -> ARTICLE(264)",
    "(P()) -> ARTICLE(9999)",
    "(P()) -> ARTICLE(264) CHARGE(smuggling)",
    "(P()) -> ARTICLE(264) TERM(bucket_99)",
    "(P()) -> ARTICLE(999) CHARGE(arson_x)",
    "FORALL x (Stole(x) AND Stole(x, y)) -> ARTICLE(1)",
]


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    print(f"ACCEPTANCE criterion {number} PASS - {description} ({elapsed:.2f}s)")
    assert elapsed < budget, f"criterion {number} exceeded {budget}s ({elapsed:.2f}s)"


class _E2ECache:
    runs: list[Path] = []
    elapsed: float = 0.0


def _run_all_twice(fixture_config_path, tmp_path_factory):
    if not _E2ECache.runs:
        started = time.perf_counter()
        for name in ("e2e_a", "e2e_b"):
            run_dir = tmp_path_factory.mktemp(name)
            code = cli_main(
                [
                    "run-all",
                    "--config", str(fixture_config_path),
                    "--run-dir", str(run_dir),
                    "--mock",
                ]
            )
            assert code == 0
            _E2ECache.runs.append(run_dir)
        _E2ECache.elapsed = time.perf_counter() - started
    return _E2ECache.runs


def test_criterion_1_fol_round_trip():
    started = time.perf_counter()
    rng = random.Random(14142)
    for _ in range(1000):
        rule = random_rule(rng)
        reparsed = parse_rule(render_rule(rule))
        assert reparsed.antecedent == rule.antecedent
        assert reparsed.target == rule.target

    assert len(INVALID_SOURCES) == 50
    for source in INVALID_SOURCES:
        try:
            rule = parse_rule(source)
        except ValueError as exc:  # RuleSyntaxError included
            assert "line" in str(exc) and "column" in str(exc), source
        else:
            violations = validate_rule(rule, LABELS)
            assert violations, f"accepted invalid source: {source}"
    _report(1, "1000-rule render/parse identity + 50 located rejections", started, 5.0)


def test_criterion_2_similarity_oracles():
    started = time.perf_counter()
    rng = random.Random(27182)
    for _ in range(100):
        m, n, d = rng.randint(1, 8), rng.randint(1, 8), rng.randint(1, 16)
        a = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(m)])
        b = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n)])
        for rows in (a, b):
            for i in range(rows.shape[0]):
                while not rows[i].any():
                    rows[i] = [rng.uniform(-1, 1) for _ in range(rows.shape[1])]
        emb_a = EmbeddingMatrix(a, tuple(f"p{i:02d}" for i in range(m)))
        emb_b = EmbeddingMatrix(b, tuple(f"o{i:02d}" for i in range(n)))
        got = cosine_similarity_matrix(emb_a, emb_b).values
        want = brute_force_cosine(a, b)
        assert np.max(np.abs(got - want)) < 1e-9

    for trial in range(50):
        m, n, d = rng.randint(1, 8), rng.randint(1, 8), rng.randint(2, 16)
        a = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(m)])
        b = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(n)])
        emb_a = EmbeddingMatrix(a, tuple(f"p{i:02d}" for i in range(m)))
        emb_b = EmbeddingMatrix(b, tuple(f"o{i:02d}" for i in range(n)))
        num = rng.randint(1, n)
        others = [make_case(f"o{i:02d}", "fact", charge="robbery") for i in range(n)]
        got_cases, got_sims = select_hard_negatives(
            cosine_similarity_matrix(emb_a, emb_b), others, num
        )
        # fully independent path: scalar-loop cosine, then brute-force NN+dedup
        want = brute_force_negatives(brute_force_cosine(a, b), emb_b.case_ids, num)
        assert [c.case_id for c in got_cases] == [cid for cid, _ in want], f"trial {trial}"
        for cid, sim in want:
            assert abs(got_sims[cid] - sim) < 1e-9
    _report(2, "cosine matches scalar oracle; mining matches brute force", started, 10.0)


def test_criterion_3_score_and_outcome_partition():
    started = time.perf_counter()
    rng = random.Random(31415)
    for _ in range(200):
        outcomes = [rng.choice(OUTCOMES) for _ in range(rng.randint(1, 60))]
        records = []
        for outcome in outcomes:
            is_positive = outcome in ("TP", "FN")
            question = _question(is_positive)
            predicted = (
                question.target_letter if outcome in ("TP", "FP") else "C"
            )
            records.append(
                ReasoningRecord(
                    question=question,
                    reasoning_text="r",
                    correct_letter=question.correct_letter,
                    predicted_letter=predicted,
                    outcome=outcome,
                )
            )
        independent = sum(1 for o in outcomes if o in ("TP", "TN")) / len(outcomes)
        assert score(records) == pytest.approx(independent, abs=1e-12)
        result = build_quiz_result(records)
        assert result.tp + result.tn + result.fp + result.fn == len(records)
        for record in records:
            assert sum(record.outcome == o for o in OUTCOMES) == 1
    _report(3, "200 record lists: score equals recount; outcomes partition", started, 5.0)


def test_criterion_4_tree_invariants(tmp_path, monkeypatch):
    started = time.perf_counter()
    rng = random.Random(16180)
    questions = ten_questions()
    real_save = opt_tree_mod.save_tree

    for trial in range(100):
        max_iterations = rng.randint(1, 4)
        threshold = rng.choice([0.7, 0.8, 0.9, 1.0, 1.1])
        weights = [rng.randint(0, 10) / 10 for _ in range(1 + max_iterations)]
        nodes, eval_order, best_idx, iterations = simulate_walk(
            weights, threshold, max_iterations
        )
        script = {}
        for idx, (version, seq) in enumerate(nodes):
            node_id = f"{KEY}/{version}/{seq}"
            script.update(answers_for_weight(questions, node_id, weights[idx]))

        history: list[float] = []

        def recording_save(tree, path, _history=history):
            _history.append(tree.max_score)
            real_save(tree, path)

        monkeypatch.setattr(opt_tree_mod, "save_tree", recording_save)
        store = tmp_path / f"tree_{trial}.json"
        tree = opt_tree_mod.new_tree(ROOT_RULE)
        best = opt_tree_mod.optimize(
            tree,
            questions,
            ScriptedBackend(dict(script)),
            rewrite=stub_rewrite,
            defined_score=threshold,
            max_iterations=max_iterations,
            store_path=store,
        )
        monkeypatch.setattr(opt_tree_mod, "save_tree", real_save)

        # max_score never decreases
        assert all(a <= b for a, b in zip(history, history[1:])), history
        # returned rule's weight equals max_score and is >= the root's weight
        best_node = tree.node(tree.max_pointer)
        assert best_node.rule.rule_id == best.rule_id
        assert best_node.weight == tree.max_score
        assert tree.max_score >= tree.node(tree.root_id).weight
        # ties retain the first achiever (simulator implements strict >)
        want_version, want_seq = nodes[best_idx]
        assert tree.max_pointer == f"{KEY}/{want_version}/{want_seq}"
        # node count bounded by iterations
        assert len(tree.nodes) <= 1 + tree.iteration
        assert tree.iteration == iterations

        if trial % 10 == 0:
            # persist mid-run, reload, continue: same final best
            half_store = tmp_path / f"half_{trial}.json"
            tree_half = opt_tree_mod.new_tree(ROOT_RULE)
            opt_tree_mod.optimize(
                tree_half, questions, ScriptedBackend(dict(script)),
                rewrite=stub_rewrite, defined_score=threshold,
                max_iterations=max(0, max_iterations - 1), store_path=half_store,
            )
            resumed = opt_tree_mod.load_tree(half_store, TARGET, questions)
            resumed_best = opt_tree_mod.optimize(
                resumed, questions, ScriptedBackend(dict(script)),
                rewrite=stub_rewrite, defined_score=threshold,
                max_iterations=max_iterations, store_path=half_store,
            )
            assert resumed_best.rule_id == best.rule_id
    _report(4, "100 scripted runs: monotone max, tie rule, resume", started, 30.0)


def test_criterion_5_consequent_lock(tmp_path):
    started = time.perf_counter()
    rng = random.Random(7777)
    drifted = 0
    repairs_seen = 0
    for trial in range(50):
        article = rng.choice(LABELS.articles)
        charge = rng.choice(LABELS.charges)
        anchor = parse_rule(
            f"FORALL x (Theft(x)) -> ARTICLE({article}) CHARGE({charge})",
            rule_id=f"anchor{trial}",
        )
        other_article = rng.choice([a for a in LABELS.articles if a != article])
        adversarial = (
            f"RULE: FORALL x (Theft(x)) -> ARTICLE({other_article}) CHARGE({charge})"
        )
        good = (
            f"RULE: FORALL x ((Theft(x) AND NOT UsedForce(x))) "
            f"-> ARTICLE({article}) CHARGE({charge})"
        )
        backend = ScriptedBackend(
            {
                "cacl/keep": "keep the theft predicate",
                "cacl/improve": "stop firing on force cases",
                "cacl/synthesize": "KEEP: theft\nIMPROVE: exclude force",
                "cacl/rewrite": [adversarial, good],
            }
        )
        result = build_quiz_result(
            [_make_record("TP"), _make_record("FP")]
        )
        transcript = Transcript(tmp_path / f"transcript{trial}.jsonl")
        child = optimize_rule(
            anchor, result, backend, LABELS,
            child_rule_id=f"child{trial}", transcript=transcript,
        )
        if child.target != anchor.target:
            drifted += 1
        rewrite_entries = [
            e for e in transcript_entries(transcript) if e["tag"] == "cacl/rewrite"
        ]
        if len(rewrite_entries) >= 2 and "consequent changed" in rewrite_entries[-1]["request"]["user"]:
            repairs_seen += 1
    assert drifted == 0
    assert repairs_seen == 50
    _report(5, "50 adversarial rewrites: zero drift, repairs observed", started, 10.0)


def _make_record(outcome):
    question = _question(outcome in ("TP", "FN"))
    predicted = question.target_letter if outcome in ("TP", "FP") else "C"
    return ReasoningRecord(
        question=question,
        reasoning_text="r",
        correct_letter=question.correct_letter,
        predicted_letter=predicted,
        outcome=outcome,
    )


def test_criterion_6_metrics_oracle():
    started = time.perf_counter()
    rng = random.Random(60221)
    for trial in range(20):
        n = rng.randint(1, 20)
        label_pool = [f"L{i}" for i in range(rng.randint(2, 5))]
        # force absent-class / zero-division situations in some trials
        gold_pool = label_pool if trial % 3 else label_pool[:1]
        gold = [
            {"article": rng.choice(gold_pool), "charge": rng.choice(label_pool),
             "prison_term": rng.choice(label_pool)}
            for _ in range(n)
        ]
        pred = [
            {"article": rng.choice(label_pool), "charge": rng.choice(label_pool),
             "prison_term": rng.choice(label_pool)}
            for _ in range(n)
        ]
        report = compute_metrics(pred, gold)
        for subtask in ("article", "charge", "prison_term"):
            g = [row[subtask] for row in gold]
            p = [row[subtask] for row in pred]
            classes = sorted(set(g) | set(p))
            per_class, macro, accuracy = oracle_confusion(g, p, classes)
            m = report.subtasks[subtask]
            assert m.accuracy == accuracy
            assert m.macro_precision == macro[0]
            assert m.macro_recall == macro[1]
            assert m.macro_f1 == macro[2]
            for cls, (precision, recall, f1) in per_class.items():
                cm = m.per_class[cls]
                assert (cm.precision, cm.recall, cm.f1) == (precision, recall, f1)
    _report(6, "20 randomized sets match the confusion-matrix oracle exactly", started, 5.0)


def test_criterion_7_end_to_end_determinism(fixture_config_path, tmp_path_factory):
    run_a, run_b = _run_all_twice(fixture_config_path, tmp_path_factory)
    started = time.perf_counter()
    assert filecmp.cmp(run_a / "predictions.jsonl", run_b / "predictions.jsonl", shallow=False)
    assert filecmp.cmp(run_a / "metrics.json", run_b / "metrics.json", shallow=False)
    trees_a = sorted((run_a / "trees").glob("*.json"))
    trees_b = sorted((run_b / "trees").glob("*.json"))
    assert [p.name for p in trees_a] == [p.name for p in trees_b] and trees_a
    for pa, pb in zip(trees_a, trees_b):
        assert filecmp.cmp(pa, pb, shallow=False), pa.name
    for run_dir in (run_a, run_b):
        manifest = json.loads((run_dir / "manifest.json").read_text())
        with (run_dir / "transcript.jsonl").open() as handle:
            lines = sum(1 for _ in handle)
        assert manifest["agent_calls"] == lines
    elapsed = time.perf_counter() - started + _E2ECache.elapsed
    print(
        f"ACCEPTANCE criterion 7 PASS - two runs byte-identical, "
        f"call counts match transcripts ({elapsed:.2f}s)"
    )
    assert elapsed < 60.0


def test_criterion_8_end_to_end_efficacy(fixture_config_path, tmp_path_factory):
    run_a, _ = _run_all_twice(fixture_config_path, tmp_path_factory)
    started = time.perf_counter()
    trees = sorted((run_a / "trees").glob("*.json"))
    assert trees
    for path in trees:
        payload = json.loads(path.read_text())
        root_weight = payload["nodes"][0]["weight"]
        assert 0.4 <= root_weight <= 0.6, (path.name, root_weight)
        best = next(
            n for n in payload["nodes"] if n["node_id"] == payload["max_pointer"]
        )
        assert best["weight"] >= 0.9, (path.name, best["weight"])
        assert payload["max_score"] >= 0.9
    metrics = json.loads((run_a / "metrics.json").read_text())
    assert metrics["subtasks"]["charge"]["accuracy"] >= 0.9
    elapsed = time.perf_counter() - started + _E2ECache.elapsed
    print(
        f"ACCEPTANCE criterion 8 PASS - root scores ~0.5, refined >=0.9, "
        f"charge accuracy >=0.9 ({elapsed:.2f}s)"
    )
    assert elapsed < 60.0


def test_criterion_9_fallback_behavior():
    started = time.perf_counter()
    from rljp.candidates import CandidateList
    from rljp.examination import predict_case
    from rljp.rule_init import RuleSet

    def rule(article, charge):
        return parse_rule(
            f"FORALL x (P(x)) -> ARTICLE({article}) CHARGE({charge})",
            rule_id=f"{article}/{charge}",
        )

    rules = RuleSet()
    for article, charge in (("264", "theft"), ("263", "robbery"), ("264", "fraud")):
        rules.add(rule(article, charge))
    rules.add(parse_rule("FORALL x (P(x)) -> ARTICLE(264) TERM(b0)", rule_id="term"))
    candidates = {
        "article": CandidateList("article", (("264", 1.0),)),
        "charge": CandidateList("charge", (("theft", 1.0), ("robbery", 0.9))),
        "prison_term": CandidateList("prison_term", (("b0", 1.0),)),
    }

    # scripted case 1: all candidate rules NO, the remaining ruled label YES
    backend = ScriptedBackend(
        {
            "exam/c1/article/264": "Answer: YES",
            "exam/c1/charge/theft": "Answer: NO",
            "exam/c1/charge/robbery": "Answer: NO",
            "exam/c1/charge/fraud": "Answer: YES",
            "exam/c1/prison_term/b0": "Answer: YES",
        }
    )
    prediction = predict_case("c1", "facts", rules, candidates, LABELS, backend, seed=0)
    assert prediction.charge_id == "fraud"
    assert prediction.used_fallback["charge"] is True

    # scripted case 2: everything NO -> top-1 candidate with fallback flag
    backend = ScriptedBackend(
        {
            "exam/c2/article/264": "Answer: NO",
            "exam/c2/charge/theft": "Answer: NO",
            "exam/c2/charge/robbery": "Answer: NO",
            "exam/c2/charge/fraud": "Answer: NO",
            "exam/c2/prison_term/b0": "Answer: NO",
        }
    )
    prediction = predict_case("c2", "facts", rules, candidates, LABELS, backend, seed=0)
    assert prediction.article_id == "264"
    assert prediction.charge_id == "theft"
    assert all(prediction.used_fallback.values())
    assert "no rule satisfied" in prediction.rationale
    _report(9, "fallback traversal and terminal top-1 fallback", started, 5.0)
