import json
import zlib

import numpy as np
import pytest

from rljp.candidates import (
    SUBTASKS,
    CharNgramPerceptron,
    ProviderNotTrainedError,
    _gold_label,
    candidate_labels,
)
from rljp.corpus import LabelSpace, load_cases, load_label_space
from rljp.synthetic import write_corpus


class FixedScorer:
    def __init__(self, table):
        self.table = table

    def scores(self, fact_text, subtask):
        return dict(self.table)


class TestCandidateLabels:
    def test_single_hot_label_first(self):
        provider = FixedScorer({"a": 0.0, "b": 1.0, "c": 0.0})
        ranked = candidate_labels("fact", "charge", provider, k=2)
        assert ranked.entries[0] == ("b", 1.0)
        assert len(ranked.entries) == 2

    def test_k_larger_than_label_count_returns_all(self):
        provider = FixedScorer({"a": 0.2, "b": 0.1})
        ranked = candidate_labels("fact", "charge", provider, k=10)
        assert [label for label, _ in ranked.entries] == ["a", "b"]

    def test_ties_resolve_by_label_order(self):
        provider = FixedScorer({"z_first": 0.5, "a_second": 0.5})
        ranked = candidate_labels("fact", "charge", provider, k=2)
        # insertion order of the scores dict is the label order
        assert [label for label, _ in ranked.entries] == ["z_first", "a_second"]

    def test_unknown_subtask(self):
        with pytest.raises(ValueError):
            candidate_labels("fact", "verdict", FixedScorer({}), k=1)

    def test_scores_non_increasing(self):
        provider = FixedScorer({"a": 0.1, "b": 0.9, "c": 0.5})
        ranked = candidate_labels("fact", "charge", provider, k=3)
        scores = [s for _, s in ranked.entries]
        assert scores == sorted(scores, reverse=True)


class TestCharNgramPerceptron:
    def _tiny_labels(self):
        return LabelSpace(("264", "263"), ("theft", "robbery"), ("b0", "b1"))

    def _tiny_cases(self):
        from helpers import make_case

        cases = []
        for i in range(8):
            if i % 2 == 0:
                cases.append(
                    make_case(f"t{i}", f"covert taking of goods number {i}", "264", "theft", "b0")
                )
            else:
                cases.append(
                    make_case(f"r{i}", f"violent seizure with force number {i}", "263", "robbery", "b1")
                )
        return cases

    def test_untrained_provider_errors(self):
        provider = CharNgramPerceptron(self._tiny_labels())
        with pytest.raises(ProviderNotTrainedError):
            provider.scores("fact", "charge")

    def test_learns_separable_charges(self):
        provider = CharNgramPerceptron(self._tiny_labels(), hash_dim=4096, epochs=5)
        provider.train(self._tiny_cases())
        theft_scores = provider.scores("covert taking of goods number 99", "charge")
        assert theft_scores["theft"] > theft_scores["robbery"]
        robbery_scores = provider.scores("violent seizure with force number 99", "charge")
        assert robbery_scores["robbery"] > robbery_scores["theft"]

    def test_save_load_reproduces_scores(self, tmp_path):
        provider = CharNgramPerceptron(self._tiny_labels(), hash_dim=2048, epochs=3)
        provider.train(self._tiny_cases())
        provider.save(tmp_path / "provider.json")
        loaded = CharNgramPerceptron.load(tmp_path / "provider.json")
        fact = "covert taking of goods number 5"
        assert loaded.scores(fact, "charge") == provider.scores(fact, "charge")

    def test_gold_in_top_10_on_synthetic_50(self, tmp_path):
        # desk-scale check: top-10 prescreening keeps the gold label for at
        # least 90% of the training cases on a 50-case synthetic corpus
        write_corpus(tmp_path, num_cases=50, seed=3)
        cases = load_cases(tmp_path / "cases.jsonl")
        labels = load_label_space(tmp_path / "labels.json")
        provider = CharNgramPerceptron(labels)
        provider.train(cases)
        for subtask, gold_of in (
            ("article", lambda c: c.judgment.article_id),
            ("charge", lambda c: c.judgment.charge_id),
            ("prison_term", lambda c: c.judgment.prison_term_bucket),
        ):
            hits = 0
            for case in cases:
                top10 = {
                    label
                    for label, _ in candidate_labels(
                        case.fact_text, subtask, provider, k=10
                    ).entries
                }
                hits += gold_of(case) in top10
            assert hits / len(cases) >= 0.9, subtask


def _dense_features(provider, text):
    """The dense feature vector the sparse one must equal."""
    x = np.zeros(provider.hash_dim, dtype=np.float64)
    for n in provider.ngram_sizes:
        for i in range(len(text) - n + 1):
            x[zlib.crc32(text[i : i + n].encode("utf-8")) % provider.hash_dim] += 1.0
    norm = np.linalg.norm(x)
    return x / norm if norm else x


def _dense_train(provider, cases):
    """Averaged weights as a dense perceptron sums them: the whole matrix
    added up after every step."""
    features = np.stack([_dense_features(provider, case.fact_text) for case in cases])
    weights = {}
    for subtask in SUBTASKS:
        label_list = provider.labels.of(subtask)
        index = {label: i for i, label in enumerate(label_list)}
        y = np.array([index[_gold_label(case, subtask)] for case in cases])
        n_labels = len(label_list)
        w = np.zeros((n_labels, provider.hash_dim))
        accum = np.zeros_like(w)
        for _ in range(provider.epochs):
            for row in range(len(cases)):
                x = features[row]
                margins = w @ x
                target = np.full(n_labels, -1.0)
                target[y[row]] = 1.0
                wrong = (margins * target) <= 0
                if wrong.any():
                    w[wrong] += np.outer(target[wrong], x)
                accum += w
        weights[subtask] = accum / (provider.epochs * len(cases))
    return weights


@pytest.fixture(scope="module")
def corpus_120(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus_120")
    write_corpus(directory, num_cases=120, seed=7)
    return load_cases(directory / "cases.jsonl"), load_label_space(directory / "labels.json")


@pytest.fixture(scope="module")
def trained_pair(corpus_120):
    cases, labels = corpus_120
    provider = CharNgramPerceptron(labels)
    provider.train(cases)
    dense = CharNgramPerceptron(labels)
    dense._weights = _dense_train(dense, cases)
    return provider, dense


class TestSparseEqualsDense:
    def test_features_match_the_dense_vector(self, corpus_120):
        cases, labels = corpus_120
        provider = CharNgramPerceptron(labels)
        for text in [case.fact_text for case in cases[:20]] + ["", "a", "aaaa 盗窃"]:
            idx, vals = provider._features(text)
            dense = _dense_features(provider, text)
            assert list(idx) == sorted(set(idx.tolist()))
            assert np.array_equal(dense[idx], vals)
            rest = np.ones(provider.hash_dim, dtype=bool)
            rest[idx] = False
            assert not dense[rest].any()

    def test_averaged_weights_match_the_dense_sum(self, trained_pair):
        provider, dense = trained_pair
        assert set(provider._weights) == set(SUBTASKS)
        for subtask in SUBTASKS:
            ours, theirs = provider._weights[subtask], dense._weights[subtask]
            assert ours.shape == theirs.shape
            assert np.abs(ours - theirs).max() <= 1e-12, subtask

    def test_top_10_rankings_are_equal(self, corpus_120, trained_pair):
        cases, _ = corpus_120
        provider, dense = trained_pair
        for case in cases:
            for subtask in SUBTASKS:
                ours = candidate_labels(case.fact_text, subtask, provider, k=10)
                theirs = candidate_labels(case.fact_text, subtask, dense, k=10)
                assert [label for label, _ in ours.entries] == [
                    label for label, _ in theirs.entries
                ], (case.case_id, subtask)


class TestArtifactFormats:
    def test_artifact_keeps_only_non_zero_columns(self, trained_pair, tmp_path):
        provider, _ = trained_pair
        provider.save(tmp_path / "candidates.json")
        stored = json.loads((tmp_path / "candidates.json").read_text())["weights"]
        for subtask in SUBTASKS:
            w = provider._weights[subtask]
            assert stored[subtask]["columns"] == np.flatnonzero(w.any(axis=0)).tolist()
            assert len(stored[subtask]["rows"]) == w.shape[0]

    def test_dense_artifact_scores_equal_the_sparse_round_trip(self, trained_pair, tmp_path):
        provider, _ = trained_pair
        provider.save(tmp_path / "sparse.json")
        payload = json.loads((tmp_path / "sparse.json").read_text())
        payload["weights"] = {
            subtask: w.tolist() for subtask, w in provider._weights.items()
        }
        (tmp_path / "dense.json").write_text(json.dumps(payload) + "\n")
        sparse = CharNgramPerceptron.load(tmp_path / "sparse.json")
        dense = CharNgramPerceptron.load(tmp_path / "dense.json")
        for fact in ("covert taking of goods", "obtained money from the victim", ""):
            for subtask in SUBTASKS:
                assert dense.scores(fact, subtask) == sparse.scores(fact, subtask)
                assert sparse.scores(fact, subtask) == provider.scores(fact, subtask)
