import base64
import json
import logging
import re
import zlib

import numpy as np
import pytest

import rljp.candidates as candidates
from rljp.candidates import SUBTASKS, CharNgramPerceptron, ProviderNotTrainedError
from rljp.config import load_config
from rljp.corpus import LabelSpace, load_cases, load_label_space, split_dataset
from rljp.pipeline import run_pipeline
from rljp.synthetic import write_corpus


def dense_pair(w):
    """A HASH_DIM-wide weight matrix as the (columns, rows) pair a provider
    holds: every column kept."""
    return np.arange(w.shape[1]), w


def expanded(provider, subtask):
    """A provider's weights for `subtask` as a labels x HASH_DIM matrix."""
    columns, rows = provider._weights[subtask]
    w = np.zeros((len(rows), candidates.HASH_DIM))
    w[:, columns] = rows
    return w


def fixed_scorer(table):
    """A prescreener whose charge margins are in proportion to `table` for
    any non-empty fact: each label's weights are its table value in every
    column, and a fact's feature values are positive."""
    labels = LabelSpace(("264",), tuple(table), ("b0",))
    provider = CharNgramPerceptron(labels)
    for subtask in SUBTASKS:
        values = [table[label] for label in labels.of(subtask)] if subtask == "charge" else [0.0]
        provider._weights[subtask] = dense_pair(
            np.repeat(np.array(values)[:, None], candidates.HASH_DIM, axis=1)
        )
    return provider


class TestCandidateLabels:
    def test_single_hot_label_first(self):
        provider = fixed_scorer({"a": 0.0, "b": 1.0, "c": 0.0})
        [ranked] = provider.top_labels(["fact"], k=2)
        assert ranked["charge"][0] == "b"
        assert len(ranked["charge"]) == 2

    def test_k_larger_than_label_count_returns_all(self):
        provider = fixed_scorer({"a": 0.2, "b": 0.1})
        [ranked] = provider.top_labels(["fact"], k=10)
        assert ranked == {"article": ("264",), "charge": ("a", "b"), "prison_term": ("b0",)}

    def test_ties_resolve_by_label_order(self):
        provider = fixed_scorer({"z_first": 0.5, "a_second": 0.5})
        [ranked] = provider.top_labels(["fact"], k=2)
        # the label space lists z_first first
        assert ranked["charge"] == ("z_first", "a_second")
        # enough tied labels that an unstable sort would reorder some; they
        # tie at 0.0, as labels the perceptron never updated do
        tied = [f"t{i:02d}" for i in range(80, 0, -1)]
        table = {**dict.fromkeys(tied[:40], 0.0), "hot": 0.9, **dict.fromkeys(tied[40:], 0.0)}
        [ranked] = fixed_scorer(table).top_labels(["fact"], k=len(table))
        assert ranked["charge"] == ("hot", *tied)

    def test_equal_non_zero_weight_rows_tie_on_every_fact(self, monkeypatch):
        # a BLAS mat-vec rounds some rows of a block differently, which split
        # equal rows' margins for many label counts and fact lengths
        monkeypatch.setattr(candidates, "HASH_DIM", 512)
        rng = np.random.default_rng(0)
        row = rng.normal(size=512)
        facts = ["".join(rng.choice(list("abcdefghij"), size=n)) for n in range(5, 200, 9)]
        for n_labels in (7, 26, 51, 102):
            labels = LabelSpace(("264",), tuple(f"c{i:03d}" for i in range(n_labels)), ("b0",))
            provider = CharNgramPerceptron(labels)
            for subtask in SUBTASKS:
                provider._weights[subtask] = dense_pair(np.tile(row, (len(labels.of(subtask)), 1)))
            margins = provider.scores(facts)["charge"]
            assert (margins == margins[:, :1]).all(), n_labels
            for ranked in provider.top_labels(facts, k=n_labels):
                assert ranked["charge"] == labels.charges, n_labels

    def test_no_facts_rank_to_an_empty_list(self):
        provider = fixed_scorer({"a": 0.1, "b": 0.2})
        assert provider.top_labels([], k=2) == []
        assert {subtask: m.shape for subtask, m in provider.scores([]).items()} == {
            "article": (0, 1), "charge": (0, 2), "prison_term": (0, 1),
        }

    def test_k_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="k must be at least 1"):
            fixed_scorer({"a": 0.1}).top_labels(["fact"], k=0)

    def test_scores_non_increasing(self):
        table = {"a": 0.1, "b": 0.9, "c": 0.5}
        [ranked] = fixed_scorer(table).top_labels(["fact"], k=3)
        scores = [table[label] for label in ranked["charge"]]
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
            provider.scores(["fact"])

    def test_learns_separable_charges(self):
        provider = CharNgramPerceptron(self._tiny_labels())
        provider.train(self._tiny_cases())
        facts = ["covert taking of goods number 99", "violent seizure with force number 99"]
        # a row per fact, a column per charge: theft, robbery
        (theft, robbery) = provider.scores(facts)["charge"]
        assert theft[0] > theft[1]
        assert robbery[1] > robbery[0]

    def test_save_load_reproduces_scores(self, tmp_path):
        provider = CharNgramPerceptron(self._tiny_labels())
        provider.train(self._tiny_cases())
        provider.save(tmp_path / "provider.json")
        loaded = CharNgramPerceptron.load(tmp_path / "provider.json")
        facts = ["covert taking of goods number 5", "violent seizure with force number 5"]
        ours, theirs = loaded.scores(facts), provider.scores(facts)
        assert all(np.array_equal(ours[subtask], theirs[subtask]) for subtask in SUBTASKS)

    def test_a_batch_is_featurized_in_one_call(self, monkeypatch):
        provider = CharNgramPerceptron(self._tiny_labels())
        provider.train(self._tiny_cases())
        facts = ["covert taking of goods number 5", "violent seizure with force number 5"]
        alone = [provider.top_labels([fact], k=2)[0] for fact in facts]
        calls = []
        features = provider._features
        monkeypatch.setattr(
            provider, "_features", lambda texts: calls.append(list(texts)) or features(texts)
        )
        assert provider.top_labels(facts, k=2) == alone
        assert calls == [facts]

    def test_gold_in_top_10_on_synthetic_50(self, tmp_path):
        # desk-scale check: top-10 prescreening keeps the gold label for at
        # least 90% of the training cases on a 50-case synthetic corpus
        write_corpus(tmp_path, num_cases=50, seed=3)
        cases = load_cases(tmp_path / "cases.jsonl")
        labels = load_label_space(tmp_path / "labels.json")
        provider = CharNgramPerceptron(labels)
        provider.train(cases)
        ranked = provider.top_labels([case.fact_text for case in cases], k=10)
        for subtask in SUBTASKS:
            hits = sum(
                case.judgment.label(subtask) in top10[subtask] for case, top10 in zip(cases, ranked)
            )
            assert hits / len(cases) >= 0.9, subtask


def _dense_features(text):
    """The dense feature vector the sparse one must equal."""
    x = np.zeros(candidates.HASH_DIM, dtype=np.float64)
    for n in candidates.NGRAM_SIZES:
        for i in range(len(text) - n + 1):
            x[zlib.crc32(text[i : i + n].encode("utf-8")) % candidates.HASH_DIM] += 1.0
    norm = np.linalg.norm(x)
    return x / norm if norm else x


def _dense_train(labels, cases):
    """Averaged weights as a dense perceptron sums them: the whole matrix
    added up after every step of every epoch."""
    features = np.stack([_dense_features(case.fact_text) for case in cases])
    epochs = candidates.EPOCHS
    weights = {}
    for subtask in SUBTASKS:
        label_list = labels.of(subtask)
        index = {label: i for i, label in enumerate(label_list)}
        y = np.array([index[case.judgment.label(subtask)] for case in cases])
        n_labels = len(label_list)
        w = np.zeros((n_labels, candidates.HASH_DIM))
        accum = np.zeros_like(w)
        for _ in range(epochs):
            for row in range(len(cases)):
                x = features[row]
                margins = w @ x
                target = np.full(n_labels, -1.0)
                target[y[row]] = 1.0
                wrong = (margins * target) <= 0
                if wrong.any():
                    w[wrong] += np.outer(target[wrong], x)
                accum += w
        weights[subtask] = accum / (epochs * len(cases))
    return weights


def _every_epoch_train(provider, cases):
    """Averaged weights in closed form over labels x HASH_DIM matrices, with
    every epoch run, and per subtask the 1-based epochs that made an update."""
    features = provider._features([case.fact_text for case in cases])
    epochs = candidates.EPOCHS
    steps = epochs * len(cases)
    weights, updating = {}, {}
    for subtask in SUBTASKS:
        label_list = provider.labels.of(subtask)
        y = [label_list.index(case.judgment.label(subtask)) for case in cases]
        w = np.zeros((len(label_list), candidates.HASH_DIM))
        accum = np.zeros_like(w)
        updating[subtask] = set()
        step = 0
        for epoch in range(1, epochs + 1):
            for (idx, vals), gold in zip(features, y):
                margins = w[:, idx] @ vals
                target = np.full(len(label_list), -1.0)
                target[gold] = 1.0
                wrong = np.flatnonzero((margins * target) <= 0)
                if wrong.size:
                    block = np.ix_(wrong, idx)
                    delta = np.outer(target[wrong], vals)
                    w[block] += delta
                    accum[block] += (steps - step) * delta
                    updating[subtask].add(epoch)
                step += 1
        weights[subtask] = accum / steps
    return weights, updating


@pytest.fixture(scope="module")
def corpus_120(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus_120")
    write_corpus(directory, num_cases=120, seed=7)
    return load_cases(directory / "cases.jsonl"), load_label_space(directory / "labels.json")


@pytest.fixture(scope="module")
def trained_pair(corpus_120):
    """The trained provider and one holding the dense reference's weights,
    both averaged over 16 epochs: the corpus converges with epoch 12 making
    no update, so the trainer's converged path is the one compared, and the
    dense reference runs 16 epochs rather than the 50 of the cap."""
    cases, labels = corpus_120
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(candidates, "EPOCHS", 16)
        provider = CharNgramPerceptron(labels)
        provider.train(cases)
        dense = CharNgramPerceptron(labels)
        dense._weights = {
            subtask: dense_pair(w) for subtask, w in _dense_train(labels, cases).items()
        }
    return provider, dense


class TestSparseEqualsDense:
    def test_features_match_the_dense_vector(self, corpus_120):
        cases, labels = corpus_120
        provider = CharNgramPerceptron(labels)
        texts = [case.fact_text for case in cases[:20]] + ["", "a", "aaaa 盗窃", "𝄞 😀 𠀋 notes"]
        for text, (idx, vals) in zip(texts, provider._features(texts)):
            dense = _dense_features(text)
            assert list(idx) == sorted(set(idx.tolist()))
            assert np.array_equal(dense[idx], vals)
            rest = np.ones(candidates.HASH_DIM, dtype=bool)
            rest[idx] = False
            assert not dense[rest].any()

    def test_averaged_weights_match_the_dense_sum(self, trained_pair):
        provider, dense = trained_pair
        assert set(provider._weights) == set(SUBTASKS)
        for subtask in SUBTASKS:
            ours, theirs = expanded(provider, subtask), expanded(dense, subtask)
            assert ours.shape == theirs.shape
            assert np.abs(ours - theirs).max() <= 1e-12, subtask

    def test_top_10_rankings_are_equal(self, corpus_120, trained_pair):
        cases, _ = corpus_120
        provider, dense = trained_pair
        facts = [case.fact_text for case in cases]
        ours, theirs = provider.top_labels(facts, k=10), dense.top_labels(facts, k=10)
        for case, mine, other in zip(cases, ours, theirs):
            assert mine == other, case.case_id


class TestArtifactFormats:
    def test_artifact_keeps_only_non_zero_columns(self, trained_pair, tmp_path):
        provider, _ = trained_pair
        provider.save(tmp_path / "candidates.json")
        stored = json.loads((tmp_path / "candidates.json").read_text())["weights"]
        for subtask in SUBTASKS:
            w = expanded(provider, subtask)
            columns = np.flatnonzero(w.any(axis=0))
            assert stored[subtask]["columns"] == columns.tolist()
            rows = np.frombuffer(base64.b64decode(stored[subtask]["rows"]), dtype="<f8")
            assert rows.size == w.shape[0] * len(columns)
            assert np.array_equal(rows.reshape(w.shape[0], len(columns)), w[:, columns])

    def test_save_then_load_then_save_writes_the_same_bytes(self, trained_pair, tmp_path):
        provider, _ = trained_pair
        provider.save(tmp_path / "first.json")
        CharNgramPerceptron.load(tmp_path / "first.json").save(tmp_path / "second.json")
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()

    def test_negative_zero_and_subnormal_weights_round_trip_bit_for_bit(self, tmp_path):
        tiny = np.finfo(np.float64).smallest_subnormal
        provider = fixed_scorer({"a": -0.0, "b": tiny, "c": -3 * tiny, "d": 0.1})
        columns, rows = provider._weights["charge"]
        rows = rows.copy()
        rows[0, ::2] = 1.0  # label a: alternating 1.0 and -0.0
        rows[3, 1] = np.finfo(np.float64).tiny / 2
        provider._weights["charge"] = (columns, rows)
        provider.save(tmp_path / "first.json")
        loaded = CharNgramPerceptron.load(tmp_path / "first.json")
        loaded.save(tmp_path / "second.json")
        assert (tmp_path / "first.json").read_bytes() == (tmp_path / "second.json").read_bytes()
        for subtask in SUBTASKS:
            assert loaded._weights[subtask][1].tobytes() == provider._weights[subtask][1].tobytes()
        assert np.signbit(loaded._weights["charge"][1][0, 1])
        facts = ["fact", "another fact", ""]
        ours, theirs = loaded.scores(facts), provider.scores(facts)
        for subtask in SUBTASKS:
            assert ours[subtask].tobytes() == theirs[subtask].tobytes(), subtask
        assert loaded.top_labels(facts, k=4) == provider.top_labels(facts, k=4)


class TestCompactWeights:
    def test_a_fact_with_no_weighted_gram_scores_zero_for_every_label(self):
        provider = fixed_scorer({"a": 0.3, "b": -0.7, "c": 0.1})
        fact = "fact"
        [(idx, _)] = provider._features([fact])
        # weights in every column but the fact's
        for subtask, (columns, rows) in provider._weights.items():
            kept = np.setdiff1d(columns, idx)
            provider._weights[subtask] = (kept, rows[:, kept])
        for subtask, margins in provider.scores([fact]).items():
            assert margins.tolist() == [[0.0] * len(provider.labels.of(subtask))], subtask

    def test_trained_weights_are_a_block_over_the_touched_columns(self, tmp_path):
        write_corpus(tmp_path, num_cases=600, seed=1)
        cases = load_cases(tmp_path / "cases.jsonl")
        train = split_dataset(cases, (0.8, 0.1, 0.1), seed=1).train
        assert len(train) == 480
        provider = CharNgramPerceptron(load_label_space(tmp_path / "labels.json"))
        provider.train(train)
        touched = np.unique(np.concatenate([idx for idx, _ in provider._features(
            [case.fact_text for case in train]
        )]))
        held = 0
        for subtask in SUBTASKS:
            columns, rows = provider._weights[subtask]
            assert rows.shape == (len(provider.labels.of(subtask)), len(columns)), subtask
            assert np.isin(columns, touched).all(), subtask
            held += columns.nbytes + rows.nbytes
        assert held < 1_000_000

    def test_training_stops_after_an_epoch_with_no_update(self, corpus_120, monkeypatch):
        monkeypatch.setattr(candidates, "EPOCHS", 12)
        cases, labels = corpus_120
        provider = CharNgramPerceptron(labels)
        provider.train(cases)
        reference, updating = _every_epoch_train(provider, cases)
        # article and charge stop making updates before the last epoch,
        # prison term only in it, so both the stop and the full run are met
        first_quiet = {
            subtask: min(set(range(1, 13)) - epochs) for subtask, epochs in updating.items()
        }
        assert first_quiet["article"] < 12 and first_quiet["charge"] < 12
        assert first_quiet["prison_term"] == 12
        for subtask in SUBTASKS:
            assert np.array_equal(expanded(provider, subtask), reference[subtask]), subtask


def _train_log(caplog):
    [message] = [r.getMessage() for r in caplog.records if r.name == "rljp.candidates"]
    return message


class TestConvergence:
    def test_the_log_says_when_training_stops_at_the_cap(self, caplog, monkeypatch):
        monkeypatch.setattr(candidates, "EPOCHS", 1)
        tiny = TestCharNgramPerceptron()
        provider = CharNgramPerceptron(tiny._tiny_labels())
        with caplog.at_level(logging.INFO, logger="rljp.candidates"):
            provider.train(tiny._tiny_cases())
        assert "stopped at the 1-epoch cap without converging" in _train_log(caplog)

    def test_a_converged_prescreener_saves_exam_calls(self, tmp_path, caplog):
        # the agent-latency bench shape: 240 cases at 0.7/0.1/0.2, seed 1; a
        # prescreener averaged over 5 unconverged epochs ranked the gold
        # article first for 22 of 48 test cases and cost 3.44 checks a case
        write_corpus(tmp_path / "corpus", num_cases=240, seed=1)
        (tmp_path / "config.json").write_text(json.dumps({
            "seed": 1,
            "data": {
                "cases_path": "corpus/cases.jsonl",
                "labels_path": "corpus/labels.json",
                "ratios": [0.7, 0.1, 0.2],
            },
            "providers": {"agent": {"kind": "synthetic-oracle", "world_path": "corpus/world.json"}},
        }))
        config = load_config(tmp_path / "config.json")
        run_dir = tmp_path / "run"
        with caplog.at_level(logging.INFO, logger="rljp.candidates"):
            run_pipeline(config, run_dir, last_stage="train-candidates")
        quiet = re.search(r"converged: epoch (\d+) of (\d+) made no update", _train_log(caplog))
        assert quiet and int(quiet[1]) < int(quiet[2]), _train_log(caplog)
        run_pipeline(config, run_dir, resume=True)
        checks = (run_dir / "transcript.jsonl").read_text(encoding="utf-8").count('{"tag": "exam/')
        test_cases = len(json.loads((run_dir / "split.json").read_text())["test"])
        assert test_cases == 48
        assert checks <= 2.2 * test_cases


def _break(payload, case):
    """Break `payload` in the way `case` names; returns what the error names
    after the file: the broken subtask's weights, or the size that differs."""
    weights = payload["weights"]
    columns, rows = weights["charge"]["columns"], weights["charge"]["rows"]
    blob = base64.b64decode(rows)
    if case == "one-row-for-every-label":
        # the bytes of the first label's row only
        weights["charge"]["rows"] = base64.b64encode(blob[: 8 * len(columns)]).decode()
    elif case == "missing-subtask":
        del weights["charge"]
    elif case == "extra-subtask":
        weights["verdict"] = weights["charge"]
    elif case == "duplicate-column":
        columns[1] = columns[0]
    elif case == "decreasing-columns":
        columns[0], columns[1] = columns[1], columns[0]
    elif case == "column-at-hash-dim":
        columns[-1] = payload["hash_dim"]
    elif case == "negative-column":
        columns[0] = -1
    elif case == "float-column":
        columns[0] = float(columns[0])
    elif case == "short-row":
        # the base64 text cut one character short
        weights["charge"]["rows"] = rows[:-1]
    elif case == "rows-a-weight-short":
        weights["charge"]["rows"] = base64.b64encode(blob[:-8]).decode()
    elif case == "rows-with-a-non-base64-character":
        weights["charge"]["rows"] = "*" + rows[1:]
    elif case == "rows-as-decimal-lists":
        n_labels = len(payload["labels"]["charges"])
        weights["charge"]["rows"] = np.frombuffer(blob).reshape(n_labels, -1).tolist()
    elif case == "hashed-under-another-hash-dim":
        payload["hash_dim"] = 2048
        return "hash_dim is 2048"
    elif case == "hashed-under-other-ngram-sizes":
        payload["ngram_sizes"] = [2, 3]
        return "ngram_sizes is [2, 3]"
    return f"weights for subtask {'verdict' if case == 'extra-subtask' else 'charge'!r}"


class TestLoadValidation:
    @pytest.fixture
    def saved(self, tmp_path):
        """A tiny trained provider's artifact, as its JSON payload."""
        tiny = TestCharNgramPerceptron()
        provider = CharNgramPerceptron(tiny._tiny_labels())
        provider.train(tiny._tiny_cases())
        provider.save(tmp_path / "candidates.json")
        return json.loads((tmp_path / "candidates.json").read_text())

    @pytest.mark.parametrize(
        "case",
        [
            "one-row-for-every-label", "missing-subtask", "extra-subtask", "duplicate-column",
            "decreasing-columns", "column-at-hash-dim", "negative-column", "float-column",
            "short-row", "rows-a-weight-short", "rows-with-a-non-base64-character",
            "rows-as-decimal-lists", "hashed-under-another-hash-dim",
            "hashed-under-other-ngram-sizes",
        ],
    )
    def test_a_malformed_artifact_is_rejected_naming_file_and_subtask(self, saved, tmp_path, case):
        named = _break(saved, case)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(saved))
        with pytest.raises(ValueError, match=re.escape(f"{path}: {named}")):
            CharNgramPerceptron.load(path)
