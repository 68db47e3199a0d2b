import math
import random
import zlib

import numpy as np
import pytest

import rljp.confusable as confusable_mod
from helpers import make_case
from rljp.agents import AgentError, RetryPolicy, TransientAgentError
from rljp.confusable import (
    GRAM_CHUNK,
    ConfusableSet,
    EmbeddingMatrix,
    HashingEmbedder,
    HttpEmbedder,
    build_confusable_set_from_embeddings,
    cosine_similarity_matrix,
    embed_cases,
    gram_hashes,
    select_hard_negatives,
)
from rljp.fol import ArticleCharge
from test_agents import FakeHttpResponse, FakeSession


def brute_force_cosine(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Scalar-loop oracle for the cosine matrix."""
    out = np.zeros((a.shape[0], b.shape[0]))
    for i in range(a.shape[0]):
        for j in range(b.shape[0]):
            dot = sum(a[i][k] * b[j][k] for k in range(a.shape[1]))
            na = math.sqrt(sum(x * x for x in a[i]))
            nb = math.sqrt(sum(x * x for x in b[j]))
            out[i, j] = dot / (na * nb)
    return out


def brute_force_negatives(sim: np.ndarray, col_ids, num):
    """Per-positive argmax, dedup keeping max similarity, top-num oracle."""
    best = {}
    for row in sim:
        top = 0
        for j in range(1, len(row)):
            if row[j] > row[top]:
                top = j
        cid = col_ids[top]
        if cid not in best or row[top] > best[cid]:
            best[cid] = row[top]
    ranked = sorted(best.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:num]


def _mine(positives, others, num):
    """The confusable set for (264, theft), mined over hashing embeddings."""
    embedder = HashingEmbedder()
    return build_confusable_set_from_embeddings(
        embed_cases(positives, embedder),
        embed_cases(others, embedder),
        positives,
        others,
        num,
        target=ArticleCharge("264", "theft"),
    )


def _matrix(rng, m, d):
    rows = np.array([[rng.uniform(-1, 1) for _ in range(d)] for _ in range(m)])
    # reroll any all-zero row (vanishingly unlikely, but the invariant forbids it)
    for i in range(m):
        while not rows[i].any():
            rows[i] = [rng.uniform(-1, 1) for _ in range(d)]
    return rows


def gram_loop(text, sizes):
    """The per-gram reference: one zlib.crc32 call per n-gram."""
    return [
        zlib.crc32(text[i : i + n].encode("utf-8"))
        for n in sizes
        for i in range(len(text) - n + 1)
    ]


# characters of 1, 2, 3 and 4 UTF-8 bytes
ALPHABET = "ab 7.é©ßж盗窃文😀𝄞𠀋"


class TestGramHashes:
    @pytest.mark.parametrize("sizes", [(1,), (3,), (1, 2, 3), (2, 4)])
    def test_each_text_matches_the_per_gram_loop(self, sizes):
        rng = random.Random(sum(sizes))
        for _ in range(40):
            texts = [
                "".join(rng.choice(ALPHABET) for _ in range(rng.choice([0, 1, 2, 3, 4, 9, 60])))
                for _ in range(rng.randint(0, 6))
            ]
            got = gram_hashes(texts, sizes)
            assert len(got) == len(texts)
            for text, hashes in zip(texts, got):
                assert hashes.dtype == np.int64
                assert hashes.tolist() == gram_loop(text, sizes), (text, sizes)

    @pytest.mark.parametrize("sizes", [(1,), (3,), (1, 2, 3), (2, 4)])
    def test_a_text_hashes_alike_alone_and_across_a_chunk_edge(self, sizes):
        text = "盗窃 a 😀𝄞 é" * 3
        alone = gram_hashes([text], sizes)[0].tolist()
        assert alone == gram_loop(text, sizes)
        for edge in range(len(text) + 1):
            # the filler ends `edge` characters before the first chunk does,
            # so the chunk edge falls that far into `text`
            filler = "x" * (GRAM_CHUNK - edge)
            batch = gram_hashes([filler, text, "tail"], sizes)
            assert batch[1].tolist() == alone, edge
            assert batch[2].tolist() == gram_loop("tail", sizes)

    def test_small_chunks_change_no_hash(self, monkeypatch):
        texts = ["", "ab", "盗窃文😀", "x", "𝄞é" * 5, "covert taking"]
        whole = [h.tolist() for h in gram_hashes(texts, (1, 2, 3))]
        for chunk in (1, 2, 3, 7):
            monkeypatch.setattr(confusable_mod, "GRAM_CHUNK", chunk)
            assert [h.tolist() for h in gram_hashes(texts, (1, 2, 3))] == whole, chunk

    def test_sizes_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            gram_hashes(["text"], (0, 3))


class TestHashingEmbedder:
    def test_identical_texts_identical_rows(self):
        embedder = HashingEmbedder()
        out = embedder.embed_texts(["same text here", "same text here"])
        assert np.array_equal(out[0], out[1])

    def test_unit_norm(self):
        embedder = HashingEmbedder()
        out = embedder.embed_texts(["abcdefg", "另一个文本", "xy"])
        norms = np.linalg.norm(out, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-6)

    def test_rows_match_the_signed_gram_loop(self, monkeypatch):
        monkeypatch.setattr(confusable_mod, "EMBED_NGRAM_SIZES", (2, 3))
        texts = ["covert taking of goods", "另一个文本", "xy", "", "𝄞 notes 😀 and 𠀋"]
        embedder = HashingEmbedder(dim=64)
        for text, row in zip(texts, embedder.embed_texts(texts)):
            expected = np.zeros(64)
            grams = [text[i : i + n] for n in (2, 3) for i in range(len(text) - n + 1)]
            for gram in grams or [text]:
                h = zlib.crc32(gram.encode("utf-8"))
                expected[h % 64] += -1.0 if h >> 31 else 1.0
            if not expected.any():
                expected[zlib.crc32(text.encode("utf-8")) % 64] = 1.0
            assert np.array_equal(row, expected / np.linalg.norm(expected))

    def test_shape(self):
        cases = [make_case(f"c{i}", f"case text {i}") for i in range(3)]
        matrix = embed_cases(cases, HashingEmbedder(dim=256))
        assert matrix.vectors.shape == (3, 256)
        assert matrix.case_ids == ("c0", "c1", "c2")

    def test_select_takes_each_case_row_in_the_given_order(self):
        cases = [make_case(f"c{i}", f"case text {i}") for i in range(4)]
        matrix = embed_cases(cases, HashingEmbedder(dim=32))
        picked = matrix.select([cases[3], cases[0], cases[3]])
        assert picked.case_ids == ("c3", "c0", "c3")
        assert np.array_equal(
            picked.vectors, np.stack([matrix.vectors[3], matrix.vectors[0], matrix.vectors[3]])
        )
        with pytest.raises(KeyError):
            matrix.select([make_case("unseen", "case text")])


class TestCosine:
    def test_identical_unit_vectors(self):
        e = EmbeddingMatrix(np.array([[1.0, 0.0]]), ("a",))
        o = EmbeddingMatrix(np.array([[1.0, 0.0]]), ("b",))
        assert cosine_similarity_matrix(e, o)[0, 0] == pytest.approx(1.0)

    def test_orthogonal(self):
        e = EmbeddingMatrix(np.array([[1.0, 0.0]]), ("a",))
        o = EmbeddingMatrix(np.array([[0.0, 1.0]]), ("b",))
        assert cosine_similarity_matrix(e, o)[0, 0] == pytest.approx(0.0)

    def test_against_scalar_loop_oracle(self):
        rng = random.Random(77)
        a = _matrix(rng, 4, 3)
        b = _matrix(rng, 5, 3)
        got = cosine_similarity_matrix(
            EmbeddingMatrix(a, tuple(f"a{i}" for i in range(4))),
            EmbeddingMatrix(b, tuple(f"b{i}" for i in range(5))),
        )
        want = brute_force_cosine(a, b)
        assert np.max(np.abs(got - want)) < 1e-9

    def test_self_similarity_unit_diagonal(self):
        rng = random.Random(3)
        a = _matrix(rng, 6, 8)
        e = EmbeddingMatrix(a, tuple(f"a{i}" for i in range(6)))
        values = cosine_similarity_matrix(e, e)
        assert np.allclose(np.diag(values), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        e = EmbeddingMatrix(np.ones((2, 3)), ("a", "b"))
        o = EmbeddingMatrix(np.ones((2, 4)), ("c", "d"))
        with pytest.raises(ValueError, match="dimension"):
            cosine_similarity_matrix(e, o)

    def test_zero_row_rejected_by_invariant(self):
        with pytest.raises(ValueError, match="zero embedding"):
            EmbeddingMatrix(np.zeros((1, 4)), ("a",))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_rejected_naming_its_case(self, bad):
        # a NaN similarity would reach confusable.json as NaN, which is not JSON
        with pytest.raises(ValueError, match="non-finite embedding vector for case b"):
            EmbeddingMatrix(np.array([[1.0, 0.0], [bad, 1.0]]), ("a", "b"))


class TestBuildConfusableSet:
    def test_shared_top_match_deduplicates(self):
        # both positives point at the same other case; dedup keeps one
        positives = [make_case("p1", "alpha alpha alpha"), make_case("p2", "alpha alpha beta")]
        others = [
            make_case("o1", "alpha alpha alpha", charge="robbery"),
            make_case("o2", "zzz yyy xxx", charge="robbery"),
            make_case("o3", "qqq www eee", charge="robbery"),
        ]
        conf = _mine(positives, others, num=3)
        ids = [c.case_id for c in conf.negatives]
        assert ids[0] == "o1"
        assert len(ids) == len(set(ids))

    def test_engineered_shared_direction(self):
        # orthogonal one-hot texts except one other that copies a positive
        positives = [make_case("p1", "unique marker phrase one")]
        others = [
            make_case("o1", "unique marker phrase one extra", charge="robbery"),
            make_case("o2", "совершенно другое содержание", charge="robbery"),
        ]
        conf = _mine(positives, others, num=1)
        assert [c.case_id for c in conf.negatives] == ["o1"]

    def test_insufficient_distinct_negatives_warns_and_returns_all(self, caplog):
        positives = [make_case(f"p{i}", "alpha beta gamma") for i in range(3)]
        others = [make_case("o1", "alpha beta gamma", charge="robbery")]
        with caplog.at_level("WARNING"):
            conf = _mine(positives, others, num=5)
        assert len(conf.negatives) == 1
        assert any("only 1 distinct" in r.message for r in caplog.records)

    def test_validation_set_is_positives_then_negatives(self):
        positives = [make_case("p1", "aaa bbb"), make_case("p2", "aaa ccc")]
        others = [make_case("o1", "aaa bbb ddd", charge="robbery")]
        conf = _mine(positives, others, num=1)
        ids = [c.case_id for c in conf.validation_cases()]
        assert ids == ["p1", "p2", "o1"]

    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(2024)
        for trial in range(50):
            m, n, d = rng.randint(1, 8), rng.randint(1, 8), rng.randint(2, 16)
            a = _matrix(rng, m, d)
            b = _matrix(rng, n, d)
            emb_pos = EmbeddingMatrix(a, tuple(f"p{i:02d}" for i in range(m)))
            emb_oth = EmbeddingMatrix(b, tuple(f"o{i:02d}" for i in range(n)))
            num = rng.randint(1, n)
            sim = cosine_similarity_matrix(emb_pos, emb_oth)
            others = [make_case(f"o{i:02d}", "fact", charge="robbery") for i in range(n)]
            got, got_sims = select_hard_negatives(sim, others, num)
            want = brute_force_negatives(sim, emb_oth.case_ids, num)
            assert [c.case_id for c in got] == [cid for cid, _ in want], f"trial {trial}"
            for cid, sim_value in want:
                assert got_sims[cid] == pytest.approx(sim_value, abs=0)


class TestConfusableSetInvariants:
    def test_label_separation_holds_for_engineered_sets(self):
        positives = [make_case("p1", "alpha bravo"), make_case("p2", "alpha charlie")]
        others = [make_case(f"o{i}", f"alpha delta {i}", charge="robbery") for i in range(4)]
        conf = _mine(positives, others, num=2)
        assert all(c.judgment.charge_id != "theft" for c in conf.negatives)
        assert all(c.judgment.charge_id == "theft" for c in conf.positives)


class TestHttpEmbedder:
    @staticmethod
    def _rows(texts, start=0):
        # rows in reverse order: the client must restore input order by index
        return {
            "data": [
                {"index": i, "embedding": [float(start + i), 1.0]}
                for i in reversed(range(len(texts)))
            ]
        }

    def _embedder(self, responses):
        session = FakeSession(responses)
        embedder = HttpEmbedder("https://models.example/v1", "embed-model", session=session)
        embedder.policy = RetryPolicy(base_delay=0.0)
        return embedder, session

    def test_150_texts_are_three_posts_with_rows_in_input_order(self):
        texts = [f"fact {i}" for i in range(150)]
        batches = [texts[0:64], texts[64:128], texts[128:150]]
        embedder, session = self._embedder(
            [FakeHttpResponse(200, self._rows(batch, 64 * i)) for i, batch in enumerate(batches)]
        )
        vectors = embedder.embed_texts(texts)
        assert [sent["json"]["input"] for sent in session.requests] == batches
        assert session.requests[0]["url"] == "https://models.example/v1/embeddings"
        assert vectors.shape == (150, 2)
        assert vectors[:, 0].tolist() == [float(i) for i in range(150)]

    def test_rate_limit_then_success_is_one_retry(self):
        embedder, session = self._embedder(
            [FakeHttpResponse(429), FakeHttpResponse(200, self._rows(["a", "b"]))]
        )
        assert embedder.embed_texts(["a", "b"]).shape == (2, 2)
        assert len(session.requests) == 2

    def test_client_error_is_not_retried(self):
        embedder, session = self._embedder([FakeHttpResponse(400, {"error": "bad"})])
        with pytest.raises(AgentError, match="rejected") as err:
            embedder.embed_texts(["a"])
        assert not isinstance(err.value, TransientAgentError)
        assert len(session.requests) == 1

    @pytest.mark.parametrize(
        "response",
        [
            FakeHttpResponse(200, text="<html>gateway</html>"),
            FakeHttpResponse(200, {"data": [{"embedding": [1.0]}]}),
            FakeHttpResponse(200, {"data": [{"index": 0, "embedding": [1.0]}]}),
        ],
        ids=["not-json", "no-index", "too-few-rows"],
    )
    def test_malformed_body_is_an_agent_error(self, response):
        embedder, session = self._embedder([response])
        with pytest.raises(AgentError, match="malformed"):
            embedder.embed_texts(["a", "b"])
        assert len(session.requests) == 1
