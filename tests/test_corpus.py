import json
import math
import random
from dataclasses import asdict

import pytest

from helpers import make_case
from rljp.corpus import (
    SUBTASKS,
    CorpusError,
    Judgment,
    LabelSpace,
    LegalCase,
    group_precedents,
    label_space,
    load_cases,
    load_label_space,
    long_subset,
    split_dataset,
    write_rejects_report,
)


def _write_jsonl(path, rows):
    with path.open("w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(row if isinstance(row, str) else json.dumps(row))
            handle.write("\n")


def _row(i, article="264", charge="theft", term="b0", fact=None):
    return {
        "case_id": f"c{i}",
        "fact": fact or f"case {i} facts",
        "meta": {
            "relevant_articles": [article],
            "accusation": [charge],
            "term_bucket": [term],
        },
    }


class TestLoadCases:
    def test_well_formed_lines(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        _write_jsonl(path, [_row(i) for i in range(3)])
        rejects = []
        cases = load_cases(path, rejects=rejects)
        assert [c.case_id for c in cases] == ["c0", "c1", "c2"]
        assert rejects == []
        assert all(c.fact_length == len(c.fact_text) for c in cases)

    def test_truncated_line_is_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        _write_jsonl(path, [_row(0), '{"case_id": "c1", "fact": "tru', _row(2)])
        rejects = []
        cases = load_cases(path, rejects=rejects)
        assert len(cases) == 2
        assert len(rejects) == 1
        assert rejects[0].line == 2
        report = tmp_path / "rejects.jsonl"
        write_rejects_report(report, rejects)
        row = json.loads(report.read_text().strip())
        assert row["line"] == 2 and row["reason"]

    def test_duplicate_case_id_is_fatal(self, tmp_path):
        path = tmp_path / "cases.jsonl"
        _write_jsonl(path, [_row(0), _row(0)])
        with pytest.raises(CorpusError, match="duplicate case_id"):
            load_cases(path)

    def test_cail_scale_label_space(self, tmp_path):
        # corpus shaped like the big public one: 82,138 samples over
        # 164 articles, 42 charges, 10 term buckets
        path = tmp_path / "big.jsonl"
        with path.open("w", encoding="utf-8") as handle:
            for i in range(82138):
                row = _row(
                    i,
                    article=str(100 + i % 164),
                    charge=f"charge_{i % 42}",
                    term=f"bucket_{i % 10}",
                )
                handle.write(json.dumps(row) + "\n")
        cases = load_cases(path)
        assert len(cases) == 82138
        labels = label_space(cases)
        assert (len(labels.articles), len(labels.charges), len(labels.prison_terms)) == (
            164,
            42,
            10,
        )


class TestSplit:
    def test_floor_allocation_10(self):
        cases = [make_case(f"c{i}", f"f{i}") for i in range(10)]
        split = split_dataset(cases, (0.8, 0.1, 0.1), seed=7)
        assert (len(split.train), len(split.validation), len(split.test)) == (8, 1, 1)

    def test_determinism(self):
        cases = [make_case(f"c{i}", f"f{i}") for i in range(10)]
        first = split_dataset(cases, (0.8, 0.1, 0.1), seed=7)
        second = split_dataset(cases, (0.8, 0.1, 0.1), seed=7)
        assert [c.case_id for c in first.train] == [c.case_id for c in second.train]
        assert [c.case_id for c in first.test] == [c.case_id for c in second.test]

    def test_cail_scale_allocation(self):
        # floor allocation recomputed by hand: floor(0.1 * 82138) = 8213 for
        # validation and test, remainder 0 extra rows absorbed by train
        n = 82138
        assert math.floor(0.1 * n) == 8213
        cases = [make_case(f"c{i}", f"f{i}") for i in range(n)]
        split = split_dataset(cases, (0.8, 0.1, 0.1), seed=1)
        assert (len(split.train), len(split.validation), len(split.test)) == (
            65712,
            8213,
            8213,
        )

    def test_partition_property(self):
        rng = random.Random(5)
        cases = [make_case(f"c{i}", f"f{i}") for i in range(rng.randint(20, 60))]
        split = split_dataset(cases, (0.6, 0.2, 0.2), seed=3)
        train = {c.case_id for c in split.train}
        val = {c.case_id for c in split.validation}
        test = {c.case_id for c in split.test}
        assert train | val | test == {c.case_id for c in cases}
        assert not (train & val) and not (train & test) and not (val & test)

    def test_too_few_cases(self):
        with pytest.raises(CorpusError):
            split_dataset([make_case("a", "f"), make_case("b", "f")], (0.8, 0.1, 0.1), 0)

    def test_bad_ratios(self):
        cases = [make_case(f"c{i}", f"f{i}") for i in range(5)]
        with pytest.raises(CorpusError):
            split_dataset(cases, (0.8, 0.1, 0.2), 0)


class TestGroupPrecedents:
    def test_article_charge_grouping(self):
        cases = [
            make_case("a", "f1", "264", "theft"),
            make_case("b", "f2", "264", "theft"),
            make_case("c", "f3", "264", "theft"),
            make_case("d", "f4", "266", "fraud"),
            make_case("e", "f5", "263", "robbery"),
        ]
        groups = group_precedents(cases, "article+charge", k=3)
        assert [c.case_id for c in groups[("264", "theft")]] == ["a", "b", "c"]
        assert set(groups) == {("264", "theft"), ("266", "fraud"), ("263", "robbery")}

    def test_k_truncates_stably(self):
        cases = [make_case(c, f"f{c}", "264", "theft") for c in "abc"]
        groups = group_precedents(cases, "article+charge", k=2)
        assert [c.case_id for c in groups[("264", "theft")]] == ["a", "b"]

    def test_article_term_mode(self):
        cases = [
            make_case("a", "f1", "264", "theft", "b0"),
            make_case("b", "f2", "264", "theft", "b1"),
        ]
        groups = group_precedents(cases, "article+prison_term", k=3)
        assert set(groups) == {("264", "b0"), ("264", "b1")}


class TestLongSubset:
    def test_top_fraction(self):
        cases = [make_case(f"c{i:03d}", "x" * (i + 1)) for i in range(100)]
        top = long_subset(cases, 0.05)
        assert len(top) == 5
        assert [c.fact_length for c in top] == [100, 99, 98, 97, 96]

    def test_tie_breaks_by_case_id(self):
        cases = [
            make_case("b", "xxxx"),
            make_case("a", "xxxx"),
            make_case("c", "xxxxxxx"),
        ]
        top = long_subset(cases, 2 / 3)
        assert [c.case_id for c in top] == ["c", "a"]

    def test_full_fraction_is_length_sorted_permutation(self):
        rng = random.Random(9)
        cases = [make_case(f"c{i}", "x" * rng.randint(1, 50)) for i in range(30)]
        everything = long_subset(cases, 1.0)
        assert len(everything) == 30
        lengths = [c.fact_length for c in everything]
        assert lengths == sorted(lengths, reverse=True)

    def test_unfiltered_cail_scale_top_5_percent(self):
        # the published long-subset counts only add up at the unfiltered
        # corpus size: 5% of 149,980 cases is 7,499, longest fact 20,397
        n = 149980
        lengths = [20397 if i == 0 else 20 + (i % 300) for i in range(n)]
        cases = [make_case(f"c{i:06d}", "x" * lengths[i]) for i in range(n)]
        top = long_subset(cases, 0.05)
        assert len(top) == 7499
        assert max(c.fact_length for c in top) == 20397

    def test_empty_input(self):
        assert long_subset([], 0.5) == []


class TestLabelSpace:
    def test_first_appearance_order(self):
        cases = [
            make_case("a", "f", "264"),
            make_case("b", "f", "264"),
            make_case("c", "f", "266"),
        ]
        labels = label_space(cases)
        assert labels.articles == ("264", "266")

    def test_empty(self):
        labels = label_space([])
        assert labels.articles == () and labels.charges == () and labels.prison_terms == ()

    def test_from_dict_reads_the_labels_file_and_inverts_asdict(self, fixture_dir):
        path = fixture_dir / "labels.json"
        labels = LabelSpace.from_dict(json.loads(path.read_text(encoding="utf-8")))
        assert labels == load_label_space(path)
        assert LabelSpace.from_dict(asdict(labels)) == labels

    def test_fact_length_invariant(self):
        with pytest.raises(ValueError):
            LegalCase(case_id="x", fact_text="abc", fact_length=5)
        with pytest.raises(ValueError):
            LegalCase(case_id="x", fact_text="")


class TestSubtaskLabels:
    JUDGMENT = Judgment("264", "theft", "b0")
    LABELS = LabelSpace(("264", "263"), ("theft", "robbery", "fraud"), ("b0",))

    def test_subtasks_name_the_judgment_fields(self):
        named = {
            "article": (self.JUDGMENT.article_id, self.LABELS.articles),
            "charge": (self.JUDGMENT.charge_id, self.LABELS.charges),
            "prison_term": (self.JUDGMENT.prison_term_bucket, self.LABELS.prison_terms),
        }
        assert SUBTASKS == tuple(named)
        for subtask in SUBTASKS:
            assert (self.JUDGMENT.label(subtask), self.LABELS.of(subtask)) == named[subtask]

    def test_unknown_subtask_rejected(self):
        with pytest.raises(ValueError, match="unknown subtask"):
            self.JUDGMENT.label("sentence")
        with pytest.raises(ValueError, match="unknown subtask"):
            self.LABELS.of("sentence")
