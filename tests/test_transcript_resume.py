"""Reopening a run's transcript from the manifest's offset.

Each manifest save records `transcript_bytes`, the transcript's length after
the flush that came with it, beside the totals of the calls those bytes
hold. A resumed run starts from those totals and reads only the bytes after
the offset; it counts every line from byte 0 when the manifest has no offset
or the file is shorter than it. These tests pin which bytes are read, and
that `agent_calls` and `usage` still match a count of every line.
"""

import io
import json
import logging
import pathlib
import shutil

import pytest

from helpers import fan_out_under_stress
from rljp.agents import ChatRequest, ChatResponse, Mark, Transcript
from rljp.config import load_config
from rljp.pipeline import PipelineRun, run_pipeline
from test_transcript_open import decoded_totals


class ReadLog(io.FileIO):
    """A raw file that logs the offset and length of every read."""

    def __init__(self, path, reads):
        super().__init__(path, "r")
        self.reads = reads

    def readinto(self, buffer):
        start = self.tell()
        count = super().readinto(buffer)
        self.reads.append((start, count))
        return count

    def readall(self):
        start = self.tell()
        data = super().readall()
        self.reads.append((start, len(data)))
        return data

    def read(self, size=-1):
        start = self.tell()
        data = super().read(size)
        self.reads.append((start, len(data)))
        return data


@pytest.fixture
def reads(monkeypatch):
    """(offset, length) of every read from a transcript.jsonl opened for bytes."""
    logged: list[tuple[int, int]] = []
    open_path = pathlib.Path.open

    def logging_open(self, mode="r", *args, **kwargs):
        if self.name == "transcript.jsonl" and mode == "rb":
            return io.BufferedReader(ReadLog(self, logged))
        return open_path(self, mode, *args, **kwargs)

    monkeypatch.setattr(pathlib.Path, "open", logging_open)
    return logged


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory, fixture_config_path):
    """The fixture run through evaluate, copied by each test that edits it."""
    run_dir = tmp_path_factory.mktemp("transcript-resume") / "run"
    run_pipeline(load_config(fixture_config_path), run_dir)
    return run_dir


@pytest.fixture
def run_dir(finished_run, tmp_path):
    return shutil.copytree(finished_run, tmp_path / "run")


def manifest(run_dir):
    return json.loads((run_dir / "manifest.json").read_text(encoding="utf-8"))


def manifest_totals(run_dir):
    recorded = manifest(run_dir)
    usage = recorded["usage"]
    return recorded["agent_calls"], usage["input_units"], usage["output_units"]


def totals(transcript):
    return transcript.calls, transcript.input_units, transcript.output_units


def append_call(path, tag, input_units, output_units):
    """One more answered call in `path`, as a crash after a flush leaves it."""
    entry = {"tag": tag, "response": "x", "input_units": input_units,
             "output_units": output_units}
    with path.open("a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")


def test_the_manifest_records_the_transcripts_length(run_dir):
    recorded = manifest(run_dir)
    assert recorded["transcript_bytes"] == (run_dir / "transcript.jsonl").stat().st_size
    assert manifest_totals(run_dir) == decoded_totals(run_dir / "transcript.jsonl")


def test_a_resume_reads_no_byte_before_the_recorded_offset(
    run_dir, fixture_config_path, reads
):
    offset = (run_dir / "transcript.jsonl").stat().st_size  # where the last save left it
    calls, input_units, output_units = manifest_totals(run_dir)
    append_call(run_dir / "transcript.jsonl", "after/the/save", 11, 7)
    size = (run_dir / "transcript.jsonl").stat().st_size
    reads.clear()
    run = PipelineRun(load_config(fixture_config_path), run_dir, resume=True)
    assert totals(run.transcript) == (calls + 1, input_units + 11, output_units + 7)
    assert reads, "the transcript was not read through Path.open"
    assert min(start for start, _ in reads) == offset
    assert sum(length for _, length in reads) == size - offset


def test_a_manifest_older_than_the_transcript_counts_every_line(
    run_dir, fixture_config_path, tmp_path
):
    config = load_config(fixture_config_path)
    older = tmp_path / "manifest.older.json"
    shutil.copyfile(run_dir / "manifest.json", older)
    (run_dir / "predictions.jsonl").unlink()
    run_pipeline(config, run_dir, resume=True)  # examine asks its questions again
    shutil.copyfile(older, run_dir / "manifest.json")  # as a crash before the saves leaves it
    run_pipeline(config, run_dir, resume=True)
    lines = (run_dir / "transcript.jsonl").read_bytes().count(b"\n")
    assert manifest(run_dir)["agent_calls"] == lines > json.loads(older.read_text())["agent_calls"]
    assert manifest_totals(run_dir) == decoded_totals(run_dir / "transcript.jsonl")
    assert manifest(run_dir)["transcript_bytes"] == (run_dir / "transcript.jsonl").stat().st_size


def test_a_transcript_shorter_than_the_offset_is_counted_from_byte_0(
    run_dir, fixture_config_path, reads, caplog
):
    path = run_dir / "transcript.jsonl"
    kept = path.read_bytes().split(b"\n")[:5]
    path.write_bytes(b"\n".join(kept) + b"\n")
    reads.clear()
    with caplog.at_level(logging.WARNING, logger="rljp.agents"):
        run = PipelineRun(load_config(fixture_config_path), run_dir, resume=True)
    assert totals(run.transcript) == decoded_totals(path)
    assert run.transcript.calls == 5 < manifest(run_dir)["agent_calls"]
    assert min(start for start, _ in reads) == 0
    assert any("shorter than the" in record.getMessage() for record in caplog.records)


def test_a_manifest_without_the_offset_is_counted_from_byte_0(
    run_dir, fixture_config_path, reads
):
    recorded = manifest(run_dir)
    del recorded["transcript_bytes"]
    recorded["agent_calls"] = 10**6  # an older manifest's totals are not read
    (run_dir / "manifest.json").write_text(json.dumps(recorded), encoding="utf-8")
    reads.clear()
    run = PipelineRun(load_config(fixture_config_path), run_dir, resume=True)
    assert totals(run.transcript) == decoded_totals(run_dir / "transcript.jsonl")
    assert min(start for start, _ in reads) == 0


def test_a_line_cut_short_after_the_offset_is_one_call_and_is_ended(tmp_path):
    path = tmp_path / "transcript.jsonl"
    first = Transcript(path)
    first.record(ChatRequest("s", "u", tag="a"), ChatResponse("x", 5, 3), retries=0,
                 backend="b")
    first.flush()
    mark = first.mark
    assert mark == Mark(path.stat().st_size, 1, 5, 3)
    with path.open("ab") as handle:
        handle.write('{"tag": "b", "response": "判决'.encode("utf-8")[:-1])
    reopened = Transcript(path, mark)
    assert totals(reopened) == (2, 5, 3)
    reopened.record(ChatRequest("s", "u", tag="c"), ChatResponse("y", 1, 1), retries=0,
                    backend="b")
    reopened.flush()
    assert totals(Transcript(path, mark)) == decoded_totals(path) == (3, 6, 4)
    assert totals(Transcript(path, reopened.mark)) == (3, 6, 4)


def test_a_transcript_without_a_mark_is_counted_from_byte_0(tmp_path):
    path = tmp_path / "transcript.jsonl"
    first = Transcript(path)
    for i in range(3):
        first.record(ChatRequest("s", "u", tag=f"t{i}"), ChatResponse("x", i, 1), retries=0,
                     backend="b")
    first.flush()
    assert totals(Transcript(path)) == decoded_totals(path) == (3, 3, 3)


def test_each_mark_describes_the_bytes_before_it_under_fan_out(tmp_path):
    path = tmp_path / "transcript.jsonl"
    _, marks = fan_out_under_stress(path)
    # the totals of the lines before each line end, by that end's offset
    ends, offset, calls, input_units, output_units = {}, 0, 0, 0, 0
    for line in path.read_bytes().splitlines(keepends=True):
        entry = json.loads(line)
        offset, calls = offset + len(line), calls + 1
        input_units += entry["input_units"]
        output_units += entry["output_units"]
        ends[offset] = Mark(offset, calls, input_units, output_units)
    assert calls == 64 * 5 and len(marks) == 64
    assert [mark.calls for mark in marks] == [5 * (i + 1) for i in range(64)]
    for mark in marks:
        assert ends.get(mark.offset) == mark
