"""Opening an existing transcript: the totals it seeds.

A reopened `Transcript` JSON-decodes each line for its usage. These tests
hold its totals to a decode of every line, on lines that hold the usage
keys' text inside values or list the keys in another order, and pin that a
line cut short by a kill, even inside a character, is one call without
usage.
"""

import json

from rljp.agents import ChatRequest, ChatResponse, Transcript
from rljp.config import load_config
from rljp.pipeline import PipelineRun

TAIL = ', "input_units": 9, "output_units": 9}'


def decoded_totals(path):
    """Calls, input and output units of a transcript file, by decoding every
    line; a line that does not decode is a call without usage."""
    lines = path.read_bytes().split(b"\n")
    if lines[-1] == b"":
        lines.pop()  # the empty piece after the last line's end
    calls = input_units = output_units = 0
    for line in lines:
        calls += 1
        try:
            entry = json.loads(line)
        except ValueError:
            continue
        input_units += entry.get("input_units", 0)
        output_units += entry.get("output_units", 0)
    return calls, input_units, output_units


def seeded_totals(path):
    transcript = Transcript(path)
    return transcript.calls, transcript.input_units, transcript.output_units


def test_seeded_totals_equal_a_decode_of_every_line(tmp_path):
    path = tmp_path / "transcript.jsonl"
    transcript = Transcript(path)
    texts = [
        'say "yes"',
        "back\\slash\\",
        "two\nlines\r\nand a tab\t",
        "判决：有期徒刑三年 — 𠀋 😀",
        "next line, line and paragraph separators: \x85 \u2028 \u2029",
        TAIL,
        TAIL + "\n",
        '9, "output_units": 9}',
        '", "input_units": 1, "output_units": 2}',
        "",
    ]
    for i, text in enumerate(texts):
        request = ChatRequest(system_text=text, user_text=TAIL + text, tag=f"t{i}/{text}")
        transcript.record(
            request, ChatResponse(text, 1000 + i, 7 * i), retries=i % 2, backend=text or "b"
        )
    transcript.record(ChatRequest("s", "u", tag="no usage"), ChatResponse("x"), retries=0,
                      backend="b")
    transcript.flush()
    with path.open("a", encoding="utf-8") as handle:
        # a line from before usage was recorded: no usage keys at all
        handle.write(json.dumps({"tag": "old", "response": TAIL}, ensure_ascii=False) + "\n")
        # one whose usage keys are not last, which only a decode reads
        older = {"tag": "older", "input_units": 20, "output_units": 30, "response": "x"}
        handle.write(json.dumps(older) + "\n")
        # a response that ends in the usage tail's text, cut short by a kill
        cut = json.dumps({"tag": "cut", "response": TAIL}, ensure_ascii=False)
        handle.write(cut[: cut.index("}") + 1])
    expected = decoded_totals(path)
    assert expected == (
        14, 20 + sum(1000 + i for i in range(len(texts))), 30 + 7 * sum(range(len(texts))),
    )
    assert seeded_totals(path) == expected


def test_a_line_cut_inside_a_character_is_one_call_without_usage(tmp_path):
    path = tmp_path / "transcript.jsonl"
    first = Transcript(path)
    first.record(ChatRequest("s", "u", tag="a"), ChatResponse("判决", 5, 3), retries=0,
                 backend="b")
    first.flush()
    with path.open("ab") as handle:
        handle.write('{"tag": "b", "response": "判决'.encode("utf-8")[:-1])
    reopened = Transcript(path)
    assert (reopened.calls, reopened.input_units, reopened.output_units) == (2, 5, 3)
    reopened.record(ChatRequest("s", "u", tag="c"), ChatResponse("y", 1, 1), retries=0,
                    backend="b")
    reopened.flush()
    lines = path.read_bytes().split(b"\n")
    assert lines[-1] == b"" and len(lines) - 1 == reopened.calls == 3
    assert json.loads(lines[-2])["tag"] == "c"
    assert seeded_totals(path) == decoded_totals(path) == (3, 6, 4)


def test_a_run_whose_transcript_was_cut_inside_a_character_resumes(
    fixture_config_path, tmp_path
):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    entry = {"tag": "a", "response": "盗窃", "input_units": 4, "output_units": 2}
    (run_dir / "transcript.jsonl").write_bytes(
        (json.dumps(entry, ensure_ascii=False) + "\n").encode("utf-8")
        + '{"tag": "b", "response": "判决'.encode("utf-8")[:-1]
    )
    run = PipelineRun(load_config(fixture_config_path), run_dir, resume=True)
    assert (run.transcript.calls, run.transcript.input_units, run.transcript.output_units) == (
        2, 4, 2,
    )
