import ast
from pathlib import Path

import pytest

import rljp.prompts as prompts
from rljp.agents import Refusal, RefusalError, ScriptedBackend, Transcript
from rljp.prompts import SYSTEM_LEGAL_ANALYST, ask


def _number(text: str) -> int:
    return int(text)  # ValueError on anything but an integer


class TestAsk:
    def test_one_send_under_the_system_prompt_returns_the_stripped_reply(self):
        backend = ScriptedBackend({"t": "  an answer \n"})
        transcript = Transcript()
        assert ask(backend, "question", tag="t", temperature=0.3, transcript=transcript) == (
            "an answer"
        )
        (request,) = backend.calls
        assert (request.system_text, request.user_text) == (SYSTEM_LEGAL_ANALYST, "question")
        assert (request.temperature, request.tag) == (0.3, "t")
        assert transcript.calls == 1

    def test_rejected_reply_is_followed_up_until_parsed(self):
        backend = ScriptedBackend({"t": ["x", "y", "42"]})
        follow_ups = []

        def follow_up(reply, error):
            follow_ups.append((reply, type(error)))
            return f"not a number: {reply}"

        assert ask(backend, "q", tag="t", parse=_number, attempts=3, follow_up=follow_up) == 42
        assert [r.user_text for r in backend.calls] == ["q", "not a number: x", "not a number: y"]
        assert follow_ups == [("x", ValueError), ("y", ValueError)]

    def test_without_follow_up_the_same_prompt_is_sent_again(self):
        backend = ScriptedBackend({"t": ["x", "7"]})
        assert ask(backend, "q", tag="t", parse=_number, attempts=2) == 7
        assert [r.user_text for r in backend.calls] == ["q", "q"]

    def test_last_rejection_propagates_after_all_attempts(self):
        backend = ScriptedBackend({"t": ["x", "y"]})
        with pytest.raises(ValueError, match="'y'"):
            ask(backend, "q", tag="t", parse=_number, attempts=2)
        assert len(backend.calls) == 2

    def test_one_attempt_does_not_re_ask(self):
        backend = ScriptedBackend({"t": ["x", "1"]})
        with pytest.raises(ValueError):
            ask(backend, "q", tag="t", parse=_number)
        assert len(backend.calls) == 1

    def test_agent_errors_are_not_re_asked(self):
        backend = ScriptedBackend({"t": [Refusal(), "1"]})
        with pytest.raises(RefusalError):
            ask(backend, "q", tag="t", parse=_number, attempts=2)
        assert len(backend.calls) == 1

    def test_complete_is_looked_up_at_call_time(self, monkeypatch):
        # a tracer that rebinds prompts.complete must see every turn
        seen = []
        original = prompts.complete

        def traced(request, agent, **kwargs):
            seen.append(request.tag)
            return original(request, agent, **kwargs)

        monkeypatch.setattr(prompts, "complete", traced)
        ask(ScriptedBackend({"t": ["x", "1"]}), "q", tag="t", parse=_number, attempts=2)
        assert seen == ["t", "t"]


def test_only_prompts_and_agents_talk_to_the_agent():
    """Every conversation turn goes through prompts.ask: no other module
    builds a ChatRequest, calls complete or names the system prompt."""
    names = {"ChatRequest", "complete", "SYSTEM_LEGAL_ANALYST"}
    package = Path(__file__).resolve().parent.parent / "src" / "rljp"
    offenders = []
    for path in sorted(package.glob("*.py")):
        if path.name in ("agents.py", "prompts.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.alias):
                used = node.name.rsplit(".", 1)[-1]
            else:
                used = getattr(node, "id", None) or getattr(node, "attr", None)
            if used in names:
                offenders.append(f"{path.name}:{getattr(node, 'lineno', '?')} {used}")
    assert offenders == []
