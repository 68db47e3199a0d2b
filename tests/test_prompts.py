import ast
from pathlib import Path

import pytest

import rljp.prompts as prompts
from helpers import scripted
from rljp.agents import Refusal, RefusalError
from rljp.prompts import SYSTEM_LEGAL_ANALYST, ask


def _number(text: str) -> int:
    return int(text)  # ValueError on anything but an integer


class TestAsk:
    def test_one_send_under_the_system_prompt_returns_the_stripped_reply(self):
        agent = scripted({"t": "  an answer \n"})
        assert ask(agent, "question", tag="t", temperature=0.3) == "an answer"
        (request,) = agent.backend.calls
        assert (request.system_text, request.user_text) == (SYSTEM_LEGAL_ANALYST, "question")
        assert (request.temperature, request.tag) == (0.3, "t")
        assert agent.transcript.calls == 1

    def test_rejected_reply_is_followed_up_until_parsed(self):
        agent = scripted({"t": ["x", "y", "42"]})
        follow_ups = []

        def follow_up(reply, error):
            follow_ups.append((reply, type(error)))
            return f"not a number: {reply}"

        assert ask(agent, "q", tag="t", parse=_number, attempts=3, follow_up=follow_up) == 42
        assert [r.user_text for r in agent.backend.calls] == ["q", "not a number: x", "not a number: y"]
        assert follow_ups == [("x", ValueError), ("y", ValueError)]

    def test_without_follow_up_the_same_prompt_is_sent_again(self):
        agent = scripted({"t": ["x", "7"]})
        assert ask(agent, "q", tag="t", parse=_number, attempts=2) == 7
        assert [r.user_text for r in agent.backend.calls] == ["q", "q"]

    def test_last_rejection_propagates_after_all_attempts(self):
        agent = scripted({"t": ["x", "y"]})
        with pytest.raises(ValueError, match="'y'"):
            ask(agent, "q", tag="t", parse=_number, attempts=2)
        assert len(agent.backend.calls) == 2

    def test_one_attempt_does_not_re_ask(self):
        agent = scripted({"t": ["x", "1"]})
        with pytest.raises(ValueError):
            ask(agent, "q", tag="t", parse=_number)
        assert len(agent.backend.calls) == 1

    def test_agent_errors_are_not_re_asked(self):
        agent = scripted({"t": [Refusal(), "1"]})
        with pytest.raises(RefusalError):
            ask(agent, "q", tag="t", parse=_number, attempts=2)
        assert len(agent.backend.calls) == 1

    def test_complete_is_looked_up_at_call_time(self, monkeypatch):
        # a tracer that rebinds prompts.complete must see every turn
        seen = []
        original = prompts.complete

        def traced(request, agent, **kwargs):
            seen.append(request.tag)
            return original(request, agent, **kwargs)

        monkeypatch.setattr(prompts, "complete", traced)
        ask(scripted({"t": ["x", "1"]}), "q", tag="t", parse=_number, attempts=2)
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
