"""Outside-in tracing of rljp: the program is not edited.

`instrument` replaces public rljp functions with timing wrappers, on the
defining module and on every rljp module that imported them by name. Each
wrapped call counts toward its layer's calls, inclusive time and self time
(inclusive time minus the time of wrapped calls it made on the same thread).
Calls at layer boundaries also keep a span in memory; hot leaf functions
(rule rendering and parsing, prompt rendering, perceptron scoring) only
count. Spans are written out once, after the run.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

from patch import replace_function, replace_method


class _ThreadState:
    def __init__(self) -> None:
        self.ident = threading.get_ident()
        self.stack: list[list[float]] = []  # child time of each open call
        self.opaque = 0
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, failed]
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.stage: str | None = None

    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._threads.append(state)
        return state

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def enter(self, opaque: bool = False):
        """Open a call; returns a token for `exit`, or None inside an opaque
        call, whose callees belong to it and are not traced."""
        state = self._state()
        if state.opaque:
            return None
        frame = [0.0]
        state.stack.append(frame)
        if opaque:
            state.opaque += 1
        return state, frame, opaque, time.perf_counter()

    def exit(self, token, name: str, *, failed: bool = False, span: bool = True) -> float:
        end = time.perf_counter()
        if token is None:
            return 0.0
        state, frame, opaque, start = token
        if opaque:
            state.opaque -= 1
        state.stack.pop()
        seconds = end - start
        if state.stack:
            state.stack[-1][0] += seconds
        stats = state.stats.get(name)
        if stats is None:
            stats = state.stats[name] = [0, 0.0, 0.0, 0]
        stats[0] += 1
        stats[1] += seconds
        stats[2] += seconds - frame[0]
        stats[3] += failed
        if span:
            state.spans.append(
                (name, state.ident, start, end, seconds - frame[0], self.stage)
            )
        return seconds

    def wrap(self, name: str, fn, *, span: bool = True, opaque: bool = False, hook=None):
        """`fn` traced as `name`; `hook(args, kwargs, result, seconds)` runs
        after each successful traced call."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = tracer.enter(opaque)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                seconds = tracer.exit(token, name, failed=failed, span=span)
            if hook is not None and token is not None:
                hook(args, kwargs, result, seconds)
            return result

        return traced

    def layers(self) -> dict[str, dict[str, float]]:
        """Per-layer calls, inclusive s, self s and failures, over all threads."""
        merged: dict[str, list] = {}
        with self._lock:
            threads = list(self._threads)
        for state in threads:
            for name, (calls, total, own, failed) in state.stats.items():
                row = merged.setdefault(name, [0, 0.0, 0.0, 0])
                row[0] += calls
                row[1] += total
                row[2] += own
                row[3] += failed
        return {
            name: {"calls": c, "s": t, "self_s": o, "failed": f}
            for name, (c, t, o, f) in merged.items()
        }

    def spans(self, name: str | None = None) -> list[tuple]:
        with self._lock:
            threads = list(self._threads)
        rows = [s for state in threads for s in state.spans]
        if name is not None:
            rows = [s for s in rows if s[0] == name]
        return sorted(rows, key=lambda s: s[2])

    def write_spans(self, path: Path) -> None:
        with Path(path).open("w", encoding="utf-8") as handle:
            for name, ident, start, end, own, stage in self.spans():
                handle.write(
                    json.dumps(
                        {
                            "name": name,
                            "thread": ident,
                            "start": start,
                            "end": end,
                            "self_s": own,
                            "stage": stage,
                        }
                    )
                    + "\n"
                )


def instrument(tracer: Tracer, backend_class) -> None:
    """Wrap rljp's public functions, and `backend_class.send` as the agent
    backend boundary."""
    from rljp import (
        agents,
        cacl,
        candidates,
        confusable,
        corpus,
        examination,
        fol,
        metrics,
        opt_tree,
        pipeline,
        quiz,
        rule_init,
        synthetic,
    )

    def function(module, attr, name, **options):
        original = getattr(module, attr)
        replace_function(original, tracer.wrap(name, original, **options))

    def method(cls, attr, name, **options):
        replace_method(cls, attr, lambda fn: tracer.wrap(name, fn, **options))

    def on_complete(args, kwargs, result, seconds):
        tracer.count(f"agents.busy_s.{tracer.stage}", seconds)

    def on_make_quiz(args, kwargs, result, seconds):
        tracer.count("quiz.questions", len(result))

    def on_run_quiz(args, kwargs, result, seconds):
        tracer.count("quiz.malformed", sum(r.malformed for r in result.records))

    def on_expand(args, kwargs, result, seconds):
        tracer.count("opt_tree.expand.failed", result is None)

    def on_init_all_rules(args, kwargs, result, seconds):
        tracer.count("rule_init.failures", len(result.failures))

    def on_build_confusable(args, kwargs, result, seconds):
        # (emb_positive, emb_others, positives, others, num_negatives)
        tracer.count("confusable.negatives_requested", args[4])
        tracer.count("confusable.negatives_found", len(result.negatives))

    function(fol, "render_consequent", "fol.render_consequent", span=False)
    function(fol, "parse_rule", "fol.parse_rule", span=False)
    function(fol, "render_rule", "fol.render_rule", span=False)
    function(agents, "render_template", "prompts.render_template", span=False)
    function(agents, "complete", "agents.complete", hook=on_complete)
    method(agents.Transcript, "record", "agents.transcript_record")
    method(backend_class, "send", "agents.backend")
    method(synthetic.OracleAgent, "send", "fake.oracle", opaque=True)
    function(corpus, "load_cases", "corpus.load_cases")
    function(confusable, "embed_cases", "confusable.embed_cases")
    function(
        confusable,
        "build_confusable_set_from_embeddings",
        "confusable.build_confusable_set_from_embeddings",
        hook=on_build_confusable,
    )
    function(rule_init, "init_all_rules", "rule_init.init_all_rules", hook=on_init_all_rules)
    function(quiz, "make_quiz", "quiz.make_quiz", hook=on_make_quiz)
    function(quiz, "run_quiz", "quiz.run_quiz", hook=on_run_quiz)
    function(opt_tree, "optimize", "opt_tree.optimize")
    function(opt_tree, "evaluate_node", "opt_tree.evaluate_node")
    function(opt_tree, "expand", "opt_tree.expand", hook=on_expand)
    function(opt_tree, "save_tree", "opt_tree.save_tree")
    function(cacl, "optimize_rule", "cacl.optimize_rule")
    perceptron = candidates.CharNgramPerceptron
    method(perceptron, "train", "candidates.train")
    method(perceptron, "save", "candidates.save")
    method(perceptron, "load", "candidates.load")
    method(perceptron, "scores", "candidates.scores", span=False)
    function(examination, "examine_case", "examination.examine_case")
    function(metrics, "compute_metrics", "metrics.compute_metrics")

    original_execute = pipeline.PipelineRun._execute

    def execute(run, name, *args, **kwargs):
        # a stage whose inputs and outputs verify is skipped; its time is
        # then the up-to-date check, not stage work
        tracer.stage = name
        token = tracer.enter()
        try:
            return original_execute(run, name, *args, **kwargs)
        finally:
            skipped = run.manifest["stages"].get(name, {}).get("skipped", False)
            tracer.exit(
                token, "pipeline.skip_check" if skipped else f"pipeline.stage.{name}"
            )
            tracer.stage = None

    pipeline.PipelineRun._execute = execute
