"""rljp benchmark entry point.

Runs one workload for about `--seconds` seconds as a closed loop of
repetitions, each in a fresh process (rep.py), checks every repetition's
outputs against the generator's gold labels, and prints every metric by name
and unit. The last line of stdout is one JSON object: the end-to-end metrics
with `--trace 0`; with `--trace 1`, the per-layer metrics of traced
repetitions, alternated with untraced ones to measure the tracing overhead.

    python3 perfbench/run.py --workload learn-cpu --seed 1 --seconds 60 --trace 0

Run it from the repository root. It writes only under .bench_work/ there.
Exit code 2, with no result printed, when the benchmark itself cannot run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

from gate import STAGES, TAG_KINDS, check_run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TIME_LIMIT_S = 170.0  # one invocation must end inside 180 s
MIB = 1024.0 * 1024.0
TAIL_PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
SETUPS_PER_REP = 2  # extra set-up-only processes after each untraced repetition

# per-layer metrics read straight from the tracer: inclusive time, calls, self time
LAYER_TIMES = (
    "fol.render_consequent", "fol.parse_rule", "prompts.render_template",
    "quiz.make_quiz", "quiz.run_quiz", "candidates.train", "candidates.save",
    "candidates.load", "candidates.scores", "agents.complete", "agents.backend",
    "opt_tree.optimize", "opt_tree.save_tree", "cacl.optimize_rule",
    "rule_init.init_all_rules", "corpus.load_cases", "confusable.embed_cases",
    "confusable.build_confusable_set_from_embeddings", "metrics.compute_metrics",
)
LAYER_CALLS = (
    "fol.render_consequent", "fol.parse_rule", "fol.render_rule",
    "prompts.render_template", "quiz.make_quiz", "candidates.scores",
    "agents.complete", "examination.examine_case", "opt_tree.evaluate_node",
    "opt_tree.expand", "opt_tree.save_tree", "cacl.optimize_rule", "corpus.load_cases",
)
LAYER_SELF = (
    "quiz.make_quiz", "candidates.train", "candidates.scores", "agents.complete",
    "opt_tree.save_tree",
)


class BenchError(RuntimeError):
    """The benchmark itself cannot run; not a failure of the program."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--cases", type=int, default=None, help="override the corpus size (self-tests)"
    )
    return parser.parse_args(argv)


def child_env() -> dict[str, str]:
    # OpenBLAS would otherwise start a spinning thread per core for each
    # perceptron mat-vec, which makes timings follow the machine's other load
    return {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def spawn_rep(workload, seed: int, work: Path, timeout: float, *options: str) -> dict:
    """Run rep.py in a fresh process; returns its measurements, or an error
    entry when it exceeds `timeout`."""
    command = [
        sys.executable, str(HERE / "rep.py"),
        "--work", str(work),
        "--cases", str(workload.num_cases),
        "--ratios", ",".join(str(r) for r in workload.ratios),
        "--delay-ms", str(workload.delay_s * 1000.0),
        "--seed", str(seed),
        *options,
    ]
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            command + ["--spawned-at", repr(spawned_at)],
            cwd=REPO,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        # subprocess.run has already killed and reaped the child
        return {"error": f"repetition exceeded {timeout:.0f} s"}
    if proc.returncode not in (0, 3):
        raise BenchError(f"rep.py exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_rep(workload, seed: int, work: Path, trace: bool, timeout: float):
    """One repetition in a fresh process; returns (measurements, check)."""
    rep = spawn_rep(workload, seed, work, timeout, "--trace", str(int(trace)))
    check = check_run(work, workload.num_test)
    if "error" in rep:
        check.attempted = check.failed = workload.num_test
        check.problems.append(f"pipeline raised: {rep['error']}")
    return rep, check


def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def end_to_end(reps, checks, setups) -> dict[str, float]:
    return {
        "setup_s": median([r["setup_s"] for r in reps] + setups),
        "learn_s": median([r["learn_s"] for r in reps]),
        "predict_s": median([r["predict_s"] for r in reps]),
        "wall_s": median([r["learn_s"] + r["predict_s"] for r in reps]),
        "cpu_s": median([r["cpu_s"] for r in reps]),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "agent_calls": median([c.agent_calls for c in checks]),
        "prompt_mchars": median([r["prompt_chars"] / 1e6 for r in reps]),
        "artifact_mb": median([c.artifact_bytes / MIB for c in checks]),
    }


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, nearest-rank value) at the highest percentile that has
    at least ten samples beyond it; (0, max) when there are too few."""
    ordered = sorted(samples)
    best = (0.0, ordered[-1] if ordered else 0.0)
    for pct in TAIL_PERCENTILES:
        if len(ordered) * (1.0 - pct / 100.0) >= 10:
            rank = max(1, -(-int(pct * len(ordered)) // 100))
            best = (pct, ordered[rank - 1])
    return best


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(rep: dict, check, stage_elapsed: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition."""
    layers, counters = rep["layers"], rep["counters"]

    def layer(name: str, key: str = "s") -> float:
        return float(layers.get(name, {}).get(key, 0))

    m: dict[str, float] = {}
    for stage in STAGES:
        m[f"pipeline.stage.{stage}.s"] = layer(f"pipeline.stage.{stage}")
    m["pipeline.skip_check.s"] = layer("pipeline.skip_check")
    # the manifest times only a stage's body; the rest is hashing and bookkeeping
    m["pipeline.manifest_gap.s"] = sum(
        m[f"pipeline.stage.{stage}.s"] - elapsed for stage, elapsed in stage_elapsed.items()
    )
    m.update({f"{name}.s": layer(name) for name in LAYER_TIMES})
    m.update({f"{name}.calls": layer(name, "calls") for name in LAYER_CALLS})
    m.update({f"{name}.self_s": layer(name, "self_s") for name in LAYER_SELF})
    m["agents.transcript_record.s"] = layer("agents.transcript_record")
    m["agents.failed"] = layer("agents.complete", "failed")
    m["agents.retries"] = check.retries
    for kind in TAG_KINDS:
        m[f"agents.calls.{kind}"] = check.calls_by_kind.get(kind, 0)
    for stage in ("optimize", "examine"):
        m[f"agents.inflight.{stage}"] = ratio(
            counters.get(f"agents.busy_s.{stage}", 0.0), m[f"pipeline.stage.{stage}.s"]
        )
    m["agents.repeat_frac"] = ratio(rep["repeats"], rep["temp0_sends"])
    m["quiz.questions"] = counters.get("quiz.questions", 0)
    m["quiz.malformed"] = counters.get("quiz.malformed", 0)
    m["candidates.artifact_bytes"] = check.candidates_bytes
    m["opt_tree.expand.failed"] = counters.get("opt_tree.expand.failed", 0)
    m["opt_tree.tree_bytes"] = check.tree_bytes
    m["cacl.optimize_rule.failed"] = layer("cacl.optimize_rule", "failed")
    m["rule_init.failures"] = counters.get("rule_init.failures", 0)
    m["confusable.negatives_found_frac"] = ratio(
        counters.get("confusable.negatives_found", 0),
        counters.get("confusable.negatives_requested", 0),
    )
    cases = m["examination.examine_case.calls"]
    m["examination.case_n"] = len(rep["case_ms"])
    m["examination.case_p50_ms"] = median(rep["case_ms"])
    m["examination.case_tail_pct"], m["examination.case_tail_ms"] = tail(rep["case_ms"])
    m["examination.checks_per_case"] = ratio(check.calls_by_kind.get("exam", 0), cases)
    m["examination.fallback_frac"] = check.fallback_frac
    m["examination.abstract_frac"] = check.abstract_frac
    m["fake.oracle.s"] = rep["inner_cpu_s"]
    return m


def manifest_elapsed(work: Path) -> dict[str, float]:
    manifest = json.loads((work / "run" / "manifest.json").read_text(encoding="utf-8"))
    return {
        stage: entry["elapsed_s"]
        for stage, entry in manifest["stages"].items()
        if "elapsed_s" in entry
    }


def declared_units(kind: str) -> dict[str, str]:
    spec = json.loads((REPO / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(args, workload, scratch: Path, traces: Path):
    """Closed loop of repetitions until the next one would overrun --seconds.
    With --trace 1, untraced and traced repetitions alternate."""
    started = time.monotonic()
    untraced, traced, durations, setups = [], [], [], []
    while True:
        trace = args.trace == 1 and len(untraced) > len(traced)
        work = scratch / f"rep{len(untraced) + len(traced)}"
        rep_started = time.monotonic()
        timeout = TIME_LIMIT_S - (rep_started - started)
        rep, check = run_rep(workload, args.seed, work, trace, timeout)
        if trace:
            elapsed = {} if "error" in rep else manifest_elapsed(work)
            traced.append((rep, check, elapsed))
            if (work / "spans.jsonl").exists():
                traces.mkdir(parents=True, exist_ok=True)
                shutil.move(work / "spans.jsonl", traces / f"{workload.name}-s{args.seed}.jsonl")
        else:
            untraced.append((rep, check))
            # set-up is short and swings with the machine's load: sample it
            # more often than the pipeline runs
            for _ in range(SETUPS_PER_REP):
                setup = spawn_rep(workload, args.seed, work / "setup", 60.0, "--setup-only")
                setups += [setup["setup_s"]] if "error" not in setup else []
            durations.append(time.monotonic() - rep_started)
        shutil.rmtree(work, ignore_errors=True)
        if "error" in rep:
            break
        if args.trace == 1 and not traced:
            continue
        now, expected = time.monotonic(), median(durations)
        if now + expected > started + args.seconds or now + 2 * expected > started + TIME_LIMIT_S:
            break
    return untraced, traced, setups


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (REPO / "src" / "rljp" / "pipeline.py").is_file():
        raise BenchError(f"no rljp sources under {REPO / 'src'}")
    workload = WORKLOADS[args.workload]
    if args.cases is not None:
        workload = workload.with_cases(args.cases)
    root = REPO / ".bench_work"
    scratch = root / f"{workload.name}-s{args.seed}-{os.getpid()}"
    try:
        untraced, traced, setups = measure(args, workload, scratch, root / "traces")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    reps = [rep for rep, _ in untraced if "error" not in rep]
    checks = [check for rep, check in untraced if "error" not in rep]
    all_reps = [rep for rep, _ in untraced] + [rep for rep, _, _ in traced]
    all_checks = [check for _, check in untraced] + [check for _, check, _ in traced]
    problems = [p for check in all_checks for p in check.problems]
    # every repetition of one seed must produce the same bytes and the same calls
    for name, values in (
        ("outputs digest", [c.digest for c in all_checks]),
        ("agent_calls", [c.agent_calls for c in all_checks]),
        ("prompt chars", [r.get("prompt_chars") for r in all_reps]),
    ):
        if len(set(values)) > 1:
            problems.append(f"{name} differs between repetitions of one seed")
    if any(rep.get("predict_chars_differ") for rep in all_reps):
        problems.append("prompt chars differ between resumed runs of one repetition")
    attempted = sum(check.attempted for check in all_checks)
    failed = sum(check.failed for check in all_checks)

    e2e = end_to_end(reps, checks, setups) if reps else {}
    print(f"workload {workload.name}: {workload.num_cases} cases, ratios {workload.ratios}, "
          f"{workload.delay_s * 1000:g} ms per agent call, seed {args.seed}")
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(setups)} set-up only")
    for index, rep in enumerate(reps):
        print(f"  rep {index}: setup {rep['setup_s']:.3f} s, learn {rep['learn_s']:.3f} s, "
              f"predict {rep['predict_s']:.3f} s (mean of {rep['predict_runs']}), "
              f"cpu {rep['cpu_s']:.3f} s")
    for name, unit in declared_units("end_to_end").items():
        print(f"  {name:<16} {e2e.get(name, float('nan')):>14.6f} {unit}")
    print(f"  {'failed_frac':<16} {ratio(failed, attempted):>14.6f} ratio"
          f"  ({failed} of {attempted} test cases)")
    if all_checks:
        print(f"outputs sha256 {all_checks[0].digest}")

    if args.trace:
        units = declared_units("per_layer")
        runs = [per_layer(rep, check, elapsed)
                for rep, check, elapsed in traced if "error" not in rep]
        for run, (_, _, elapsed) in zip(runs, traced):
            for stage, seconds in elapsed.items():
                # the manifest times a stage's body, which the traced call contains
                if run[f"pipeline.stage.{stage}.s"] + 0.0015 < seconds:
                    problems.append(f"traced {stage} is shorter than its manifest elapsed_s")
        measured = {name: median([run[name] for run in runs]) for name in runs[0]} if runs else {}
        if runs and reps:
            traced_wall = [r["learn_s"] + r["predict_s"] for r, _, _ in traced if "error" not in r]
            measured["trace.overhead_s"] = median(traced_wall) - e2e["wall_s"]
        for name, unit in units.items():
            print(f"  {name:<52} {measured.get(name, float('nan')):>16.6f} {unit}")
        undeclared = sorted(set(measured) - set(units))
        if undeclared:
            problems.append(f"per-layer metrics missing from BENCHMARK.json: {undeclared}")
    else:
        units, measured = declared_units("end_to_end"), e2e
    missing = sorted(set(units) - set(measured))
    if missing:
        problems.append(f"metrics not measured: {missing}")
    for problem in dict.fromkeys(problems):
        print(f"PROBLEM: {problem}")

    # a metric that a failed run could not measure reads 0, and correct is false
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed if attempted else 1,
        "metrics": {name: {"value": measured.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    # on SIGTERM, unwind so that subprocess.run kills and reaps the running repetition
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
