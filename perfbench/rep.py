"""One repetition of a workload, in a fresh process.

Set-up (import rljp, write the corpus from the seed, load the config), then
the pipeline the way a user runs it: a fresh run through train-candidates,
then a resumed run through evaluate, which verifies and skips the learned
stages and runs examine and evaluate. Prints one JSON object of measurements
on stdout. Exit code 0: the pipeline ran; 3: the pipeline raised (the JSON
names the error); anything else: the benchmark itself could not run.

    python3 perfbench/rep.py --work DIR --cases 600 --ratios 0.8,0.1,0.1 \
        --delay-ms 0 --seed 1 --trace 0 --spawned-at <time.monotonic()>
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
# A short resumed run is repeated in the same process until PREDICT_BUDGET_S
# seconds or MAX_PREDICTS runs, and its mean is reported: single sub-second
# runs varied by up to 60% with the machine's load from second to second.
MAX_PREDICTS = 8
PREDICT_BUDGET_S = 3.0
RESUME_STATE = ("manifest.json", "transcript.jsonl")  # what a resumed run rewrites or appends


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--cases", required=True, type=int)
    parser.add_argument("--ratios", required=True)
    parser.add_argument("--delay-ms", required=True, type=float)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up")
    parser.add_argument("--spawned-at", type=float, default=None)
    return parser.parse_args(argv)


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    args = parse_args(argv)
    spawned_at = args.spawned_at if args.spawned_at is not None else time.monotonic()
    sys.path.insert(0, str(REPO / "src"))
    import rljp.pipeline
    from rljp.config import load_config
    from rljp.synthetic import write_corpus

    import fakes

    args.work.mkdir(parents=True, exist_ok=True)
    write_corpus(args.work / "corpus", args.cases, args.seed)
    config_path = args.work / "config.json"
    config_path.write_text(
        json.dumps(
            {
                "seed": args.seed,
                "data": {
                    "cases_path": "corpus/cases.jsonl",
                    "labels_path": "corpus/labels.json",
                    "ratios": [float(r) for r in args.ratios.split(",")],
                },
                "providers": {
                    "agent": {"kind": "synthetic-oracle", "world_path": "corpus/world.json"}
                },
            },
            indent=2,
        )
        + "\n",
        encoding="utf-8",
    )
    config = load_config(config_path)
    stats = fakes.install(args.delay_ms / 1000.0)
    setup_s = time.monotonic() - spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.instrument(tracer, fakes.LatencyBackend)

    run_dir = args.work / "run"
    result = {"setup_s": setup_s}
    cpu_before = cpu_seconds()
    started = time.perf_counter()
    predicts = []  # (seconds, cpu seconds, prompt chars) of each resumed run
    try:
        rljp.pipeline.run_pipeline(config, run_dir, last_stage="train-candidates")
        learn_s = time.perf_counter() - started
        learn_cpu_s = cpu_seconds() - cpu_before
        learn_chars = stats.prompt_chars
        learned = {name: (run_dir / name).read_bytes() for name in RESUME_STATE}
        while True:
            chars, cpu = stats.prompt_chars, cpu_seconds()
            resumed = time.perf_counter()
            rljp.pipeline.run_pipeline(config, run_dir, resume=True)
            predicts.append(
                (time.perf_counter() - resumed, cpu_seconds() - cpu, stats.prompt_chars - chars)
            )
            if (
                tracer is not None
                or len(predicts) == MAX_PREDICTS
                or sum(p[0] for p in predicts) >= PREDICT_BUDGET_S
            ):
                break
            # back to the state learning left, so the next resumed run redoes
            # exactly what the first one did
            for name, data in learned.items():
                (run_dir / name).write_bytes(data)
    except Exception:
        result["error"] = traceback.format_exc(limit=3)
        print(json.dumps(result), flush=True)
        return 3
    result.update(
        learn_s=learn_s,
        predict_s=sum(p[0] for p in predicts) / len(predicts),
        predict_runs=len(predicts),
        cpu_s=learn_cpu_s + sum(p[1] for p in predicts) / len(predicts),
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        prompt_chars=learn_chars + predicts[0][2],
        predict_chars_differ=len({p[2] for p in predicts}) > 1,
        temp0_sends=stats.temp0_sends,
        repeats=stats.repeats,
        inner_cpu_s=stats.inner_cpu_s,
    )
    if tracer is not None:
        result["layers"] = tracer.layers()
        result["counters"] = dict(tracer.counters)
        result["case_ms"] = [
            (end - start) * 1000.0
            for _, _, start, end, _, _ in tracer.spans("examination.examine_case")
        ]
        tracer.write_spans(args.work / "spans.jsonl")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
