"""End-to-end pipeline on the bundled 60-case synthetic corpus, through the
library API (the CLI equivalent is:
  rljp run-all --config fixtures/synthetic_60/config.json --run-dir run).

Run from the repository root:  python3 demos/04_full_pipeline.py
"""

import json
import tempfile
from pathlib import Path

from rljp.config import load_config
from rljp.pipeline import run_pipeline

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures" / "synthetic_60"

config = load_config(FIXTURES / "config.json")
with tempfile.TemporaryDirectory(prefix="rljp_demo_") as tmp:
    run_dir = Path(tmp)
    print(f"running all nine stages into {run_dir} ...")
    manifest = run_pipeline(config, run_dir)

    print()
    print("== stages ==")
    for name, entry in manifest["stages"].items():
        print(f"  {name:<18} {entry['status']} ({entry.get('elapsed_s', 0.0)}s)")

    print()
    print(f"agent calls: {manifest['agent_calls']} (== transcript lines)")

    print()
    print("== metrics ==")
    print((run_dir / "metrics.txt").read_text())

    print("== one prediction ==")
    with (run_dir / "predictions.jsonl").open() as handle:
        row = json.loads(handle.readline())
    print(json.dumps(row, indent=2))

print()
print("The demo's run directory is removed on exit. Artifacts are plain files;")
print("rerunning a kept one (rljp run-all ... --resume) skips any stage whose")
print("inputs are unchanged (try deleting metrics.json and rerunning).")
