"""The benchmark's workloads: corpus size, split ratios and injected agent latency.

Every workload is a closed loop of one pipeline at a time. The corpus is
generated from the workload seed with `rljp.synthetic.write_corpus`, and the
pipeline's config seed is the same seed; the pipeline sees only the
generated files. README.md says why each workload is shaped as it is.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    num_cases: int
    ratios: tuple[float, float, float]  # train, validation, test
    delay_s: float  # fixed sleep before every backend send

    def with_cases(self, num_cases: int) -> "Workload":
        return Workload(self.name, num_cases, self.ratios, self.delay_s)

    @property
    def num_test(self) -> int:
        # rljp.corpus.split_dataset floors the test share
        return math.floor(self.ratios[2] * self.num_cases)


WORKLOADS = {
    w.name: w
    for w in (
        # learning is CPU-bound: quiz building, perceptron training, tree writes
        Workload("learn-cpu", 600, (0.8, 0.1, 0.1), 0.0),
        # a small train split, then 840 cases scored and examined
        Workload("predict-cpu", 1200, (0.2, 0.1, 0.7), 0.0),
        # every agent path waits on a 20 ms endpoint
        Workload("agent-latency", 240, (0.7, 0.1, 0.2), 0.020),
    )
}
