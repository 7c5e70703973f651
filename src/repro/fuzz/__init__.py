"""Randomized schedule fuzzing with an oo-serializability oracle.

The package has four parts, wired together by ``python -m repro fuzz``:

- :mod:`~repro.fuzz.generator` — seed-deterministic workloads: layered
  object graphs, directional/state-dependent commutativity matrices,
  nested-call transaction programs (including Definition 5 call cycles);
- :mod:`~repro.fuzz.driver` — runs each workload under all five protocols
  through the interleaved executor;
- :mod:`~repro.fuzz.oracle` — replays committed histories through the
  Definitions 13/16 analysis and the conventional baseline, asserting the
  protocol-accepted ⊆ oo-serializable theorem and measuring the
  admission-rate delta;
- :mod:`~repro.fuzz.shrink` — greedy delta debugging of failing workloads
  into minimal, seed-reproducible counterexample files.
"""

from repro.fuzz.driver import (
    FUZZ_PROTOCOLS,
    CampaignResult,
    execute_cell,
    run_campaign,
    run_cell,
)
from repro.fuzz.generator import (
    GeneratorProfile,
    WorkloadSpec,
    build_workload,
    generate,
    host_workload,
)
from repro.fuzz.oracle import (
    Ablation,
    OracleReport,
    check_history,
    strictness_for,
)
from repro.fuzz.shrink import counterexample_dict, shrink, still_fails

__all__ = [
    "FUZZ_PROTOCOLS",
    "Ablation",
    "CampaignResult",
    "GeneratorProfile",
    "OracleReport",
    "WorkloadSpec",
    "build_workload",
    "check_history",
    "counterexample_dict",
    "execute_cell",
    "generate",
    "host_workload",
    "run_campaign",
    "run_cell",
    "shrink",
    "still_fails",
    "strictness_for",
]
