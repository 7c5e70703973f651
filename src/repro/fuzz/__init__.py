"""Randomized schedule fuzzing, judged by the system's one exact judge.

The fuzzer draws its workloads from :mod:`repro.catalog` and sends every
committed history to :func:`repro.core.judge.judge_committed`; neither is a
fuzz part.  The package is what ``python -m repro fuzz`` wires together:

- :mod:`~repro.fuzz.driver` — runs each workload under all five protocols
  through the interleaved executor, and folds the campaign table;
- :mod:`~repro.fuzz.sharded` — the sharded cell (a fresh shard group run
  for one batch) and the canonical cell report;
- :mod:`~repro.fuzz.crash` — crash injection, recovery and the crash
  oracle;
- :mod:`~repro.fuzz.service_campaign` — the fault-injected multi-tenant
  service campaign;
- :mod:`~repro.fuzz.shrink` — greedy delta debugging of failing workloads
  into minimal, seed-reproducible counterexample files;
- :mod:`~repro.fuzz.parallel` — the seed-parallel runner behind ``--jobs``.
"""

from repro.fuzz.driver import (
    FUZZ_PROTOCOLS,
    CampaignResult,
    execute_cell,
    run_campaign,
    run_cell,
)
from repro.fuzz.shrink import counterexample_dict, shrink, still_fails

__all__ = [
    "FUZZ_PROTOCOLS",
    "CampaignResult",
    "counterexample_dict",
    "execute_cell",
    "run_campaign",
    "run_cell",
    "shrink",
    "still_fails",
]
