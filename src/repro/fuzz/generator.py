# benchmarks/e2e/driver.py (recovered_digest) imports build_workload from here.
from repro.catalog import build_workload  # noqa: F401
