"""The design's layering and one-copy pins, checked from the source tree.

- The subpackage import graph, read from the AST of every module under
  ``src/repro`` (function-local and ``TYPE_CHECKING`` imports included),
  must equal :data:`ALLOWED_EDGES`.  Nothing but ``cli`` imports ``fuzz``:
  the judge (``core/judge.py``) and the workload catalog (``catalog.py``)
  stand apart from the fuzzer that uses them.
- The engine's packages load no fuzz module at run time either.
- One construction site per engine, and deleted names stay deleted: each
  pin greps the tree it names (``tests/`` excluding this file, whose
  patterns would match themselves).
- The end-to-end benchmark's entry points into the program still resolve.
"""

from __future__ import annotations

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
E2E = ROOT / "benchmarks" / "e2e"
THIS = Path(__file__).resolve()

#: subpackage (or top-level module) -> the subpackages it may import
ALLOWED_EDGES = {
    "repro": {"errors"},
    "__main__": {"cli"},
    "analysis": {"core", "locking", "oodb", "runtime"},
    "catalog": {"core", "locking", "oodb", "runtime"},
    "cli": {
        "analysis", "catalog", "core", "errors", "faults", "fuzz", "obs",
        "oodb", "runtime", "scenarios", "service", "shard", "workloads",
    },
    # core -> oodb/runtime: function-local and TYPE_CHECKING imports
    "core": {"errors", "oodb", "runtime"},
    "errors": set(),
    "faults": {"errors"},
    "fuzz": {
        "catalog", "core", "errors", "faults", "obs", "oodb", "runtime",
        "service", "shard",
    },
    # oodb <-> locking <-> runtime: the database builds its scheduler, and
    # the executor drives the database
    "locking": {"core", "errors", "obs", "oodb"},
    "obs": set(),
    "oodb": {"core", "errors", "faults", "locking", "obs", "runtime"},
    "runtime": {"errors", "obs", "oodb"},
    "scenarios": {"core"},
    "service": {"catalog", "errors", "faults", "obs", "oodb", "runtime", "shard"},
    "shard": {"catalog", "core", "errors", "obs", "oodb", "runtime"},
    "structures": {"core", "errors", "oodb"},
    "workloads": {"errors", "oodb", "runtime", "structures"},
}


def _node(module: str) -> str:
    """``repro.shard.service`` -> ``shard``; ``repro`` -> ``repro``."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def import_edges() -> dict[str, dict[str, set[str]]]:
    """Every subpackage's imports of other subpackages, with the files."""
    package = SRC / "repro"
    edges: dict[str, dict[str, set[str]]] = {}
    for path in sorted(package.rglob("*.py")):
        parts = path.relative_to(SRC).with_suffix("").parts
        source = _node(".".join(p for p in parts if p != "__init__"))
        out = edges.setdefault(source, {})
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                targets = [node.module or ""]
                if node.module == "repro":
                    targets = [f"repro.{alias.name}" for alias in node.names]
            else:
                continue
            for target in targets:
                if target.split(".")[0] == "repro" and _node(target) != source:
                    out.setdefault(_node(target), set()).add(
                        str(path.relative_to(package))
                    )
    return edges


def test_subpackage_import_edges_are_the_declared_ones():
    edges = import_edges()
    unexpected = {
        f"{src} -> {dst}": sorted(files)
        for src, targets in edges.items()
        for dst, files in targets.items()
        if dst not in ALLOWED_EDGES.get(src, ())
    }
    assert unexpected == {}
    assert {src: set(targets) for src, targets in edges.items()} == ALLOWED_EDGES


def test_the_engine_loads_no_fuzz_module():
    # Package __init__ side effects, which the static edge check reads
    # only from source.
    code = (
        "import sys\n"
        "import repro.core.certify, repro.locking.optimistic, repro.shard\n"
        "import repro.service, repro.service.server\n"
        "print(' '.join(m for m in sorted(sys.modules)"
        " if m.split('.')[:2] == ['repro', 'fuzz']))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    assert run.stdout.split() == []


# ---------------------------------------------------------------------------
# one construction site per engine, deleted names stay deleted
# ---------------------------------------------------------------------------


def grep(pattern: str, *trees: str) -> list[str]:
    """``path:line`` of every line under ``trees`` that matches, like
    ``grep -rE`` from the repository root."""
    regex = re.compile(pattern)
    hits = []
    for tree in trees:
        top = ROOT / tree
        for path in sorted([top] if top.is_file() else top.rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts or path == THIS:
                continue
            text = path.read_bytes().decode("utf-8", errors="replace")
            for number, line in enumerate(text.splitlines(), 1):
                if regex.search(line):
                    hits.append(f"{path.relative_to(ROOT)}:{number}")
    return hits


def files(pattern: str, *trees: str) -> set[str]:
    return {hit.split(":")[0] for hit in grep(pattern, *trees)}


def test_the_cell_pipeline_stays_one_copy():
    # the host formula, and the executor pairing under fuzz/
    assert len(grep(r"4 \* [a-z_.]*key_space", "src")) == 1
    assert len(grep(r"InterleavedExecutor\(", "src/repro/fuzz")) == 1


def test_the_handoff_stays_one_copy():
    # direct baton passing; no shared Condition
    assert grep(
        r"Condition\(|notify_all",
        "src/repro/runtime/executor.py",
        "src/repro/shard/executor.py",
    ) == []


def test_the_page_store_stays_one_format():
    # one image log; no per-page files under hashed directories
    assert grep(
        r"hashlib|_hash_prefix|makedirs\(os\.path\.dirname",
        "src/repro/oodb/store.py",
    ) == []


def test_the_dependency_analysis_stays_one_engine():
    assert grep(
        r"REPRO_ANALYSIS|analysis_engine|DependencyAnalysis|_validate_batch",
        "src",
        "benchmarks",
    ) == []
    assert grep(r"def _fixpoint", "src") == []


def test_one_incremental_judge():
    # the engine is built only by the one-shot analysis and the certifier
    assert files(r"IncrementalDependencyEngine\(", "src") == {
        "src/repro/core/certify.py",
        "src/repro/core/serializability.py",
    }
    assert grep(
        r"judge_violation|run_per_transaction|_ShardProcess", "src", "benchmarks"
    ) == []


def test_one_optimistic_judge_per_scheduler():
    # retract, not drop-and-refeed: one construction, no rebuild state
    assert len(grep(r"OnlineCertifier\(", "src/repro/locking")) == 1
    assert grep(
        r"_dropped|_pending_label|self\._epoch\b|self\._virtual\b"
        r"|commutativity is not",
        "src/repro/locking/optimistic.py",
    ) == []
    assert grep(r"\bUNKNOWN\b", "src/repro/oodb") == []


def test_one_exact_judge():
    # only the judge runs the conventional baseline; the crash oracle runs
    # no analysis of its own
    assert files(
        r"conventional_baseline\(",
        "src/repro/fuzz",
        "src/repro/shard",
        "src/repro/service",
        "src/repro/core/judge.py",
    ) == {"src/repro/core/judge.py"}
    assert grep(r"analyze_system", "src/repro/fuzz/crash.py") == []
    assert grep(r"def _analysis|def judge_history", "src") == []


def test_one_conventional_baseline():
    # the old graph builders and the second pair counter stay deleted
    assert grep(
        r"count_conventional_pairs|conventional_serialization_graph"
        r"|\bconventional_(serializable|constraints)\(",
        "src",
        "benchmarks",
        "examples",
        "tests",
    ) == []


def test_the_barrier_loop_stays_one_copy():
    # drive_epochs is the only coordinator.round caller
    assert len(grep(r"coordinator.round\(", "src/repro/shard")) == 1


def test_one_shard_engine():
    # ShardGroup is the only driver of the units; the service builds no
    # executor of its own
    assert grep(r"split_programs|SplitWorkload|_start_unit", "src", "benchmarks") == []
    assert grep(r"InterleavedExecutor\(", "src/repro/service") == []
    # one construction site: the one in ShardGroup.__init__
    assert [hit.split(":")[0] for hit in grep(r"ShardState\(", "src")] == [
        "src/repro/shard/service.py"
    ]


def test_the_shard_engine_judges_one_batch():
    assert grep(r"multi_labels.update", "src/repro/shard") == []
    assert grep(r"OnlineCertifier\(", "src/repro/service") == []


# ---------------------------------------------------------------------------
# the end-to-end benchmark's entry points
# ---------------------------------------------------------------------------


def test_the_benchmark_imports_resolve():
    names = []
    for path in sorted(E2E.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and node.level == 0:
                names += [(path.name, node.module, a.name) for a in node.names]
            elif isinstance(node, ast.Import):
                names += [(path.name, a.name, None) for a in node.names]
    names = [entry for entry in names if entry[1].split(".")[0] == "repro"]
    assert names
    missing = []
    for filename, module, name in names:
        try:
            owner = importlib.import_module(module)
        except ImportError as exc:
            missing.append(f"{filename}: {module} ({exc})")
            continue
        if name is not None and not hasattr(owner, name):
            missing.append(f"{filename}: {module}.{name}")
    assert missing == []


def test_the_benchmark_trace_targets_resolve():
    # Only the function is run: the file itself imports the benchmark's
    # own modules.
    tree = ast.parse((E2E / "trace.py").read_text())
    (function,) = [
        node
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name == "_targets"
    ]
    namespace: dict = {}
    exec(compile(ast.Module([function], []), str(E2E / "trace.py"), "exec"), namespace)
    targets = namespace["_targets"]()
    assert targets
    for name, owner, attribute in targets:
        assert callable(getattr(owner, attribute, None)), name
