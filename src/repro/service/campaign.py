"""The service fuzz campaign: fault-injected multi-tenant load, judged.

One **cell** (:func:`run_service_cell`) stands up a full service — shared
database, engine, TCP front-end — for one ``(seed, protocol)`` pair, then
drives a multi-tenant client fleet through the *socket* path with a seeded
:class:`~repro.faults.service.ServiceFaultPlan` per client: slow clients,
sessions stalled mid-frame, connections dropped after submit, and arrival
bursts, all against deliberately tight tenant quotas so overload is real.

After the fleet drains and the service stops, three judgments run:

1. **Oracle** — the service's whole committed history goes through
   :meth:`TransactionService.certify` (Definitions 10–16: the online audit,
   at every shard count, and the composed exact oracle on a violation),
   with the cross-object strictness the protocol warrants.  Any violation fails the
   cell: concurrency bugs do not get to hide behind the front-end.
2. **Ledger audit** — :meth:`TransactionService.audit`: no admitted
   transaction left unsettled, no "committed" answer whose transaction did
   not commit (no lost admitted commits — disconnecting clients included).
3. **Backpressure accounting** — every client request balances against an
   explicit terminal answer (committed / gave_up / error / invalid /
   rejected-with-retry-hint).  An overloaded service must say "no", never
   buffer silently or drop silently; a request with no answer fails the
   cell.

:func:`run_service_campaign` sweeps seeds x protocols (≥ 3 tenants each)
and aggregates a table, mirroring the schedule fuzzer's campaign shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError
from repro.faults.service import ServiceFaultPlan
from repro.fuzz.driver import FUZZ_PROTOCOLS
from repro.fuzz.oracle import OracleReport
from repro.service.admission import TenantQuota
from repro.service.client import run_load
from repro.service.server import ServiceServer
from repro.service.service import ServiceConfig, TransactionService

#: the default campaign tenant fleet (the ISSUE's >= 3 tenants)
DEFAULT_TENANTS = ("alpha", "beta", "gamma")

#: deliberately tight default quota so campaigns exercise real overload:
#: a low sustained rate with a small burst allowance guarantees arrival
#: spikes see rate-limit backpressure, and the shallow queue keeps any
#: buffering visibly bounded
CAMPAIGN_QUOTA = TenantQuota(max_inflight=3, rate=40.0, burst=3, max_queue_depth=4)


@dataclass
class ServiceCellOutcome:
    """One (seed, protocol) service cell, fully judged."""

    seed: int
    protocol: str
    report: OracleReport | None = None
    audit: dict = field(default_factory=dict)
    load: dict = field(default_factory=dict)
    #: requests that never received an explicit answer (must be 0)
    unanswered: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.report is not None
            and not self.report.violation
            and bool(self.audit.get("ok"))
            and self.unanswered == 0
        )

    def row(self) -> list:
        return [
            self.seed,
            self.protocol,
            "ok" if self.ok else "FAIL",
            self.load.get("requests", 0),
            self.load.get("committed", 0),
            self.load.get("gave_up", 0),
            sum(self.load.get("rejected", {}).values()),
            sum(self.load.get("faults", {}).values()),
            len(self.audit.get("lost_commits", ())),
            self.unanswered,
        ]


@dataclass
class ServiceCampaignResult:
    cells: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list:
        return [cell for cell in self.cells if not cell.ok]

    def table(self) -> tuple[list[str], list[list]]:
        header = [
            "seed",
            "protocol",
            "verdict",
            "requests",
            "committed",
            "gave-up",
            "rejected",
            "faults",
            "lost",
            "unanswered",
        ]
        return header, [cell.row() for cell in self.cells]


def _balance(load: dict) -> int:
    """Requests minus explicit terminal answers (0 = fully accounted)."""
    answered = (
        load.get("committed", 0)
        + load.get("gave_up", 0)
        + load.get("errors", 0)
        + load.get("invalid", 0)
        + load.get("rejected_final", 0)
    )
    return load.get("requests", 0) - answered


def run_service_cell(
    seed: int,
    protocol: str,
    *,
    tenants: tuple[str, ...] = DEFAULT_TENANTS,
    clients_per_tenant: int = 3,
    requests_per_client: int = 6,
    with_faults: bool = True,
    quota: TenantQuota = CAMPAIGN_QUOTA,
    deadline_ticks: int | None = 4000,
    session_read_timeout: float = 0.5,
    shards: int = 1,
) -> ServiceCellOutcome:
    """Stand up, load, tear down, and judge one service cell."""
    cell = ServiceCellOutcome(seed=seed, protocol=protocol)
    config = ServiceConfig(
        protocol=protocol,
        seed=seed,
        shards=shards,
        deadline_ticks=deadline_ticks,
        default_quota=quota,
        queue_capacity=8 * len(tenants),
    )
    try:
        service = TransactionService(
            config, quotas={tenant: quota for tenant in tenants}
        )
        server = ServiceServer(
            service, session_read_timeout=session_read_timeout
        )
        server.start()
        try:

            def fault_plan_for(tenant, idx, n_requests):
                if not with_faults:
                    return None
                return ServiceFaultPlan.for_client(
                    seed, tenant, idx, n_requests, slow_delay_s=0.02
                )

            report = run_load(
                server.host,
                server.port,
                tenants=list(tenants),
                clients_per_tenant=clients_per_tenant,
                requests_per_client=requests_per_client,
                seed=seed,
                fault_plan_for=fault_plan_for,
                deadline_ticks=deadline_ticks,
                max_backpressure_retries=4,
            )
        finally:
            server.stop()
        cell.load = report.summary()
        cell.unanswered = _balance(cell.load)
        cell.audit = service.audit()
        cell.report = service.certify()
    except ReproError as exc:
        cell.error = repr(exc)
    return cell


def run_service_campaign(
    *,
    seeds: list[int],
    protocols: tuple[str, ...] = FUZZ_PROTOCOLS,
    tenants: tuple[str, ...] = DEFAULT_TENANTS,
    clients_per_tenant: int = 3,
    requests_per_client: int = 6,
    with_faults: bool = True,
    progress=None,
    shards: int = 1,
) -> ServiceCampaignResult:
    """Every seed x protocol through a faulted multi-tenant service."""
    result = ServiceCampaignResult()
    for seed in seeds:
        for protocol in protocols:
            cell = run_service_cell(
                seed,
                protocol,
                tenants=tenants,
                clients_per_tenant=clients_per_tenant,
                requests_per_client=requests_per_client,
                with_faults=with_faults,
                shards=shards,
            )
            result.cells.append(cell)
            if progress is not None:
                progress(cell)
    return result
