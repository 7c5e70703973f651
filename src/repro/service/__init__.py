"""The multi-tenant transaction service front-end.

The paper's machinery — encapsulated objects, the five schedulers, the
deterministic executor, the oo-serializability oracle — runs beneath a
service boundary here: concurrent client sessions submit method-call
programs over sockets, and the service decides *whether* to run them
(admission control), *how long* they may take (deadlines on the logical
clock), and *what to say* when it cannot (explicit backpressure with
retry hints, never silent buffering).

- :mod:`repro.service.admission` — per-tenant quotas, token buckets,
  queue-depth bounds, the rejection alphabet;
- :mod:`repro.service.service` — :class:`TransactionService`: the engine
  thread batching admitted requests onto one persistent shard group (at
  one shard, one deterministic executor), the settlement ledger, the
  post-hoc oracle certification;
- :mod:`repro.service.server` — JSONL-over-TCP request port plus a live
  Prometheus metrics port;
- :mod:`repro.service.client` — honest and deliberately misbehaving
  clients, and the ``repro load`` fleet driver;
- :mod:`repro.service.campaign` — the fault-injected multi-tenant fuzz
  campaign, judged by the oracle, the ledger audit, and backpressure
  accounting.
"""

from repro.service.admission import (
    AdmissionController,
    Rejection,
    TenantQuota,
    TokenBucket,
)
from repro.service.campaign import (
    ServiceCampaignResult,
    run_service_campaign,
    run_service_cell,
)
from repro.service.client import LoadReport, ServiceClient, run_load
from repro.service.server import ServiceServer
from repro.service.service import ServiceConfig, TransactionService

__all__ = [
    "AdmissionController",
    "LoadReport",
    "Rejection",
    "ServiceCampaignResult",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "TenantQuota",
    "TokenBucket",
    "TransactionService",
    "run_load",
    "run_service_campaign",
    "run_service_cell",
]
