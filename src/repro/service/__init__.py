"""The campaign service: a fault-tolerant asyncio simulation server.

``repro serve`` exposes the :class:`~repro.harness.executor.
CampaignExecutor` as a long-running HTTP/JSON service (stdlib only,
hand-rolled on ``asyncio.start_server``):

* :mod:`repro.service.jobs` — job model, validation, bounded priority
  queue (backpressure via HTTP 429 + ``Retry-After``);
* :mod:`repro.service.journal` — fsynced write-ahead journal; a submit
  is acknowledged only once durable, and restart replay re-enqueues
  every unfinished job;
* :mod:`repro.service.server` — the asyncio server: dispatch over one
  content-addressed :class:`~repro.harness.executor.CellStore`, SSE
  progress streaming, heartbeats, graceful SIGTERM drain;
* :mod:`repro.service.client` — blocking :mod:`http.client` client for
  ``repro submit / status / fetch``;
* :mod:`repro.service.chaos` — the chaos harness: injected worker
  faults + SIGKILL/restart, classified by
  :func:`repro.verify.classify_chaos`.

See HACKING.md "Campaign service" for the API and durability contract.
"""

from .chaos import (
    CHAOS_KINDS,
    chaos_execute_spec,
    default_chaos_jobs,
    run_chaos_campaign,
    write_chaos_plan,
)
from .client import ServiceClient, ServiceError
from .jobs import (
    Job,
    JobSpec,
    JobValidationError,
    PriorityJobQueue,
    QueueFull,
)
from .journal import ServiceJournal, replay_journal
from .server import (
    ServiceConfig,
    SimulationService,
    build_job_report,
    run_service,
)

__all__ = [
    "CHAOS_KINDS",
    "Job",
    "JobSpec",
    "JobValidationError",
    "PriorityJobQueue",
    "QueueFull",
    "ServiceClient",
    "ServiceConfig",
    "ServiceError",
    "ServiceJournal",
    "SimulationService",
    "build_job_report",
    "chaos_execute_spec",
    "default_chaos_jobs",
    "replay_journal",
    "run_chaos_campaign",
    "run_service",
    "write_chaos_plan",
]
