"""Batch experiment orchestration: specs, jobs, backends, store, merge.

The campaign subsystem turns the one-shot scheduler into a batch
service: declarative :class:`CampaignSpec` grids expand into
content-hashed :class:`Job` units, executed through a pluggable
:class:`ExecutionBackend` (in-process ``serial``, the single-host
``local`` pool, or the work-stealing multi-host ``directory`` queue),
persisted to an append-only JSONL :class:`ResultStore` (making every
campaign resumable), memoized in a content-addressed
:class:`ScheduleCache` shared across campaigns, and merged
bit-identically across shards with :func:`merge_stores`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "backends": (
        "BACKENDS", "DirectoryBackend", "ExecutionBackend", "LocalPoolBackend",
        "SerialBackend", "make_backend",
    ),
    "backends.directory": (
        "DirectoryCampaign", "WorkerReport", "worker_loop",
    ),
    "cache": ("ScheduleCache",),
    "jobs": (
        "Job", "build_architecture", "build_problem", "execute_job",
        "expand_jobs", "job_digest", "job_problem",
    ),
    "merge": ("MergeConflictError", "MergeReport", "merge_stores"),
    "pool": ("cpu_affinity_count", "default_worker_count", "execute_jobs"),
    "runner": (
        "CampaignReport", "CampaignStatus", "campaign_report",
        "campaign_status", "reliability_heatmap", "run_campaign",
    ),
    "spec": (
        "CampaignSpec", "FailureSpec", "ReliabilitySpec", "WorkloadSpec",
        "campaign_from_dict", "campaign_to_dict", "load_campaign",
        "save_campaign",
    ),
    "store": ("ResultStore",),
})

__all__ = [
    "BACKENDS",
    "CampaignReport",
    "CampaignSpec",
    "CampaignStatus",
    "DirectoryBackend",
    "DirectoryCampaign",
    "ExecutionBackend",
    "FailureSpec",
    "Job",
    "LocalPoolBackend",
    "MergeConflictError",
    "MergeReport",
    "ReliabilitySpec",
    "ResultStore",
    "ScheduleCache",
    "SerialBackend",
    "WorkerReport",
    "WorkloadSpec",
    "build_architecture",
    "build_problem",
    "campaign_from_dict",
    "campaign_report",
    "campaign_status",
    "campaign_to_dict",
    "cpu_affinity_count",
    "default_worker_count",
    "execute_job",
    "execute_jobs",
    "expand_jobs",
    "job_digest",
    "job_problem",
    "load_campaign",
    "make_backend",
    "merge_stores",
    "reliability_heatmap",
    "run_campaign",
    "save_campaign",
    "worker_loop",
]
