"""Batch experiment orchestration: specs, jobs, dispatch, store, merge.

The campaign subsystem turns the one-shot scheduler into a batch
service: declarative :class:`CampaignSpec` grids expand into
content-hashed :class:`Job` units, executed in process at one worker or
on work-stealing directory workers (:func:`worker_loop`, on a private
temporary directory or a persistent multi-host one), persisted to an
append-only JSONL :class:`ResultStore` (making every campaign
resumable), memoized in a content-addressed :class:`ScheduleCache`
shared across campaigns, and merged bit-identically across shards with
:func:`merge_stores`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "backends.directory": (
        "DirectoryCampaign", "WorkerReport", "cpu_affinity_count",
        "default_worker_count", "worker_loop",
    ),
    "cache": ("ScheduleCache",),
    "jobs": (
        "Job", "build_architecture", "build_problem", "execute_job",
        "expand_jobs", "job_digest", "job_problem",
    ),
    "merge": ("MergeConflictError", "MergeReport", "merge_stores"),
    "runner": (
        "CampaignReport", "CampaignStatus", "campaign_report",
        "campaign_status", "reliability_heatmap", "run_campaign",
    ),
    "spec": (
        "BACKENDS", "CampaignSpec", "FailureSpec", "ReliabilitySpec",
        "WorkloadSpec", "campaign_from_dict", "campaign_to_dict", "load_campaign",
        "save_campaign",
    ),
    "store": ("ResultStore",),
})

__all__ = [
    "BACKENDS",
    "CampaignReport",
    "CampaignSpec",
    "CampaignStatus",
    "DirectoryCampaign",
    "FailureSpec",
    "Job",
    "MergeConflictError",
    "MergeReport",
    "ReliabilitySpec",
    "ResultStore",
    "ScheduleCache",
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
    "expand_jobs",
    "job_digest",
    "job_problem",
    "load_campaign",
    "merge_stores",
    "reliability_heatmap",
    "run_campaign",
    "save_campaign",
    "worker_loop",
]
