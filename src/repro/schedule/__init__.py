"""Static schedule model: events, timelines, validation, rendering."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "events": ("ScheduledComm", "ScheduledOperation"),
    "gantt": ("render_gantt", "schedule_table"),
    "graphviz": (
        "algorithm_to_dot", "architecture_to_dot", "schedule_to_dot",
    ),
    "schedule": ("Schedule",),
    "validation": (
        "ValidationReport", "assert_valid_schedule", "validate_schedule",
    ),
})

__all__ = [
    "Schedule",
    "ScheduledComm",
    "ScheduledOperation",
    "ValidationReport",
    "algorithm_to_dot",
    "architecture_to_dot",
    "assert_valid_schedule",
    "render_gantt",
    "schedule_table",
    "schedule_to_dot",
    "validate_schedule",
]
