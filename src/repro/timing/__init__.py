"""Timing characterisation: ``Exe``, ``Dis`` and ``Rtc`` (section 3.4)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "comm_times": ("CommunicationTimes",),
    "constraints": ("RealTimeConstraints", "RtcReport", "RtcViolation"),
    "exec_times": ("FORBIDDEN", "ExecutionTimes"),
})

__all__ = [
    "CommunicationTimes",
    "ExecutionTimes",
    "FORBIDDEN",
    "RealTimeConstraints",
    "RtcReport",
    "RtcViolation",
]
