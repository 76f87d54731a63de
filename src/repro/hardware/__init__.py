"""Architecture model: processors and communication links (section 3.3)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "architecture": ("Architecture",),
    "link": ("Link", "LinkKind"),
    "processor": ("Processor",),
    "routing": ("RoutePlanner",),
    "topologies": ("fully_connected", "ring", "single_bus", "star"),
})

__all__ = [
    "Architecture",
    "Link",
    "LinkKind",
    "Processor",
    "RoutePlanner",
    "fully_connected",
    "ring",
    "single_bus",
    "star",
]
