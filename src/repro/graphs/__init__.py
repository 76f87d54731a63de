"""Algorithm model: data-flow graphs of operations (paper section 3.2)."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "algorithm": ("AlgorithmGraph", "from_dependencies"),
    "builder": (
        "AlgorithmGraphBuilder", "diamond", "fork_join", "independent_tasks",
        "layered", "linear_chain",
    ),
    "operations": (
        "Operation", "OperationKind", "is_memory_half", "memory_base_name",
        "memory_read_name", "memory_write_name",
    ),
})

__all__ = [
    "AlgorithmGraph",
    "AlgorithmGraphBuilder",
    "Operation",
    "OperationKind",
    "diamond",
    "fork_join",
    "from_dependencies",
    "independent_tasks",
    "is_memory_half",
    "layered",
    "linear_chain",
    "memory_base_name",
    "memory_read_name",
    "memory_write_name",
]
