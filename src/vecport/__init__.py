"""Neon-to-RVV intrinsic translation pipeline with register-pressure feedback."""

from .corpus import bundled_corpus_dir, load_corpus, validate_case
from .liveness import analyze_source, compute_pressure, solve_liveness
from .metrics import MetricsReport
from .orchestrator import Budgets, TaskDeps, run_task, select_best
from .parser import parse_function
from .rvv_types import parse_vector_type, register_footprint

__version__ = "0.1.0"

__all__ = [
    "Budgets",
    "MetricsReport",
    "TaskDeps",
    "analyze_source",
    "bundled_corpus_dir",
    "compute_pressure",
    "load_corpus",
    "parse_function",
    "parse_vector_type",
    "register_footprint",
    "run_task",
    "select_best",
    "solve_liveness",
    "validate_case",
]
