"""futurecall: asynchronous function calling for tool-using language models.

Calls dispatch in the background and return symbolic future placeholders
immediately; a dependency-aware scheduler keeps concurrent execution safe and
resolved results are integrated back into the conversation at turn
boundaries. A deterministic simulator with scripted decoders and
latency-injected mock tools drives and verifies everything, and the analysis
module quantifies where the latency savings come from.
"""

from .analysis import (
    DependencyDag,
    SavingsReport,
    annotation_confusion,
    classify_regime,
    critical_path,
    effective_union,
    ideal_speedup,
    mcnemar,
    overhead_speedup,
    paired_log_speedup_test,
    savings_decomposition,
    sequential_sum,
    trace_to_inputs,
)
from .clock import VirtualClock, WallClock
from .driver import (
    ASYNC_PARALLEL,
    ASYNC_SEQUENTIAL,
    MODES,
    SYNC_PARALLEL,
    SYNC_SEQUENTIAL,
    ChatCompletionsDecoder,
    Message,
    ScriptedDecoder,
    TurnDriver,
    lint_context,
    run_workload,
)
from .errors import ErrorInfo, FuturecallError
from .executor import Executor, StateStore, ToolExecutionError
from .futures import FutureStore
from .scheduler import (
    Access,
    AccessLabel,
    CallRecord,
    Scheduler,
    SessionState,
    conflicts,
    resolve_paths,
)
from .schema import (
    DependencyAnnotation,
    FunctionSchema,
    await_future_schema,
    futurize_output_template,
    scan_future_refs,
    substitute_resolved,
    transform_schema,
)
from .trace import RunTrace, TraceEvent
from .workload import (
    WorkloadSpec,
    load_workload,
    make_latency_sweep,
    workload_from_json,
)

__version__ = "0.1.0"

__all__ = [
    "ASYNC_PARALLEL",
    "ASYNC_SEQUENTIAL",
    "Access",
    "AccessLabel",
    "CallRecord",
    "ChatCompletionsDecoder",
    "DependencyAnnotation",
    "DependencyDag",
    "ErrorInfo",
    "Executor",
    "FunctionSchema",
    "FutureStore",
    "FuturecallError",
    "MODES",
    "Message",
    "RunTrace",
    "SYNC_PARALLEL",
    "SYNC_SEQUENTIAL",
    "SavingsReport",
    "Scheduler",
    "ScriptedDecoder",
    "SessionState",
    "StateStore",
    "ToolExecutionError",
    "TraceEvent",
    "TurnDriver",
    "VirtualClock",
    "WallClock",
    "WorkloadSpec",
    "annotation_confusion",
    "await_future_schema",
    "classify_regime",
    "conflicts",
    "critical_path",
    "effective_union",
    "futurize_output_template",
    "ideal_speedup",
    "lint_context",
    "load_workload",
    "make_latency_sweep",
    "mcnemar",
    "overhead_speedup",
    "paired_log_speedup_test",
    "resolve_paths",
    "run_workload",
    "savings_decomposition",
    "scan_future_refs",
    "sequential_sum",
    "substitute_resolved",
    "trace_to_inputs",
    "transform_schema",
    "workload_from_json",
]
