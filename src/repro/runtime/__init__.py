"""OS-runtime simulation: online monitoring, sampling mode, dynamic policies."""

from repro.runtime.monitor import AppMonitor, MonitorConfig
from repro.runtime.sampling import SamplingConfig, SamplingOutcome, SamplingSession
from repro.runtime.scheduler import (
    DunnUserLevelDaemon,
    LfocSchedulerPlugin,
    PolicyDriver,
    StaticPolicyDriver,
    StockLinuxDriver,
)
from repro.runtime.engine import EngineConfig, RuntimeEngine, alone_completion_time
from repro.runtime.multirun import MultiRunEngine, RunGroup, group_run_specs
from repro.runtime.results import AppRunStats, RepartitionEvent, RunResult, TracePoint
from repro.runtime.executors import (
    Executor,
    RunContext,
    RunSpec,
    SerialExecutor,
    TCPExecutor,
    execute_run,
    run_worker,
)

__all__ = [
    "RunSpec",
    "Executor",
    "SerialExecutor",
    "TCPExecutor",
    "RunContext",
    "execute_run",
    "run_worker",
    "AppMonitor",
    "MonitorConfig",
    "SamplingConfig",
    "SamplingOutcome",
    "SamplingSession",
    "DunnUserLevelDaemon",
    "LfocSchedulerPlugin",
    "PolicyDriver",
    "StaticPolicyDriver",
    "StockLinuxDriver",
    "EngineConfig",
    "RuntimeEngine",
    "MultiRunEngine",
    "RunGroup",
    "group_run_specs",
    "alone_completion_time",
    "AppRunStats",
    "RepartitionEvent",
    "RunResult",
    "TracePoint",
]
