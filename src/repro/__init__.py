"""repro — robust monitors with run-time concurrency-control fault detection.

A complete, from-scratch reproduction of *"Run-time Fault Detection in
Monitor Based Concurrent Programming"* (Jiannong Cao, Nick K.C. Cheung,
Alvin T.S. Chan — DSN 2001): the monitor construct, the taxonomy of 21
concurrency-control faults, the scheduling event/state history model, the
FD- and ST-rules, the three detection algorithms, the fault-injection
robustness experiment and the checking-overhead experiment — all on a
deterministic simulated concurrency substrate (plus a real-thread kernel
for wall-clock measurements).

Quickstart::

    from repro import (SimKernel, RandomPolicy, Delay, HistoryDatabase,
                       BoundedBuffer, DetectionSession, DetectorConfig)

    kernel = SimKernel(RandomPolicy(seed=1))
    buffer = BoundedBuffer(kernel, capacity=4, history=HistoryDatabase())
    session = DetectionSession(
        kernel, monitors=[buffer], config=DetectorConfig(interval=0.5)
    )

    def producer():
        for item in range(100):
            yield Delay(0.05)
            yield from buffer.send(item)

    def consumer():
        for __ in range(100):
            yield Delay(0.05)
            yield from buffer.receive()

    kernel.spawn(producer())
    kernel.spawn(consumer())
    session.start()
    kernel.run(until=60)
    assert session.clean

Scaling out is a keyword argument — ``DetectionSession(kernel,
monitors=fleet, shards=4, durable_dir="state/")`` partitions the fleet
across four staggered engine shards with per-shard crash durability.

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-versus-measured record.
"""

from repro.apps import (
    BarberShop,
    BoundedBuffer,
    BufferIntegrityFault,
    CountingResourceAllocator,
    CyclicBarrier,
    ForkTable,
    ReadersWriters,
    SharedAccount,
    SingleResourceAllocator,
    WaterFactory,
    philosopher,
)
from repro.detection import (
    BreakerState,
    CallingOrderChecker,
    CheckpointSupervisor,
    CircuitBreaker,
    Confidence,
    DeadlockDetector,
    DetectionCluster,
    DetectionEngine,
    DetectionSession,
    DetectorConfig,
    DurableEngine,
    shard_process,
    RecoverySummary,
    FaultClass,
    FaultLevel,
    FaultReport,
    FaultStatistics,
    FDRule,
    QuarantineRecord,
    ResourceStateChecker,
    STRule,
    check_full_trace,
    check_general_concurrency_control,
    report_key,
    supervisor_process,
)
from repro.errors import (
    DeclarationError,
    KernelError,
    MonitorError,
    MonitorUsageError,
    PathExpressionError,
    ReproError,
    SimulationDeadlock,
)
from repro.history import (
    BoundedHistory,
    WriteAheadLog,
    EventKind,
    EventSink,
    HistoryDatabase,
    QueueEntry,
    SchedulingEvent,
    SchedulingState,
    Segment,
)
from repro.injection import (
    CAMPAIGNS,
    CampaignOutcome,
    CampaignResult,
    ChaosConfig,
    CrashPoint,
    CrashRecoveryConfig,
    TriggeredHooks,
    run_all_campaigns,
    run_campaign,
    run_chaos_campaign,
    run_crash_recovery_campaign,
)
from repro.kernel import (
    Block,
    Delay,
    FifoPolicy,
    Kernel,
    KernelSemaphore,
    LifoPolicy,
    ProcessState,
    RandomPolicy,
    RunResult,
    SimKernel,
    Spawn,
    ThreadKernel,
    Yield,
)
from repro.monitor import (
    CoreHooks,
    Discipline,
    Monitor,
    MonitorBase,
    MonitorCore,
    MonitorDeclaration,
    MonitorMetrics,
    MonitorType,
    procedure,
)
from repro.pathexpr import OrderAutomaton, compile_order, parse_path_expression
from repro.recovery import (
    AlarmStrategy,
    AssertionChecker,
    ExpelStrategy,
    MonitorAssertion,
    RecoveryAction,
    RecoverySupervisor,
    ResetQueuesStrategy,
)
from repro.workloads import SCENARIOS, WorkloadSpec, build_scenario

__version__ = "1.0.0"

__all__ = [
    # kernels
    "Kernel",
    "SimKernel",
    "ThreadKernel",
    "KernelSemaphore",
    "ProcessState",
    "RunResult",
    "FifoPolicy",
    "LifoPolicy",
    "RandomPolicy",
    "Delay",
    "Block",
    "Yield",
    "Spawn",
    # monitor construct
    "Monitor",
    "MonitorBase",
    "MonitorCore",
    "MonitorDeclaration",
    "MonitorType",
    "Discipline",
    "CoreHooks",
    "procedure",
    "MonitorMetrics",
    # history
    "EventSink",
    "HistoryDatabase",
    "BoundedHistory",
    "WriteAheadLog",
    "Segment",
    "SchedulingEvent",
    "SchedulingState",
    "QueueEntry",
    "EventKind",
    # detection
    "FaultClass",
    "FaultLevel",
    "FDRule",
    "STRule",
    "FaultReport",
    "Confidence",
    "DetectorConfig",
    "DetectionEngine",
    "DetectionCluster",
    "DetectionSession",
    "shard_process",
    "DurableEngine",
    "RecoverySummary",
    "report_key",
    "BreakerState",
    "CircuitBreaker",
    "QuarantineRecord",
    "CheckpointSupervisor",
    "supervisor_process",
    "check_general_concurrency_control",
    "check_full_trace",
    "ResourceStateChecker",
    "CallingOrderChecker",
    "FaultStatistics",
    "DeadlockDetector",
    # path expressions
    "parse_path_expression",
    "compile_order",
    "OrderAutomaton",
    # injection
    "TriggeredHooks",
    "CampaignOutcome",
    "CAMPAIGNS",
    "run_campaign",
    "run_all_campaigns",
    "CampaignResult",
    "ChaosConfig",
    "run_chaos_campaign",
    "CrashPoint",
    "CrashRecoveryConfig",
    "run_crash_recovery_campaign",
    # recovery extensions
    "MonitorAssertion",
    "AssertionChecker",
    "RecoveryAction",
    "RecoverySupervisor",
    "AlarmStrategy",
    "ExpelStrategy",
    "ResetQueuesStrategy",
    # apps
    "BoundedBuffer",
    "BufferIntegrityFault",
    "SingleResourceAllocator",
    "CountingResourceAllocator",
    "SharedAccount",
    "ReadersWriters",
    "ForkTable",
    "philosopher",
    "BarberShop",
    "CyclicBarrier",
    "WaterFactory",
    # workloads
    "WorkloadSpec",
    "SCENARIOS",
    "build_scenario",
    # errors
    "ReproError",
    "KernelError",
    "SimulationDeadlock",
    "MonitorError",
    "MonitorUsageError",
    "DeclarationError",
    "PathExpressionError",
    "__version__",
]
