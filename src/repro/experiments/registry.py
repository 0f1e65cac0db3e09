"""String-keyed component registries for the declarative study layer.

Specs reference components — policies, policy drivers, workload suites,
evaluation backends, platform presets — by *name*; the registries here resolve
those names into live factories.  Registering a new component makes it usable
from any spec (Python, JSON or TOML) without touching the executor:

.. code-block:: python

   from repro.experiments import register_policy

   @register_policy("my-policy")
   def make_my_policy(threshold: float = 0.5):
       return MyPolicy(threshold)

Every registry rejects duplicate names at registration time and raises a
:class:`~repro.errors.SpecError` listing the registered alternatives when a
spec names an unknown component.

Factory conventions (all keyword arguments come from ``PolicySpec.params``):

* **policies** — the factory returns a
  :class:`~repro.policies.base.ClusteringPolicy`.  A factory carrying the
  attribute ``wants_solver = True`` additionally receives the scenario's
  :class:`~repro.experiments.specs.SolverSpec` as the keyword ``solver``
  (used by ``best_static`` to pick its search budget).
* **drivers** — the factory (usually the driver class itself) is shipped in
  a :class:`~repro.runtime.executors.base.RunSpec` and called once per run
  inside the worker; a TCP worker receives it as its name in this registry,
  so the worker process must have imported the registering module.  A
  factory with ``wants_profiles = True`` receives the workload's stationary
  profiles as the keyword ``profiles``, built where the run executes (used
  by the ``static`` replay driver).
* **workload suites** — the factory takes an optional ``max_size`` keyword
  and returns a list of :class:`~repro.workloads.generator.Workload`.
* **engine backends** — the registered value is the
  :class:`~repro.runtime.engine.EngineConfig` backend string the name lowers
  to, so an alias (or a future disk-backed variant) can map onto an existing
  execution path.
* **platform presets** — the factory takes no arguments and returns a
  :class:`~repro.hardware.platform.PlatformSpec`.
* **executors** — the factory receives the scenario-independent
  :class:`~repro.experiments.specs.ExecutorSpec` and returns a started
  :class:`~repro.runtime.executors.base.Executor` (``serial``, ``pool``,
  ``tcp`` and ``supervised`` are built in; register your own to plug a new
  execution strategy into every study and CLI invocation).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.errors import SpecError

__all__ = [
    "Registry",
    "POLICIES",
    "DRIVERS",
    "WORKLOAD_SUITES",
    "ENGINE_BACKENDS",
    "PLATFORMS",
    "EXECUTORS",
    "register_policy",
    "register_driver",
    "register_workload_suite",
    "register_backend",
    "register_platform",
    "register_executor",
]


class Registry:
    """A named table of component factories with clear resolution errors."""

    def __init__(self, kind: str) -> None:
        #: Human-readable component kind ("policy", "workload suite", ...),
        #: used in every error message.
        self.kind = kind
        self._entries: Dict[str, Any] = {}

    def register(self, name: str, entry: Any = None):
        """Register ``entry`` under ``name``; usable as a decorator.

        ``register("x", factory)`` registers directly; ``@register("x")``
        registers the decorated callable and returns it unchanged.
        """
        if not isinstance(name, str) or not name:
            # Catches the bare `@register_policy` misuse (the decorated
            # function arrives as `name`), which would otherwise silently
            # rebind the factory to the inner decorator closure.
            raise SpecError(
                f"{self.kind} registration needs a name string, got {name!r} "
                f"(use @register(\"<name>\"), not a bare @register)"
            )
        if entry is None:

            def decorator(factory: Callable) -> Callable:
                self._add(name, factory)
                return factory

            return decorator
        self._add(name, entry)
        return entry

    def _add(self, name: str, entry: Any) -> None:
        if not isinstance(name, str) or not name:
            raise SpecError(f"{self.kind} names must be non-empty strings, got {name!r}")
        if name in self._entries:
            raise SpecError(f"duplicate {self.kind} registration {name!r}")
        self._entries[name] = entry

    def resolve(self, name: str) -> Any:
        """The entry registered under ``name``; SpecError on unknown names."""
        try:
            return self._entries[name]
        except (KeyError, TypeError):
            known = ", ".join(repr(n) for n in self.names()) or "<none>"
            raise SpecError(
                f"unknown {self.kind} {name!r}; registered {self.kind}s: {known}"
            ) from None

    def names(self) -> List[str]:
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        return name in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Registry kind={self.kind!r} entries={self.names()}>"


POLICIES = Registry("policy")
DRIVERS = Registry("policy driver")
WORKLOAD_SUITES = Registry("workload suite")
ENGINE_BACKENDS = Registry("engine backend")
PLATFORMS = Registry("platform preset")
EXECUTORS = Registry("executor")

register_policy = POLICIES.register
register_driver = DRIVERS.register
register_workload_suite = WORKLOAD_SUITES.register
register_backend = ENGINE_BACKENDS.register
register_platform = PLATFORMS.register
register_executor = EXECUTORS.register


# ---------------------------------------------------------------------------
# Built-in components
# ---------------------------------------------------------------------------
# Imports are deliberately local to this section: the registries above must
# exist before any factory module that wants to self-register is imported.

from repro.hardware.platform import (  # noqa: E402
    broadwell_like,
    skylake_gold_6138,
    small_test_platform,
)
from repro.policies import (  # noqa: E402
    BestStaticPolicy,
    DunnPolicy,
    KPartPolicy,
    LfocKernelPolicy,
    LfocPolicy,
    StockLinuxPolicy,
    UcpPolicy,
)
from repro.runtime.scheduler import (  # noqa: E402
    DunnUserLevelDaemon,
    LfocSchedulerPlugin,
    StaticPolicyDriver,
    StockLinuxDriver,
)
from repro.workloads.suites import (  # noqa: E402
    all_workloads,
    dynamic_study_workloads,
    p_workloads,
    s_workloads,
)

register_policy("stock", StockLinuxPolicy)
register_policy("dunn", DunnPolicy)
register_policy("kpart", KPartPolicy)
register_policy("lfoc", LfocPolicy)
register_policy("lfoc_kernel", LfocKernelPolicy)
register_policy("ucp", UcpPolicy)


@register_policy("best_static")
def _best_static_policy(*, solver=None, **params):
    """Fairness-optimal static clustering, scoped by the scenario solver spec."""
    if solver is not None:
        params.setdefault("exact_limit", solver.exact_limit)
        params.setdefault("local_search_iterations", solver.local_search_iterations)
    return BestStaticPolicy(**params)


_best_static_policy.wants_solver = True


register_driver("stock", StockLinuxDriver)
register_driver("dunn", DunnUserLevelDaemon)
register_driver("lfoc", LfocSchedulerPlugin)


@register_driver("static")
def _static_replay_driver(*, profiles, policy, solver=None, **params):
    """Replay a static policy inside the runtime engine (Section 5.1 in 5.2)."""
    from repro.experiments.specs import PolicySpec, resolve_policy

    spec = PolicySpec.coerce(policy, where="driver 'static' policy")
    return StaticPolicyDriver(resolve_policy(spec, solver), profiles, **params)


_static_replay_driver.wants_profiles = True
_static_replay_driver.wants_solver = True

#: What a fresh ``import repro`` registers: all that spawned workers resolve.
BUILTIN_POLICIES = frozenset(POLICIES.names())
BUILTIN_DRIVERS = frozenset(DRIVERS.names())


def _suite(factory):
    """Adapt a zero-argument suite builder to the ``max_size`` convention."""

    def build(max_size: Optional[int] = None):
        workloads = list(factory())
        if max_size is not None:
            workloads = [w for w in workloads if w.size <= max_size]
        return workloads

    return build


register_workload_suite("s", _suite(s_workloads))
register_workload_suite("p", _suite(p_workloads))
register_workload_suite("all", _suite(all_workloads))
register_workload_suite("static_study", _suite(s_workloads))
register_workload_suite("dynamic_study", _suite(dynamic_study_workloads))

register_backend("incremental", "incremental")
register_backend("multirun", "multirun")

register_platform("skylake_gold_6138", skylake_gold_6138)
register_platform("broadwell_like", broadwell_like)
register_platform("small_test", small_test_platform)


from repro.runtime.executors import (  # noqa: E402
    SerialExecutor,
    TCPExecutor,
    parse_address,
    resolve_jobs,
)


@register_executor("serial")
def _serial_executor(spec):
    """In-process execution, one run at a time (the deterministic default)."""
    return SerialExecutor()


@register_executor("pool")
def _pool_executor(spec):
    """The ``jobs`` path: ``supervised`` with ``workers`` read as ``jobs``
    reads it (unset means all CPUs but one, and 1 runs in-process)."""
    workers = resolve_jobs(spec.workers)
    if workers == 1:
        return SerialExecutor()
    return TCPExecutor(supervise=workers, min_workers=workers, **_tcp_kwargs(spec))


def _tcp_kwargs(spec):
    return dict(
        bind=parse_address(spec.bind or "127.0.0.1:0"),
        heartbeat_s=spec.heartbeat_s,
        heartbeat_grace_s=spec.heartbeat_grace_s,
        connect_timeout_s=spec.connect_timeout_s,
        task_timeout_s=spec.task_timeout_s,
        max_retries=spec.max_retries,
        chaos=spec.fault_plan(),
    )


@register_executor("tcp")
def _tcp_executor(spec):
    """Multi-host coordinator; workers join via ``repro.cli worker --connect``."""
    return TCPExecutor(min_workers=spec.workers or 1, **_tcp_kwargs(spec))


@register_executor("supervised")
def _supervised_executor(spec):
    """TCP coordinator that spawns and babysits its own local workers.

    ``workers`` local subprocesses are spawned, reaped on exit and respawned
    with capped backoff behind a crash-loop circuit breaker — the
    single-command replacement for the two-terminal tcp setup.
    """
    workers = spec.workers or 1
    return TCPExecutor(supervise=workers, min_workers=workers, **_tcp_kwargs(spec))
