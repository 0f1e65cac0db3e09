"""Tests for the pluggable executor protocol (serial / local workers / tcp).

Three guarantees, per backend:

* **equivalence** — every backend produces bit-identical results for the
  same specs, merged in submission order regardless of completion order;
* **labels** — ``RunSpec.label`` threads through to ``RunResult.label``,
  defaulting to the driver's name as documented;
* **faults** — a driver raising ``SimulationError`` mid-batch surfaces the
  failing spec's label and leaves earlier results with the caller; a killed
  TCP worker triggers resubmission and the final rows are unchanged.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import SimulationError
from repro.runtime import (
    EngineConfig,
    DunnUserLevelDaemon,
    RunSpec,
    SerialExecutor,
    StockLinuxDriver,
    TCPExecutor,
)
from repro.runtime.executors import (
    parse_address,
    task_label,
    worker_tables,
)
from repro.workloads import workload_by_name

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

FAST = EngineConfig(
    instructions_per_run=2.0e8, min_completions=1, record_traces=False
)


class ExplodingDriver(StockLinuxDriver):
    """Fails deterministically at run start (fault-path tests, serial only)."""

    name = "Exploding"

    def on_start(self, apps, platform):
        raise SimulationError("boom: driver refused to start")


def make_specs(workload):
    return [
        RunSpec(workload=workload, driver_cls=StockLinuxDriver),
        RunSpec(workload=workload, driver_cls=DunnUserLevelDaemon, label="Dunn"),
        RunSpec(workload=workload, driver_cls=StockLinuxDriver, label="baseline-2"),
        RunSpec(workload=workload, driver_cls=DunnUserLevelDaemon),
    ]


def local_executor(jobs):
    """The executor ``jobs=N`` runs on (the ``pool`` executor name)."""
    from repro.experiments import ExecutorSpec

    return ExecutorSpec(name="pool", workers=jobs).create()


def result_key(result):
    """Exactly-comparable image of a RunResult for cross-backend equality."""
    return (
        result.policy,
        result.label,
        result.workload,
        result.duration_s,
        {name: stats.completion_times for name, stats in result.app_stats.items()},
        sorted(result.slowdowns().items()),
        result.n_repartitions,
    )


@pytest.fixture(scope="module")
def p1():
    return workload_by_name("P1")


@pytest.fixture(scope="module")
def serial_results(platform, p1):
    executor = SerialExecutor()
    executor.prepare(platform, default_config=FAST)
    with executor:
        return executor.map_specs(make_specs(p1))


def spawn_worker(port: int, *extra: str) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC_DIR) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "worker",
            "--connect",
            f"127.0.0.1:{port}",
            "--quiet",
            *extra,
        ],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )


class TestSerialExecutor:
    def test_labels_thread_through(self, serial_results):
        assert [r.label for r in serial_results] == [
            "Stock-Linux",  # defaulted to the driver's name
            "Dunn",
            "baseline-2",
            "Dunn",  # defaulted again
        ]
        assert [r.policy for r in serial_results] == [
            "Stock-Linux",
            "Dunn",
            "Stock-Linux",
            "Dunn",
        ]

    def test_submit_as_completed_streams(self, platform, p1):
        executor = SerialExecutor()
        executor.prepare(platform, default_config=FAST)
        specs = make_specs(p1)[:2]
        tickets = [executor.submit(spec) for spec in specs]
        assert tickets == [0, 1]
        assert executor.outstanding() == 2
        seen = list(executor.as_completed())
        assert [t for t, _ in seen] == tickets
        assert executor.outstanding() == 0

    def test_requires_context(self, p1):
        executor = SerialExecutor()
        with pytest.raises(SimulationError, match="no context"):
            executor.submit(RunSpec(workload=p1, driver_cls=StockLinuxDriver))

    def test_error_surfaces_label_and_keeps_prior_results(self, platform, p1):
        executor = SerialExecutor()
        executor.prepare(platform, default_config=FAST)
        executor.submit(RunSpec(workload=p1, driver_cls=StockLinuxDriver))
        executor.submit(
            RunSpec(workload=p1, driver_cls=ExplodingDriver, label="bad-run")
        )
        executor.submit(RunSpec(workload=p1, driver_cls=StockLinuxDriver))
        collected = []
        with pytest.raises(SimulationError, match="bad-run"):
            for ticket, result in executor.as_completed():
                collected.append((ticket, result))
        # The run before the failure stays with the caller, intact.
        assert len(collected) == 1
        assert collected[0][0] == 0
        assert collected[0][1].policy == "Stock-Linux"

    def test_context_swap_with_outstanding_work_rejected(self, platform, p1):
        executor = SerialExecutor()
        executor.prepare(platform, default_config=FAST)
        executor.submit(RunSpec(workload=p1, driver_cls=StockLinuxDriver))
        with pytest.raises(SimulationError, match="outstanding"):
            executor.prepare(platform, default_config=FAST)

    def test_non_simulation_errors_also_wrapped_with_label(self, platform, p1):
        executor = SerialExecutor()
        executor.prepare(platform, default_config=FAST)
        spec = RunSpec(
            workload=p1,
            driver_cls=StockLinuxDriver,
            driver_kwargs={"no_such_kwarg": 1},  # TypeError at construction
            label="typo-run",
        )
        with pytest.raises(SimulationError, match="typo-run.*TypeError"):
            executor.map_specs([spec])

    def test_task_label_helper(self, p1):
        spec = RunSpec(workload=p1, driver_cls=StockLinuxDriver)
        assert task_label(spec) == "Stock-Linux@P1"
        assert task_label({"not": "a spec"}).startswith("{")


class TestLocalWorkers:
    """``jobs=N`` and the ``pool`` name: N supervised local wire workers."""

    def test_matches_serial_bit_for_bit(self, platform, p1, serial_results):
        with local_executor(2) as executor:
            assert isinstance(executor, TCPExecutor) and executor.supervise == 2
            executor.prepare(platform, default_config=FAST)
            results = executor.map_specs(make_specs(p1))
        assert [result_key(r) for r in results] == [
            result_key(r) for r in serial_results
        ]

    def test_worker_errors_are_wrapped_with_the_label(self, platform, p1):
        with local_executor(2) as executor:
            executor.prepare(platform, default_config=FAST)
            typo = RunSpec(
                workload=p1,
                driver_cls=StockLinuxDriver,
                driver_kwargs={"no_such_kwarg": 1},  # TypeError on the worker
                label="typo-run",
            )
            with pytest.raises(SimulationError, match="typo-run.*TypeError"):
                executor.map_specs([typo, make_specs(p1)[1]])

    def test_one_job_runs_in_process_and_wraps_errors(self, platform, p1):
        executor = local_executor(1)
        assert isinstance(executor, SerialExecutor)
        with executor:
            executor.prepare(platform, default_config=FAST)
            with pytest.raises(SimulationError, match="bad-run"):
                executor.map_specs(
                    [RunSpec(workload=p1, driver_cls=ExplodingDriver, label="bad-run")]
                )

    def test_rejects_zero_jobs(self):
        from repro.errors import SpecError
        from repro.experiments import StudySpec, run_study

        spec = StudySpec.from_dict(
            {"name": "z", "scenarios": [{"name": "s", "kind": "static", "workloads": [
                {"suite": "s", "names": ["S1"]}]}]}
        )
        with pytest.raises(SimulationError, match="jobs must be >= 1"):
            run_study(spec, jobs=0)
        with pytest.raises(SpecError, match="workers"):
            local_executor(0)

    def test_pool_name_is_the_jobs_path(self, monkeypatch):
        from repro.experiments import ExecutorSpec

        monkeypatch.setattr(os, "cpu_count", lambda: 5)
        with ExecutorSpec(name="pool").create() as default:
            assert isinstance(default, TCPExecutor)
            assert default.supervise == default.min_workers == 4  # CPUs - 1
        assert isinstance(ExecutorSpec(name="pool", workers=1).create(), SerialExecutor)

    def test_pool_name_applies_the_supervised_fields(self):
        from repro.experiments import ExecutorSpec

        fields = dict(
            workers=2, bind="127.0.0.1:0", heartbeat_s=1.5, connect_timeout_s=9.0,
            task_timeout_s=30.0, max_retries=5, chaos={"drop_frames": [3]},
        )
        with ExecutorSpec(name="pool", **fields).create() as pool, ExecutorSpec(
            name="supervised", **fields
        ).create() as supervised:
            for executor in (pool, supervised):
                assert executor.supervise == executor.min_workers == 2
                assert executor.address[0] == "127.0.0.1"
                assert (executor.heartbeat_s, executor.connect_timeout_s) == (1.5, 9.0)
                assert (executor.task_timeout_s, executor.max_retries) == (30.0, 5)
                assert executor.chaos.drop_frames == (3,)

    def test_spawns_no_more_workers_than_the_batch_has_runs(self, platform, p1):
        with local_executor(4) as executor:
            executor.prepare(platform, default_config=FAST)
            executor.map_specs(make_specs(p1)[:2])
            supervisor = executor.summary()["supervisor"]
            assert supervisor["slots"] == 2 and supervisor["spawns"] == [1, 1]
            assert executor.min_workers == executor.parallelism() == 4

    def test_a_larger_later_batch_adds_workers(self, platform, p1):
        """A one-run batch spawns one worker; the next, four-run batch
        brings the coordinator up to its configured four."""
        specs = make_specs(p1)
        with local_executor(4) as executor:
            executor.prepare(platform, default_config=FAST)
            first = executor.map_specs(specs[:1])
            assert executor.summary()["supervisor"]["spawns"] == [1]
            rest = executor.map_specs(specs)
            supervisor = executor.summary()["supervisor"]
        assert supervisor["slots"] == 4 and supervisor["spawns"] == [1, 1, 1, 1]
        assert supervisor["restarts"] == 0
        with SerialExecutor() as serial:
            serial.prepare(platform, default_config=FAST)
            expected = [result_key(r) for r in serial.map_specs(specs)]
        assert [result_key(r) for r in first + rest] == expected[:1] + expected

    def test_supervised_workers_survive_a_context_swap(self, platform, p1):
        """A new context reaches the live workers in-band: nothing respawns,
        and each batch's rows are the serial rows under its own context."""
        other = EngineConfig(
            instructions_per_run=3.0e8, min_completions=1, record_traces=False
        )
        specs = make_specs(p1)

        def serial(config):
            with SerialExecutor() as executor:
                executor.prepare(platform, default_config=config)
                return [result_key(r) for r in executor.map_specs(specs)]

        with local_executor(2) as executor:
            executor.prepare(platform, default_config=FAST)
            first = [result_key(r) for r in executor.map_specs(specs)]
            spawned = executor.summary()["supervisor"]
            executor.prepare(platform, default_config=other)
            second = [result_key(r) for r in executor.map_specs(specs)]
            after = executor.summary()["supervisor"]
        assert spawned["spawns"] == [1, 1] and spawned["restarts"] == 0
        assert after["spawns"] == spawned["spawns"]
        assert after["restarts"] == 0
        assert first == serial(FAST)
        assert second == serial(other) != first


class TestWorkerTables:
    def test_tables_shared_per_platform_and_bound(self, platform):
        assert worker_tables(platform, 16) is worker_tables(platform, 16)
        assert worker_tables(platform, 16) is not worker_tables(platform, 32)


class TestTCPExecutor:
    def test_parse_address(self):
        assert parse_address("10.0.0.1:7070") == ("10.0.0.1", 7070)
        with pytest.raises(SimulationError, match="host:port"):
            parse_address("7070")
        with pytest.raises(SimulationError, match="host:port"):
            parse_address("host:")

    def test_parse_address_rejects_ports_outside_the_tcp_range(self):
        assert parse_address("127.0.0.1:0") == ("127.0.0.1", 0)
        assert parse_address("127.0.0.1:65535") == ("127.0.0.1", 65535)
        for text in ("127.0.0.1:65536", "127.0.0.1:99999"):
            with pytest.raises(SimulationError, match="outside 0-65535"):
                parse_address(text)

    def test_matches_serial_with_two_workers(self, platform, p1, serial_results):
        executor = TCPExecutor(("127.0.0.1", 0), min_workers=2)
        _host, port = executor.address
        workers = [spawn_worker(port), spawn_worker(port)]
        try:
            with executor:
                executor.prepare(platform, default_config=FAST)
                results = executor.map_specs(make_specs(p1))
        finally:
            for proc in workers:
                proc.wait(timeout=30)
        assert executor.retries == 0
        assert [result_key(r) for r in results] == [
            result_key(r) for r in serial_results
        ]

    def test_killed_worker_resubmits_with_identical_rows(
        self, platform, p1, serial_results
    ):
        executor = TCPExecutor(("127.0.0.1", 0), min_workers=2, heartbeat_s=1.0)
        _host, port = executor.address
        # One worker dies without replying the moment its first run arrives
        # (min_workers=2 guarantees it gets one); the survivor picks up the
        # orphaned run.
        workers = [spawn_worker(port, "--crash-after", "0"), spawn_worker(port)]
        try:
            with executor:
                executor.prepare(platform, default_config=FAST)
                results = executor.map_specs(make_specs(p1))
        finally:
            for proc in workers:
                proc.wait(timeout=30)
        assert executor.retries >= 1
        assert [result_key(r) for r in results] == [
            result_key(r) for r in serial_results
        ]

    def test_no_workers_fails_loudly(self, platform, p1):
        executor = TCPExecutor(("127.0.0.1", 0), connect_timeout_s=0.6)
        with executor:
            executor.prepare(platform, default_config=FAST)
            with pytest.raises(SimulationError, match="0 of 1 required workers"):
                executor.map_specs([RunSpec(workload=p1, driver_cls=StockLinuxDriver)])

    def test_fewer_than_min_workers_fails_loudly(self, platform, p1):
        executor = TCPExecutor(
            ("127.0.0.1", 0), min_workers=2, connect_timeout_s=2.0
        )
        _host, port = executor.address
        worker = spawn_worker(port)  # one of the two required workers
        try:
            with executor:
                executor.prepare(platform, default_config=FAST)
                with pytest.raises(SimulationError, match="of 2 required workers"):
                    executor.map_specs(
                        [RunSpec(workload=p1, driver_cls=StockLinuxDriver)]
                    )
        finally:
            worker.wait(timeout=30)

    def test_min_workers_validated(self):
        with pytest.raises(SimulationError):
            TCPExecutor(("127.0.0.1", 0), min_workers=0)

    def test_malformed_frame_drops_link_not_study(self, platform):
        """A wrong-shape frame from a buggy worker costs the link only."""
        import socket as socket_mod

        from repro.runtime.executors.framing import pack_frame

        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            ours, theirs = socket_mod.socketpair()
            link = executor.server.adopt(ours, "test")
            theirs.sendall(pack_frame("not-a-tuple"))
            executor.server.read(link)  # must not raise
            assert link not in executor.server.links
        finally:
            theirs.close()
            executor.close()

    def test_wrong_shape_error_frame_drops_link_not_study(self, platform):
        import socket as socket_mod

        from repro.runtime.executors.framing import pack_frame

        executor = TCPExecutor(("127.0.0.1", 0))
        try:
            executor.prepare(platform, default_config=FAST)
            ours, theirs = socket_mod.socketpair()
            link = executor.server.adopt(ours, "test")
            # An "error" frame whose payload has no .ticket attribute.
            theirs.sendall(pack_frame(("error", {"ticket": 0})))
            executor.server.read(link)  # must not raise
            assert link not in executor.server.links
        finally:
            theirs.close()
            executor.close()

    def test_worker_exits_cleanly_when_coordinator_drops_it(self):
        import socket as socket_mod

        listener = socket_mod.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        _host, port = listener.getsockname()
        proc = spawn_worker(port)
        conn, _addr = listener.accept()
        conn.close()  # drop the worker without any shutdown frame
        listener.close()
        assert proc.wait(timeout=30) == 0


class TestCrossExecutorStudyEquivalence:
    def test_fig7_rows_bit_identical_across_serial_pool_tcp(self, platform):
        """The acceptance pin: one study on the serial executor, on local
        workers (the ``pool`` name) and on joined tcp workers, same rows."""
        from repro.analysis import fig7_dynamic_study
        from repro.workloads import Workload

        workloads = [Workload("xq-mix", ("mcf06", "lbm06", "xalancbmk06", "gamess06"))]

        def rows_under(executor):
            rows = fig7_dynamic_study(
                workloads,
                engine_config=FAST,
                platform=platform,
                executor=executor,
            )
            return [
                tuple(getattr(row, field) for field in type(row).__dataclass_fields__)
                for row in rows
            ]

        serial_rows = rows_under("serial")
        assert rows_under({"name": "pool", "workers": 2}) == serial_rows

        tcp = TCPExecutor(("127.0.0.1", 0), min_workers=2)
        _host, port = tcp.address
        workers = [spawn_worker(port), spawn_worker(port)]
        try:
            tcp_rows = rows_under(tcp)
        finally:
            tcp.close()
            for proc in workers:
                proc.wait(timeout=30)
        assert tcp_rows == serial_rows

    def test_static_scenarios_run_over_tcp(self):
        """Static (estimator) scenarios shard over the same protocol."""
        from repro.experiments import (
            PolicySpec,
            ScenarioSpec,
            StudySpec,
            WorkloadSpec,
            run_study,
        )

        spec = StudySpec(
            name="static-tcp",
            scenarios=(
                ScenarioSpec(
                    name="stat",
                    kind="static",
                    workloads=(WorkloadSpec(suite="s", names=("S1", "S2")),),
                    policies=(PolicySpec("lfoc"),),
                ),
            ),
        )
        serial_rows = run_study(spec, executor="serial").rows()

        tcp = TCPExecutor(("127.0.0.1", 0), min_workers=1)
        _host, port = tcp.address
        worker = spawn_worker(port)
        try:
            with tcp:
                tcp_rows = run_study(spec, executor=tcp).rows()
        finally:
            worker.wait(timeout=30)
        assert tcp_rows == serial_rows
