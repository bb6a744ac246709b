"""Lifecycle tests for the shared-memory topology export.

The contract (docs/CONCURRENCY.md, "Shared-memory topology"): the
parent exports the scenario topology into one POSIX shared-memory
segment before forking, workers adopt it by adjacency digest, and the
segment is **always unlinked by the parent** — on normal completion, on
a worker exception, and (via the stdlib resource tracker) even when the
owning process is SIGKILLed mid-run.  A leaked segment would survive on
/dev/shm until reboot, so every test here asserts on the actual
filesystem state, not on bookkeeping flags.
"""

from __future__ import annotations

import logging
import os
import random
import signal
import subprocess
import sys
import time

import pytest

from repro.network import shared
from repro.network.compact import numpy_available
from repro.network.topology import grid_topology
from repro.sim.factories import flash_factory
from repro.sim.runner import run_comparison
from repro.traces.generators import generate_ripple_workload

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy is not installed"
)

SHM_DIR = "/dev/shm"

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir(SHM_DIR), reason="no /dev/shm on this platform"
)

#: Captured at import: forked pool workers see a different pid, letting a
#: scenario behave normally in the parent's export probe but explode in
#: every worker (the kill-mid-sweep shape from test_runner_store.py).
MAIN_PID = os.getpid()


def _segments() -> set[str]:
    return {
        name
        for name in os.listdir(SHM_DIR)
        if name.startswith(shared.SEGMENT_PREFIX)
    }


def _grid_scenario(rng: random.Random):
    graph = grid_topology(6, 6, balance=60.0)
    workload = generate_ripple_workload(rng, graph.nodes, 20)
    return graph, workload


def _exploding_scenario(rng: random.Random):
    if os.getpid() != MAIN_PID:
        raise RuntimeError("worker killed mid-run")
    return _grid_scenario(rng)


class _ProbeFailsScenario:
    """Raises on its first build only: the parent's export probe.

    The pool forks after the probe, so every worker inherits the count
    and builds the grid normally.
    """

    def __init__(self) -> None:
        self.builds = 0

    def __call__(self, rng: random.Random):
        self.builds += 1
        if self.builds == 1:
            raise RuntimeError("export probe failed")
        return _grid_scenario(rng)


@needs_dev_shm
class TestHandleLifecycle:
    def test_export_creates_and_destroy_unlinks(self):
        before = _segments()
        handle = shared.export_topology(grid_topology(5, 5).adjacency())
        created = _segments() - before
        assert created == {handle.name}
        handle.destroy()
        assert handle.name not in _segments()

    def test_adopt_requires_matching_digest(self):
        graph = grid_topology(5, 5)
        with shared.exported(graph.adjacency()) as handle:
            snapshot = handle.adopt(graph.adjacency())
            assert snapshot is not None and snapshot.backend == "numpy"
            other = grid_topology(4, 4)
            assert handle.adopt(other.adjacency()) is None
        assert handle.name not in _segments()

    def test_adoptee_survives_unlink(self):
        # POSIX keeps the pages alive for live mappings: a worker that
        # adopted before the parent unlinked keeps a valid topology.
        graph = grid_topology(5, 5)
        handle = shared.export_topology(graph.adjacency())
        snapshot = handle.adopt(graph.adjacency())
        handle.destroy()
        assert handle.name not in _segments()
        src = snapshot.index_of(graph.nodes[0])
        distances = snapshot.distances_idx(src)
        assert len(distances) == snapshot.num_nodes

    def test_registry_install_and_clear(self):
        graph = grid_topology(4, 4)
        handle = shared.export_topology(graph.adjacency())
        try:
            assert shared.active() is None
            shared.install(handle)
            assert shared.active() is handle
        finally:
            shared.clear()
            handle.destroy()
        assert shared.active() is None


@needs_dev_shm
class TestParallelRunCleanup:
    @pytest.fixture(autouse=True)
    def numpy_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_BACKEND", "numpy")
        from repro.network.compact import set_default_backend

        set_default_backend("numpy")
        yield
        set_default_backend("python")

    def test_normal_exit_unlinks(self):
        before = _segments()
        run_comparison(
            _grid_scenario,
            {"Flash": flash_factory(k=5, m=2)},
            runs=2,
            base_seed=1,
            workers=2,
        )
        assert _segments() == before
        assert shared.active() is None

    def test_worker_exception_still_unlinks(self):
        # The parent's export probe succeeds (same pid), every forked
        # worker raises: the finally-block must clear the registry and
        # unlink the segment even though the pool map blew up.
        before = _segments()
        with pytest.raises(RuntimeError, match="killed mid-run"):
            run_comparison(
                _exploding_scenario,
                {"Flash": flash_factory(k=5, m=2)},
                runs=2,
                base_seed=1,
                workers=2,
            )
        assert _segments() == before
        assert shared.active() is None


@needs_dev_shm
class TestProcessDeathCleanup:
    def test_sigkill_owner_segment_reclaimed(self, tmp_path):
        # SIGKILL skips every finally block; the stdlib resource tracker
        # (a separate process) must unlink the registered segment once
        # the owner dies.
        script = (
            "import sys, time\n"
            "from repro.network import shared\n"
            "from repro.network.topology import grid_topology\n"
            "h = shared.export_topology(grid_topology(6, 6).adjacency())\n"
            "print(h.name, flush=True)\n"
            "time.sleep(60)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
        )
        try:
            name = proc.stdout.readline().strip()
            assert name.startswith(shared.SEGMENT_PREFIX)
            assert name in _segments()
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=10)
            # The tracker reaps asynchronously; poll with a deadline.
            deadline = time.monotonic() + 10.0
            while name in _segments():
                if time.monotonic() > deadline:
                    pytest.fail(f"segment {name} leaked after SIGKILL")
                time.sleep(0.1)
        finally:
            proc.kill()
            proc.wait(timeout=10)

    def test_no_resource_tracker_warnings(self):
        # A clean parallel numpy run must not trip the tracker's
        # "leaked shared_memory objects" shutdown warning (it would mean
        # workers re-registered the inherited segment).
        script = (
            "import random\n"
            "from repro.network.compact import set_default_backend\n"
            "from repro.network.topology import grid_topology\n"
            "from repro.sim.factories import flash_factory\n"
            "from repro.sim.runner import run_comparison\n"
            "from repro.traces.generators import generate_ripple_workload\n"
            "set_default_backend('numpy')\n"
            "def scenario(rng):\n"
            "    graph = grid_topology(6, 6, balance=60.0)\n"
            "    workload = generate_ripple_workload(rng, graph.nodes, 20)\n"
            "    return graph, workload\n"
            "run_comparison(scenario, {'Flash': flash_factory(k=5, m=2)},\n"
            "               runs=2, base_seed=1, workers=2)\n"
        )
        env = dict(os.environ, PYTHONPATH="src")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "leaked" not in proc.stderr
        assert "resource_tracker" not in proc.stderr


class TestExportFallback:
    @pytest.fixture(autouse=True)
    def numpy_default(self):
        from repro.network.compact import (
            get_default_backend,
            set_default_backend,
        )

        previous = get_default_backend()
        set_default_backend("numpy")
        yield
        set_default_backend(previous)

    def test_failed_export_is_logged_and_runs_unshared(self, caplog):
        factories = {"Flash": flash_factory(k=5, m=2)}
        with caplog.at_level(logging.WARNING, logger="repro.sim.runner"):
            parallel = run_comparison(
                _ProbeFailsScenario(), factories, runs=2, base_seed=1, workers=2
            )
        [record] = [r for r in caplog.records if r.name == "repro.sim.runner"]
        assert record.levelno == logging.WARNING
        assert "shared topology export failed" in record.getMessage()
        assert record.exc_info is not None
        assert record.exc_info[0] is RuntimeError
        assert "export probe failed" in caplog.text  # the traceback
        assert shared.active() is None
        serial = run_comparison(_grid_scenario, factories, runs=2, base_seed=1)
        assert parallel["Flash"] == serial["Flash"]
