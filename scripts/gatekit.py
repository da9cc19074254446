"""Process plumbing shared by the gate scripts, which run as ``python
scripts/<gate>.py`` and so import this from their own directory.
Helpers that can fail take the gate's name: every failure prints
``<gate>: FAIL: <message>`` on stderr and exits 1."""

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NoReturn

from repro.benchsuite import build_learning_pair
from repro.dbt.engine import DBTEngine
from repro.learning.pipeline import learn_rules
from repro.learning.store import RuleStore


def fail(gate: str, message: str) -> NoReturn:
    print(f"{gate}: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def work_dir(prefix: str) -> Path:
    """``REPRO_GATE_ARTIFACT_DIR`` (kept after the run, for CI artifact
    upload) or a fresh temporary directory."""
    artifact_dir = os.environ.get("REPRO_GATE_ARTIFACT_DIR")
    if artifact_dir:
        path = Path(artifact_dir)
        path.mkdir(parents=True, exist_ok=True)
        return path
    return Path(tempfile.mkdtemp(prefix=prefix))


def wait_for_socket(gate: str, path: Path, process: subprocess.Popen,
                    timeout: float, what: str = "server") -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if process.poll() is not None:
            fail(gate, f"{what} exited early with status "
                       f"{process.returncode}")
        if path.exists():
            return
        time.sleep(0.1)
    fail(gate, f"{what} socket {path} never appeared")


def stop_server(server: subprocess.Popen) -> None:
    """Shut the server down gracefully so its trace sink flushes.

    SIGINT unwinds the server's ``tracing`` context manager (the
    asyncio loop surfaces it as KeyboardInterrupt); SIGTERM would kill
    the process with the trace tail still buffered.
    """
    if server.poll() is not None:
        return
    server.send_signal(signal.SIGINT)
    try:
        server.wait(timeout=10)
    except subprocess.TimeoutExpired:
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()
            server.wait()


def offline_coverage(name: str) -> float:
    """Dynamic rule coverage under rules learned offline from ``name``."""
    guest, host = build_learning_pair(name)
    rules = learn_rules(guest, host, benchmark=name).rules
    engine = DBTEngine(guest, "rules", RuleStore.from_rules(rules))
    engine.run()
    return engine.last_run.dynamic_coverage
