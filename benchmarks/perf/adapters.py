"""The three systems under test, each started fresh for every round.

* :class:`LibraryAdapter` — the library in a child interpreter
  (``child.py``), which runs the script's closed loop itself;
* :class:`ServeAdapter`   — one ``repro-serve serve`` subprocess;
* :class:`ClusterAdapter` — ``repro-serve coordinate`` + 2 workers, all
  traffic through the coordinator.

The served adapters are driven by one client thread over one
keep-alive connection: the next request leaves only when the previous
answer is back.
"""

from __future__ import annotations

import ctypes
import http.client
import json
import os
import pickle
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

from .gen import Script
from .spec import NAMESPACE, Workload

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
HOST = "127.0.0.1"
#: no scripted operation may take longer; a timeout is a failed operation
OP_TIMEOUT_S = 60.0
_READY_TIMEOUT_S = 60.0
_CLOCK_TICK = os.sysconf("SC_CLK_TCK")


class OpResult(NamedTuple):
    start_ns: int
    end_ns: int
    ok: bool
    estimate: "float | None"

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def _die_with_parent() -> None:
    # PR_SET_PDEATHSIG: no daemon outlives a harness that was SIGKILLed
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


def _spawn(argv: list) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC), str(ROOT)] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    # glibc gives each executor thread its own malloc arena, and which
    # thread serves which request is a race: peak RSS of identical
    # rounds then differs by 10 %.  One arena makes it repeat to 1 %.
    env["MALLOC_ARENA_MAX"] = "1"
    return subprocess.Popen(
        [sys.executable, *argv], env=env,
        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL, preexec_fn=_die_with_parent,
    )


def _read_line(proc: subprocess.Popen) -> str:
    """The child's next stdout line; raises if it died or hung."""
    ready, _, _ = select.select([proc.stdout], [], [], _READY_TIMEOUT_S)
    line = proc.stdout.readline().decode("utf-8") if ready else ""
    if not line:
        raise RuntimeError(
            f"SUT process {proc.pid} gave no line within "
            f"{_READY_TIMEOUT_S:.0f}s (exit code {proc.poll()})"
        )
    return line


def _listening_port(proc: subprocess.Popen) -> int:
    match = re.search(r"http://[^:]+:(\d+)", _read_line(proc))
    if match is None:
        raise RuntimeError("daemon did not announce its port")
    return int(match.group(1))


def cpu_seconds(pid: int) -> float:
    """User + system CPU of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat", "rb") as handle:
        fields = handle.read().rsplit(b")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLOCK_TICK


def peak_rss_mib(pid: int) -> float:
    """``VmHWM`` of a live process, in MiB."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Http:
    """One keep-alive connection; every exchange is timed."""

    def __init__(self, port: int) -> None:
        self.port = port
        self._conn = http.client.HTTPConnection(
            HOST, port, timeout=OP_TIMEOUT_S
        )

    def exchange(self, method: str, path: str, body: "bytes | None" = None):
        """``(start_ns, end_ns, status, data)``; status 0 on a dead socket."""
        headers = {"Content-Type": "application/json"} if body else {}
        start = time.perf_counter_ns()
        try:
            self._conn.request(method, path, body=body, headers=headers)
            response = self._conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            self._conn.close()  # reconnects on the next request
            status, data = 0, b""
        return start, time.perf_counter_ns(), status, data

    def json(self, method: str, path: str, body: "dict | None" = None):
        encoded = None if body is None else json.dumps(body).encode("utf-8")
        _, _, status, data = self.exchange(method, path, encoded)
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: {data!r}")
        return json.loads(data)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + _READY_TIMEOUT_S
        while self.exchange("GET", "/healthz")[2] != 200:
            if time.monotonic() > deadline:
                raise RuntimeError(f"port {self.port} never became ready")
            time.sleep(0.01)

    def run(self, ops: list) -> list:
        """Play ``ops`` in order, one request in flight."""
        results = []
        for op in ops:
            start, end, status, data = self.exchange(
                "POST", "/ingest" if op.is_ingest else "/query", op.body
            )
            ok, estimate = status == 200, None
            if ok:
                decoded = json.loads(data)
                if op.is_ingest:
                    ok = decoded.get("ok") is True
                else:
                    estimate = decoded.get("estimate")
                    ok = isinstance(estimate, float)
            results.append(OpResult(start, end, ok, estimate))
        return results

    def close(self) -> None:
        self._conn.close()


class _Adapter:
    """Process bookkeeping shared by the three SUTs."""

    def __init__(self, workload: Workload) -> None:
        self.workload = workload
        self.procs: list = []

    def cpu_seconds(self) -> float:
        return sum(cpu_seconds(proc.pid) for proc in self.procs)

    def peak_rss_mib(self) -> float:
        return sum(peak_rss_mib(proc.pid) for proc in self.procs)

    def stop(self) -> None:
        """Kill and reap every process (round stores are throwaway)."""
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        self.procs = []

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def _serve_argv(workload: Workload, root: Path, slots: int = 0) -> list:
    argv = [
        "-m", "repro.service", "serve", "--root", str(root),
        "--namespace", NAMESPACE, "--assignments", *workload.assignments,
        "--k", str(workload.k), "--port", "0", "--granularity", "day",
        "--compact-to", "off", "--tick", "3600",
    ]
    return argv + (["--cluster-slots", str(slots)] if slots else [])


class _HttpAdapter(_Adapter):
    """A served SUT: ``start`` leaves the client's connection in ``http``."""

    http: Http

    def prepare(self, script: Script) -> None:
        pass  # request bodies were encoded with the script

    def run(self, script: Script) -> list:
        return self.http.run(script.ops)

    def stop(self) -> None:
        if self.procs:
            self.http.close()
        super().stop()


class ServeAdapter(_HttpAdapter):
    """One daemon over ``root`` (an empty or preloaded store)."""

    def start(self, root: Path) -> None:
        proc = _spawn(_serve_argv(self.workload, root))
        self.procs.append(proc)
        self.http = Http(_listening_port(proc))
        self.http.wait_ready()

    def shutdown(self) -> None:
        """Clean stop: live windows are checkpointed into the store."""
        self.http.json("POST", "/shutdown", {})
        for proc in self.procs:
            proc.wait(timeout=_READY_TIMEOUT_S)
        self.stop()


class ClusterAdapter(_HttpAdapter):
    """Coordinator + 2 workers; the client only talks to the coordinator."""

    WORKERS = 2

    def start(self, root: Path) -> None:
        w = self.workload
        workers = [
            _spawn(_serve_argv(w, root / f"w{i}", slots=w.slots))
            for i in range(self.WORKERS)
        ]
        coordinator = _spawn([
            "-m", "repro.service", "coordinate",
            "--root", str(root / "coordinator"),
            "--namespace", NAMESPACE, "--assignments", *w.assignments,
            "--k", str(w.k), "--port", "0", "--slots", str(w.slots),
            "--replication", str(w.replication),
            "--heartbeat", "3600", "--repair-interval", "3600",
        ])
        self.procs += [*workers, coordinator]
        self.worker_ports = [_listening_port(proc) for proc in workers]
        self.http = Http(_listening_port(coordinator))
        self.http.wait_ready()
        for index, port in enumerate(self.worker_ports):
            self.http.json("POST", "/cluster/join", {
                "worker_id": f"w{index}", "host": HOST, "port": port,
            })


class LibraryAdapter(_Adapter):
    """``child.py``: imports the library, then runs the script itself.

    Line protocol on the child's pipes — ``ready`` (imports done, the
    set-up clock stops), ``load`` / ``loaded`` (script unpickled, outside
    every clock), ``go`` / ``done`` (script run, per-op results written
    beside the script).
    """

    def start(self, root: Path) -> None:
        self.root = root
        w = self.workload
        proc = _spawn([
            str(Path(__file__).with_name("child.py")), str(root),
            str(w.k), *w.assignments,
        ])
        self.procs.append(proc)
        self._expect("ready")

    def _send(self, word: str) -> None:
        proc = self.procs[0]
        proc.stdin.write(word.encode("utf-8") + b"\n")
        proc.stdin.flush()

    def _expect(self, word: str) -> None:
        line = _read_line(self.procs[0]).strip()
        if line != word:
            raise RuntimeError(f"library child said {line!r}, not {word!r}")

    def prepare(self, script: Script) -> None:
        with open(self.root / "script.pickle", "wb") as handle:
            pickle.dump(script.ops, handle, protocol=pickle.HIGHEST_PROTOCOL)
        self._send("load")
        self._expect("loaded")

    def run(self, script: Script) -> list:
        self._send("go")
        self._expect("done")
        with open(self.root / "results.json", "rb") as handle:
            return [OpResult(*row) for row in json.load(handle)]


ADAPTERS = {
    "library": LibraryAdapter, "serve": ServeAdapter,
    "cluster": ClusterAdapter,
}


def make_adapter(workload: Workload) -> _Adapter:
    return ADAPTERS[workload.adapter](workload)

