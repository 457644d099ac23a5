"""A ``repro serve`` node in a child process, and a one-connection client.

Every request the benchmark sends goes through :class:`Client`, which keeps
an ordered log of them.  The node serves one client at a time, so the n-th
entry of that log is the n-th request the node handles; a traced run joins
the two on that number.
"""

from __future__ import annotations

import json
import os
import re
import signal
import subprocess
import sys
import time
from http.client import HTTPConnection
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from perfbench.common import NODE_ENV, ROOT, SRC, peak_rss_mb

_SERVING = re.compile(r"serving \d+ archive\(s\) on (http://[\w.]+):(\d+)")


class Node:
    """Start ``repro serve ... --port 0`` and wait for its port line.

    With ``spans`` set, the node runs under ``perfbench/traced_serve.py``,
    which traces the layers and writes its spans to that path on exit.
    """

    def __init__(self, serve_args: Sequence[str], workdir: Path, *,
                 spans: Optional[Path] = None, start_timeout: float = 60.0):
        if spans is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            cmd = [sys.executable, str(ROOT / "perfbench" / "traced_serve.py"),
                   str(spans)]
        cmd += ["serve", *serve_args, "--port", "0"]
        env = dict(NODE_ENV)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self._log = open(workdir / "node.log", "ab")
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=self._log, cwd=str(ROOT), env=env,
                                     text=True)
        self.host, self.port = self._wait_ready(start_timeout)
        self.url = f"http://{self.host}:{self.port}"

    def _wait_ready(self, timeout: float) -> Tuple[str, int]:
        assert self.proc.stdout is not None
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            line = self.proc.stdout.readline()
            if not line:
                break
            match = _SERVING.search(line)
            if match:
                return match.group(1).split("//", 1)[1], int(match.group(2))
        self.stop()
        raise RuntimeError("repro serve did not come up (see node.log)")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def stop(self) -> int:
        """SIGINT (the CLI's clean shutdown), then wait; kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=30)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self._log.close()
        return self.proc.returncode


class Response:
    __slots__ = ("status", "headers", "body", "seconds")

    def __init__(self, status: int, headers: Dict[str, str], body: bytes,
                 seconds: float):
        self.status, self.headers, self.body, self.seconds = (
            status, headers, body, seconds)


class Client:
    """One keep-alive connection, plus the log of every request sent."""

    def __init__(self, node: Node):
        self.node = node
        self.conn = HTTPConnection(node.host, node.port, timeout=120)
        #: (kind, seconds, extra) per request, in the order the node saw them.
        self.log: List[list] = []

    def get(self, path: str, kind: str) -> Response:
        t0 = time.perf_counter()
        self.conn.request("GET", path)
        resp = self.conn.getresponse()
        body = resp.read()
        seconds = time.perf_counter() - t0
        self.log.append([kind, seconds, len(body)])
        return Response(resp.status,
                        {k.lower(): v for k, v in resp.getheaders()},
                        body, seconds)

    def timed(self, kind: str, call, *args, **kwargs):
        """Run a call that makes exactly one request on its own connection."""
        t0 = time.perf_counter()
        try:
            return call(*args, **kwargs)
        finally:
            self.log.append([kind, time.perf_counter() - t0, 0])

    def metrics(self) -> dict:
        resp = self.get("/metrics", "metrics")
        return json.loads(resp.body)

    def close(self) -> None:
        self.conn.close()


def region_query(bounds: Sequence[Tuple[int, int]]) -> str:
    return ",".join(f"{a}:{b}" for a, b in bounds)
