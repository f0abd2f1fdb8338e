"""Adapter for objective/constraint oracles served by an external process.

Protocol: the child reads one JSON object per line on stdin,
``{"theta": [..]}``, and answers one JSON object per line on stdout,
``{"objective": r, "constraints": [..]}``, UTF-8, newline-delimited, one
request in flight at a time. This is the integration point for closed-loop
simulators that are too heavy to run in-process.
"""

from __future__ import annotations

import json
import queue
import subprocess
import threading

import numpy as np

from .domain import int_at_least, positive_real

__all__ = ["ExternalBlackbox", "BlackboxError", "BlackboxTimeout", "BlackboxProtocolError"]


class BlackboxError(RuntimeError):
    """Base failure talking to the external evaluator."""


class BlackboxTimeout(BlackboxError):
    """The child did not answer within the configured timeout."""


class BlackboxProtocolError(BlackboxError):
    """The child answered with something that is not a valid response line."""


class ExternalBlackbox:
    """Holds one child process and performs line-protocol evaluations.

    Single-in-flight: callers must not issue concurrent evaluations against
    the same instance. Calling the instance on an ``(n, d)`` array of points
    is the problem oracle: one round trip per row, in order. Usable as a
    context manager; ``close`` terminates the child.
    """

    def __init__(self, command: list[str], n_constraints: int, timeout: float = 30.0):
        # A string is a sequence too: "python" would run ['p', 'y', 't', ...].
        if not (isinstance(command, (list, tuple)) and command
                and all(isinstance(part, str) for part in command)):
            raise ValueError(f"command must be a non-empty list of strings, got {command!r}")
        self.command = list(command)
        self.n_constraints = int_at_least("n_constraints", n_constraints, 0)
        self.timeout = positive_real("timeout", timeout)
        self._proc: subprocess.Popen | None = None
        self._reader: threading.Thread | None = None
        self._lines: queue.Queue = queue.Queue()

    def _ensure_started(self):
        if self._proc is not None and self._proc.poll() is None:
            return
        self.close()
        self._proc = subprocess.Popen(
            self.command,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            bufsize=1,
        )
        self._lines = queue.Queue()
        self._reader = threading.Thread(target=self._pump, args=(self._proc,), daemon=True)
        self._reader.start()

    def _pump(self, proc: subprocess.Popen):
        """Queue the child's lines, then close its stdout once output ends."""
        assert proc.stdout is not None
        with proc.stdout:
            for line in proc.stdout:
                self._lines.put(line)
        self._lines.put(None)  # EOF marker

    def evaluate(self, theta) -> np.ndarray:
        """One request/response round trip; returns ``[objective, g_1 .. g_N]``."""
        self._ensure_started()
        assert self._proc is not None and self._proc.stdin is not None
        request = json.dumps({"theta": [float(v) for v in np.atleast_1d(theta)]})
        try:
            self._proc.stdin.write(request + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise BlackboxError(f"external evaluator pipe closed: {exc}") from exc
        try:
            line = self._lines.get(timeout=self.timeout)
        except queue.Empty:
            # An unresponsive child gets no grace period: kill it before close() reaps it.
            self._proc.kill()
            self.close()
            raise BlackboxTimeout(
                f"no response within {self.timeout:.1f}s from {self.command!r}"
            ) from None
        if line is None:
            proc = self._proc
            self.close()  # reaps the child, so its exit code is known
            raise BlackboxError(
                f"external evaluator exited (code {proc.returncode}) before answering"
            )
        return self._parse_response(line)

    def __call__(self, thetas) -> np.ndarray:
        """Rows ``[objective, g_1 .. g_N]``, one round trip per row of ``thetas``, in order."""
        return np.array([self.evaluate(theta) for theta in thetas])

    def _parse_response(self, line: str) -> np.ndarray:
        try:
            payload = json.loads(line)
            objective = float(payload["objective"])
            constraints = [float(v) for v in payload["constraints"]]
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise BlackboxProtocolError(
                f"malformed response line {line.strip()!r}: {exc}"
            ) from exc
        if len(constraints) != self.n_constraints:
            raise BlackboxProtocolError(
                f"expected {self.n_constraints} constraint values, got {len(constraints)}"
            )
        return np.array([objective, *constraints])

    def close(self):
        """Close stdin, reap the child (killed after 2 s) and let the reader close stdout."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        if proc.stdin is not None:
            try:
                proc.stdin.close()
            except OSError:
                pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        if self._reader is not None:
            self._reader.join(timeout=2.0)

    def __enter__(self):
        self._ensure_started()
        return self

    def __exit__(self, *exc_info):
        self.close()
