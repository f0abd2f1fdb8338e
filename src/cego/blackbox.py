"""Adapter for objective/constraint oracles served by an external process.

Protocol: the child reads one JSON object per line on stdin,
``{"theta": [..]}``, and answers one JSON object per line on stdout,
``{"objective": r, "constraints": [..]}``, UTF-8, newline-delimited, one
request in flight at a time. This is the integration point for closed-loop
simulators that are too heavy to run in-process.
"""

from __future__ import annotations

import json
import os
import select
import subprocess
import time

import numpy as np

from .domain import _is_real, int_at_least, positive_real

__all__ = ["ExternalBlackbox", "BlackboxError", "BlackboxTimeout", "BlackboxProtocolError"]

# select.poll takes a timeout of at most 2**31 - 1 ms (about 24.8 days).
_MAX_TIMEOUT = (2**31 - 1) // 1000


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
    is the problem oracle and the one way to evaluate: one round trip per
    row, in order. The first evaluation starts the child and ``close`` stops
    it. A child that has exited is not replaced: the next evaluation raises
    ``BlackboxError`` naming its exit code.
    """

    def __init__(self, command: list[str], n_constraints: int, timeout: float = 30.0):
        # A string is a sequence too: "python" would run ['p', 'y', 't', ...].
        if not (isinstance(command, (list, tuple)) and command
                and all(isinstance(part, str) for part in command)):
            raise ValueError(f"command must be a non-empty list of strings, got {command!r}")
        self.command = list(command)
        self.n_constraints = int_at_least("n_constraints", n_constraints, 0)
        self.timeout = positive_real("timeout", timeout)
        if self.timeout > _MAX_TIMEOUT:
            raise ValueError(f"timeout must be at most {_MAX_TIMEOUT} s, got {timeout!r}")
        self._proc: subprocess.Popen | None = None
        self._poll = None
        self._pending = b""  # bytes read past the last line returned

    def _ensure_started(self):
        if self._proc is not None:
            return
        self._proc = subprocess.Popen(self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        # poll, unlike select, takes descriptors >= 1024.
        self._poll = select.poll()
        self._poll.register(self._proc.stdout, select.POLLIN)
        self._pending = b""

    def __call__(self, thetas) -> np.ndarray:
        """Rows ``[objective, g_1 .. g_N]``, one round trip per row of ``thetas``, in order."""
        rows = [self._evaluate(theta) for theta in thetas]
        return np.array(rows).reshape(-1, 1 + self.n_constraints)  # (0, 1 + N) for no rows

    def _evaluate(self, theta) -> np.ndarray:
        """One request/response round trip for one point; returns ``[objective, g_1 .. g_N]``."""
        self._ensure_started()
        assert self._proc is not None and self._proc.stdin is not None
        request = json.dumps({"theta": [float(v) for v in theta]})
        try:
            self._proc.stdin.write(request.encode() + b"\n")
            self._proc.stdin.flush()
        except OSError:  # the child has exited and closed its end of the pipe
            line = None
        else:
            line = self._read_line()
        if line is None:
            proc = self._proc
            self.close()  # reaps the child, so its exit code is known
            raise BlackboxError(
                f"external evaluator exited (code {proc.returncode}) before answering"
            )
        return self._parse_response(line)

    def _read_line(self) -> bytes | None:
        """The child's next line within ``timeout`` seconds; ``None`` at end of output."""
        deadline = time.monotonic() + self.timeout
        while b"\n" not in self._pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not self._poll.poll(remaining * 1000):
                # An unresponsive child gets no grace period: kill it before close() reaps it.
                self._proc.kill()
                self.close()
                raise BlackboxTimeout(
                    f"no response within {self.timeout:.1f}s from {self.command!r}"
                )
            chunk = os.read(self._proc.stdout.fileno(), 65536)
            if not chunk:
                return None
            self._pending += chunk
        line, self._pending = self._pending.split(b"\n", 1)
        return line

    def _parse_response(self, line: bytes) -> np.ndarray:
        try:
            payload = json.loads(line)
            values = [payload["objective"], *payload["constraints"]]
            # NaN and Infinity pass: the problem refuses them with its own message.
            if not all(map(_is_real, values)):
                raise TypeError(f"objective and constraints must be numbers, got {values!r}")
            row = np.array(values, dtype=float)
        except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
            raise BlackboxProtocolError(
                f"malformed response line {line.decode(errors='replace').strip()!r}: {exc}"
            ) from exc
        if row.size - 1 != self.n_constraints:
            raise BlackboxProtocolError(
                f"expected {self.n_constraints} constraint values, got {row.size - 1}"
            )
        return row

    def close(self):
        """Close stdin, reap the child (killed after 2 s), then close its stdout."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
