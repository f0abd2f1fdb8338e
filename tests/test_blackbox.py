import os
import re
import signal
import subprocess
import sys
import threading
import time
from contextlib import closing, nullcontext

import numpy as np
import pytest

from cego.blackbox import (
    BlackboxError,
    BlackboxProtocolError,
    BlackboxTimeout,
    ExternalBlackbox,
)

ECHO_STUB = [
    sys.executable,
    "-c",
    (
        "import sys, json\n"
        "for line in sys.stdin:\n"
        "    req = json.loads(line)\n"
        "    t = req['theta']\n"
        "    print(json.dumps({'objective': t[0], 'constraints': [t[1]]}), flush=True)\n"
    ),
]

SLEEPY_STUB = [
    sys.executable,
    "-c",
    (
        "import sys, time\n"
        "for line in sys.stdin:\n"
        "    time.sleep(60)\n"
    ),
]

EXITING_STUB = [sys.executable, "-c", "import sys; sys.exit(3)"]

# Answers once; on the next request it starts a helper that inherits its
# stdout, writes the helper's pid to the file named by its argument and exits.
HELPER_STUB = [
    sys.executable,
    "-c",
    (
        "import subprocess, sys\n"
        "sys.stdin.readline()\n"
        "print('{\"objective\": 1.0, \"constraints\": []}', flush=True)\n"
        "sys.stdin.readline()\n"
        "helper = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'])\n"
        "with open(sys.argv[1], 'w') as fh:\n"
        "    fh.write(str(helper.pid))\n"
    ),
]


def evaluate_one(box, theta):
    """The box's row for one point, through its batch call on a ``(1, d)`` array."""
    return box(np.array([theta], dtype=float))[0]


def test_echo_round_trip():
    with closing(ExternalBlackbox(ECHO_STUB, n_constraints=1)) as box:
        values = evaluate_one(box, [0.25, -1.5])
        np.testing.assert_allclose(values, [0.25, -1.5])
        values = evaluate_one(box, [2.0, 0.5])
        np.testing.assert_allclose(values, [2.0, 0.5])
        # Called on a batch, the box answers the rows in order.
        rows = [[2.0, 0.5], [0.25, -1.5], [-3.0, 4.0]]
        np.testing.assert_allclose(box(np.array(rows)), rows)


# Each a malformed answer to a one-constraint request. float() took the
# strings and bools: "3.5" and true were evaluated as 3.5 and 1.0.
MALFORMED_ANSWERS = [
    "this is not json",
    '{"objective": "3.5", "constraints": [true]}',
    '{"objective": "3.5", "constraints": [1.0]}',
    '{"objective": true, "constraints": [1.0]}',
    '{"objective": null, "constraints": [1.0]}',
    '{"objective": 1.0, "constraints": [true]}',
    '{"objective": 1.0, "constraints": [null]}',
    '{"objective": 1.0, "constraints": "2"}',
    '{"objective": 1.0, "constraints": {"2": 0}}',
    '{"objective": 1.0, "constraints": [1' + "0" * 400 + "]}",  # beyond a float
]


def test_malformed_response_raises_protocol_error():
    # One child gives the answers in turn; a protocol error leaves it running.
    stub = [sys.executable, "-c",
            "import sys\nfor line, answer in zip(sys.stdin, sys.argv[1:]):\n"
            "    print(answer, flush=True)\n", *MALFORMED_ANSWERS]
    with closing(ExternalBlackbox(stub, n_constraints=1)) as box:
        for answer in MALFORMED_ANSWERS:
            with pytest.raises(BlackboxProtocolError,
                               match=f"malformed response line {re.escape(repr(answer))}"):
                evaluate_one(box, [0.0, 0.0])


def test_wrong_constraint_count_raises_protocol_error():
    with closing(ExternalBlackbox(ECHO_STUB, n_constraints=2)) as box:
        with pytest.raises(BlackboxProtocolError):
            evaluate_one(box, [0.0, 0.0])


def test_timeout_raises():
    with closing(ExternalBlackbox(SLEEPY_STUB, n_constraints=0, timeout=0.5)) as box:
        with pytest.raises(BlackboxTimeout):
            evaluate_one(box, [1.0])


def test_non_utf8_response_raises_protocol_error():
    stub = [sys.executable, "-c",
            "import sys\nfor line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()\n"]
    with closing(ExternalBlackbox(stub, n_constraints=0)) as box:
        with pytest.raises(BlackboxProtocolError, match="malformed response line"):
            evaluate_one(box, [0.0])


def test_timeout_not_delayed_by_helper_holding_stdout(tmp_path):
    # The helper keeps the pipe open after the child exits, so no end of
    # output arrives: the timeout must fire on time and leave no thread or
    # open pipe behind.
    pid_file = tmp_path / "helper.pid"
    threads = threading.active_count()
    box = ExternalBlackbox([*HELPER_STUB, str(pid_file)], n_constraints=0, timeout=1.0)
    try:
        np.testing.assert_allclose(evaluate_one(box, [1.0]), [1.0])
        proc = box._proc
        started = time.monotonic()
        with pytest.raises(BlackboxTimeout):
            evaluate_one(box, [2.0])
        assert time.monotonic() - started < box.timeout + 0.5
        assert proc.stdout.closed
        assert threading.active_count() == threads
    finally:
        box.close()
        if pid_file.exists():
            try:
                os.kill(int(pid_file.read_text()), signal.SIGKILL)
            except ProcessLookupError:
                pass


def test_child_exit_raises():
    with closing(ExternalBlackbox(EXITING_STUB, n_constraints=0, timeout=5.0)) as box:
        with pytest.raises(BlackboxError, match="code 3"):
            evaluate_one(box, [1.0])


@pytest.mark.parametrize("stub, error", [(ECHO_STUB, None), (SLEEPY_STUB, BlackboxTimeout),
                                         (EXITING_STUB, BlackboxError)],
                         ids=["close", "timeout-kill", "child-exit"])
def test_child_pipes_closed(stub, error, started_children):
    # Each child's pipes are closed once it is reaped, not left to the garbage collector.
    with closing(ExternalBlackbox(stub, n_constraints=1, timeout=0.5)) as box:
        with nullcontext() if error is None else pytest.raises(error):
            evaluate_one(box, [1.0, 2.0])
    (proc,) = started_children
    assert proc.poll() is not None
    assert proc.stdin.closed and proc.stdout.closed


def test_close_is_idempotent():
    box = ExternalBlackbox(ECHO_STUB, n_constraints=1)
    evaluate_one(box, [1.0, 2.0])
    box.close()
    box.close()


def test_close_kills_a_child_that_ignores_eof():
    box = ExternalBlackbox([sys.executable, "-c", "import time; time.sleep(60)"], n_constraints=0)
    box._ensure_started()
    proc = box._proc
    wait, timeouts = proc.wait, []

    def wait_once(timeout=None):
        # The first wait times out at once instead of after its 2 s.
        timeouts.append(timeout)
        if len(timeouts) == 1:
            raise subprocess.TimeoutExpired(proc.args, timeout)
        return wait(timeout)

    proc.wait = wait_once
    box.close()
    assert timeouts == [2.0, None]
    assert proc.returncode == -signal.SIGKILL
    assert proc.stdin.closed and proc.stdout.closed


@pytest.mark.parametrize(
    "kwargs, setting",
    [({"command": "python"}, "command"), ({"command": []}, "command"),
     ({"command": [sys.executable, 1]}, "command"), ({"n_constraints": 1.7}, "n_constraints"),
     ({"n_constraints": -1}, "n_constraints"), ({"n_constraints": True}, "n_constraints"),
     ({"timeout": float("nan")}, "timeout"), ({"timeout": 0.0}, "timeout"),
     ({"timeout": 3e6}, "timeout")],
    ids=["command-string", "command-empty", "command-not-text", "n_constraints-fraction",
         "n_constraints-negative", "n_constraints-bool", "timeout-nan", "timeout-zero",
         "timeout-past-poll"],
)
def test_mistyped_settings_rejected(kwargs, setting):
    # A string command ran as its letters, 1.7 constraints as 1 and -1 as a
    # problem with no outputs; a timeout past select.poll's 2**31 - 1 ms
    # failed the first read with OverflowError. No child process is started
    # for any of them.
    settings = {"command": ECHO_STUB, "n_constraints": 1, **kwargs}
    with pytest.raises(ValueError, match=setting):
        ExternalBlackbox(**settings)
