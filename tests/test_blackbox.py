import os
import signal
import sys
import threading
import time

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

GARBAGE_STUB = [
    sys.executable,
    "-c",
    (
        "import sys\n"
        "for line in sys.stdin:\n"
        "    print('this is not json', flush=True)\n"
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


def test_echo_round_trip():
    with ExternalBlackbox(ECHO_STUB, n_constraints=1) as box:
        values = box.evaluate([0.25, -1.5])
        np.testing.assert_allclose(values, [0.25, -1.5])
        values = box.evaluate([2.0, 0.5])
        np.testing.assert_allclose(values, [2.0, 0.5])
        # Called on a batch, the box answers the rows in order.
        rows = [[2.0, 0.5], [0.25, -1.5], [-3.0, 4.0]]
        np.testing.assert_allclose(box(np.array(rows)), rows)


def test_malformed_response_raises_protocol_error():
    with ExternalBlackbox(GARBAGE_STUB, n_constraints=1) as box:
        with pytest.raises(BlackboxProtocolError):
            box.evaluate([0.0, 0.0])


def test_wrong_constraint_count_raises_protocol_error():
    with ExternalBlackbox(ECHO_STUB, n_constraints=2) as box:
        with pytest.raises(BlackboxProtocolError):
            box.evaluate([0.0, 0.0])


def test_timeout_raises():
    with ExternalBlackbox(SLEEPY_STUB, n_constraints=0, timeout=0.5) as box:
        with pytest.raises(BlackboxTimeout):
            box.evaluate([1.0])


def test_non_utf8_response_raises_protocol_error():
    stub = [sys.executable, "-c",
            "import sys\nfor line in sys.stdin:\n"
            "    sys.stdout.buffer.write(b'\\xff\\n'); sys.stdout.flush()\n"]
    with ExternalBlackbox(stub, n_constraints=0) as box:
        with pytest.raises(BlackboxProtocolError, match="malformed response line"):
            box.evaluate([0.0])


def test_timeout_not_delayed_by_helper_holding_stdout(tmp_path):
    # The helper keeps the pipe open after the child exits, so no end of
    # output arrives: the timeout must fire on time and leave no thread or
    # open pipe behind.
    pid_file = tmp_path / "helper.pid"
    threads = threading.active_count()
    box = ExternalBlackbox([*HELPER_STUB, str(pid_file)], n_constraints=0, timeout=1.0)
    try:
        np.testing.assert_allclose(box.evaluate([1.0]), [1.0])
        proc = box._proc
        started = time.monotonic()
        with pytest.raises(BlackboxTimeout):
            box.evaluate([2.0])
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
    with ExternalBlackbox(EXITING_STUB, n_constraints=0, timeout=5.0) as box:
        with pytest.raises(BlackboxError, match="code 3"):
            box.evaluate([1.0])


@pytest.mark.parametrize("stub, error", [(ECHO_STUB, None), (SLEEPY_STUB, BlackboxTimeout),
                                         (EXITING_STUB, BlackboxError)],
                         ids=["close", "timeout-kill", "child-exit"])
def test_child_pipes_closed(stub, error):
    # Each child's pipes are closed once it is reaped, not left to the garbage collector.
    box = ExternalBlackbox(stub, n_constraints=1, timeout=0.5)
    with box:
        proc = box._proc
        if error is not None:
            with pytest.raises(error):
                box.evaluate([1.0, 2.0])
    assert proc.poll() is not None
    assert proc.stdin.closed and proc.stdout.closed


def test_close_is_idempotent():
    box = ExternalBlackbox(ECHO_STUB, n_constraints=1)
    box.evaluate([1.0, 2.0])
    box.close()
    box.close()


@pytest.mark.parametrize(
    "kwargs, setting",
    [({"command": "python"}, "command"), ({"command": []}, "command"),
     ({"command": [sys.executable, 1]}, "command"), ({"n_constraints": 1.7}, "n_constraints"),
     ({"n_constraints": -1}, "n_constraints"), ({"n_constraints": True}, "n_constraints"),
     ({"timeout": float("nan")}, "timeout"), ({"timeout": 0.0}, "timeout")],
    ids=["command-string", "command-empty", "command-not-text", "n_constraints-fraction",
         "n_constraints-negative", "n_constraints-bool", "timeout-nan", "timeout-zero"],
)
def test_mistyped_settings_rejected(kwargs, setting):
    # A string command ran as its letters, 1.7 constraints as 1 and -1 as a
    # problem with no outputs; no child process is started for any of them.
    settings = {"command": ECHO_STUB, "n_constraints": 1, **kwargs}
    with pytest.raises(ValueError, match=setting):
        ExternalBlackbox(**settings)
