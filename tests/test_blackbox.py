import sys

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
