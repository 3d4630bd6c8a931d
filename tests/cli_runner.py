"""The ``parseq`` entry point run in a child process, as a shell runs it."""

import os
import subprocess
import sys

import parseq


def run_cli(*args):
    env = os.environ.copy()
    # The child imports the parseq this process imported, installed or not.
    src = os.path.dirname(os.path.dirname(parseq.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "parseq", *[str(a) for a in args]],
        capture_output=True,
        text=True,
        env=env,
    )
