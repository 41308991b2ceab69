"""Code run in a fresh interpreter that imports the ``stripconcave`` these
tests import: for start-up imports, and for limits a test process cannot
take back, such as an address-space cap."""
import os
import subprocess
import sys
from pathlib import Path

import stripconcave

SOURCE = str(Path(stripconcave.__file__).parents[1])


def fresh_python(code: str, stdin: str = "", memory: int = None) -> subprocess.CompletedProcess:
    """Run ``python -c code`` with ``stdin`` as its input and the address
    space capped at ``memory`` bytes when given; the process comes back
    with its exit code and its text ``stdout`` and ``stderr``."""
    if memory is not None:
        code = f"import resource\nresource.setrlimit(resource.RLIMIT_AS, ({memory}, {memory}))\n{code}"
    path = os.pathsep.join(filter(None, [SOURCE, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run([sys.executable, "-c", code], input=stdin, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path}, timeout=60)
