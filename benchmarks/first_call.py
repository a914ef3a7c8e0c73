"""Set-up probe: import qrh in a fresh interpreter, make one CLI call, report.

    python3 benchmarks/first_call.py <src dir> <qrh argv...>

Prints "ready" once the call has returned; the caller times from process start
to that line.
"""

import contextlib
import io
import sys

sys.path.insert(0, sys.argv[1])

from qrh import cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[2:])
print("ready", flush=True)
