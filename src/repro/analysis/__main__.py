"""Entry point for ``python -m repro.analysis``."""

import os
import sys

from .cli import main

if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # Reader went away (e.g. `... | head`); suppress the traceback
        # that the interpreter would print while flushing at exit.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 0
    raise SystemExit(code)
