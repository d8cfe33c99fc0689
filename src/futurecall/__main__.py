"""``python -m futurecall``: the command-line interface of ``cli.py``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
