"""``python -m sivreg``: the command line of ``sivreg.cli``."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
