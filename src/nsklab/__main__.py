"""``python -m nsklab``: the same command line as the ``nsklab`` script."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
