"""``python -m toporeg`` runs the command-line interface (see toporeg.cli)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
