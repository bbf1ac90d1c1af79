"""``python -m stochfio``: the command-line interface (see ``cli``)."""

import sys

from stochfio.cli import main

__all__: list = []

if __name__ == "__main__":
    sys.exit(main())
