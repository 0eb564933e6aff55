"""`python -m spinnet`: the same command line as `spinnet`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
