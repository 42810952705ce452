"""Run the command-line interface: python -m norbrack <suite> [options]."""

import sys

from .cli import main

sys.exit(main())
