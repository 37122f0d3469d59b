"""Run the command-line interface with ``python -m unruh_lab``."""

import sys

from .cli import main

sys.exit(main())
