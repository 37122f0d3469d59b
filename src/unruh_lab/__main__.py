"""Run the command-line interface with ``python -m unruh_lab``."""

from .cli import entry

entry()
