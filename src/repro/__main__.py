"""Entry point for ``python -m repro``."""

import sys

from repro.cli import console

sys.exit(console())
