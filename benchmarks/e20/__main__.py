"""``python -m benchmarks.e20``: the full set (see ``cli.full_main``)."""

import sys

from .cli import full_main

sys.exit(full_main())
