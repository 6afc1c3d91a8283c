"""``python -m qsift``: the ``qsift`` command without an installed script."""

import sys

from .cli import main

sys.exit(main())
