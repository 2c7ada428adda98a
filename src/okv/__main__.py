"""`python -m okv`: the command line front end of `okv.cli`."""

import sys

from .cli import main

sys.exit(main())
