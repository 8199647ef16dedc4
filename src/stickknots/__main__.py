"""``python -m stickknots``: the ``stickknots`` command."""
from .cli import main

raise SystemExit(main())
