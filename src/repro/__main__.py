"""``python -m repro <subcommand>``: the same dispatcher as ``repro``."""

from .cli import main

raise SystemExit(main())
