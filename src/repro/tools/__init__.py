"""The ``repro`` subcommands' implementations (see :mod:`repro.cli`)."""
