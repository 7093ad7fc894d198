"""Simulator core: machine wiring, engine, stats, results, the
ground-truth conflict oracle, public API.

The package itself imports nothing: the harness reads results
(``core.results``, ``core.stats``) and the analyzers key conflicts with
the oracle (``core.oracle``) without loading the engine."""
