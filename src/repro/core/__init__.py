"""Simulator core: machine wiring, engine, stats, results, public API.

The package itself imports nothing: the harness reads results
(``core.results``, ``core.stats``) without loading the engine."""
