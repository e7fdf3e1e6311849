"""The repo's one end-to-end benchmark (see README.md next to this file).

Four workloads — ``lineitem_sc``, ``sales_tc``, ``sales_session_cache``,
``kernel_grid`` — measured from outside through the public API, checked
against an oracle that shares no code with the engine, with a traced run
attributing the time to the layers.  ``BENCHMARK.json`` at the repo root
declares every metric; ``run.py`` is the entry point.
"""
