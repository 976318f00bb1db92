"""The fixed chaos grid, executed through :mod:`repro.chaos`.

See :mod:`benchmarks.chaos.cases` for the grid and
:mod:`benchmarks.chaos.run` for the CLI / report writer.
"""
