"""Development tools that run over the repository and ship with no package.

* :mod:`tools.analysis` — the AST contract linter
  (``python -m tools.analysis src benchmarks tests tools``).
"""
