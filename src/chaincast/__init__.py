"""Staged daily-price forecasting toolkit.

The chain: ARIMA models per asset, technical indicators on the target,
stepwise-selected regression on the combined features, and a small neural
network on the selected subset.  Each stage is importable on its own; the
`pipeline` module runs them end to end from one config file, and the
``chaincast`` executable wraps both.  Every public name is imported from
its module, for example ``from chaincast.pipeline import run``; importing
the package itself loads nothing else.
"""

__version__ = "0.1.0"
