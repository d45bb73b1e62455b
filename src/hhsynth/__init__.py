"""Synthesis of grouped categorical data with a nested mixture model.

The package root imports nothing, so that ``python -m hhsynth.cli --help``
starts without numpy.  Import library names from their modules, e.g.
``from hhsynth.gibbs import run_chain``.
"""

__version__ = "0.1.0"
