"""Coherent-feedback controller synthesis for linear quantum networks.

The package covers the full pipeline: build input-output models of
open-oscillator networks, check physical realizability, stabilize and
coprime-factor the controller-facing loop, parameterize all stabilizing
controllers by a stable parameter, restrict that parameter to the
quantum-admissible set, and optimize weighted closed-loop H2 performance
with a projected line-search descent.  ``coherentctl.cli`` exposes the
same pipeline as a command-line front end over JSON problem documents.
Library names are imported from the submodules (``coherentctl.statespace``,
``coherentctl.stabilization`` and so on); the package root exports none.
"""

__version__ = "0.1.0"
