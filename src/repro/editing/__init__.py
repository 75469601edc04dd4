"""Editing scripts over ``E(Σ)`` (paper Section 2).

Public surface:

* :class:`EditScript` — scripts with ``In``/``Out`` trees and cost.
* :class:`UpdateBuilder` — compose subtree insertions/deletions over a
  view into a single script.
* :class:`Op`, :class:`EditLabel`, :func:`ins`, :func:`dele`,
  :func:`nop` — the operation alphabet.
* :func:`round_trip_term` — a script's term text, checked to read back
  as the same script (what the journal and the disk memo write).
"""

from .builder import UpdateBuilder
from .ops import EditLabel, Op, dele, ins, nop, parse_edit_label, ren
from .script import EditScript, round_trip_term

__all__ = [
    "EditScript",
    "UpdateBuilder",
    "Op",
    "EditLabel",
    "ins",
    "dele",
    "nop",
    "ren",
    "parse_edit_label",
    "round_trip_term",
]
