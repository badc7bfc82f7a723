"""A delta task has no fidelity ladder of its own.

Every ``/delta`` step, plain or carrying ``accuracy``/``max_tier``, is
answered by :meth:`repro.ladder.Ladder.answer_task` on the edited pattern
(see :mod:`repro.delta.engine`).  This module stays, empty, only because
the benchmark's ledger preloads it by name.
"""
