"""The process-wide result-store slot.

Three layers persist derived work through the campaign's
:class:`~repro.service.store.ResultStore` when one is attached here:
lift caches (:mod:`repro.ir.superblock`, the ``lift/`` tree), fuzz
campaigns (:mod:`repro.fuzz.corpus`, ``corpus/``) and flag-driven
solver-query captures (:mod:`repro.smt.querylog`, ``smtlog/``).  With
no store attached they all run storeless.

A leaf module: the engines read the slot without importing the service
package, which itself imports the evaluation harness.
"""

from __future__ import annotations

import contextlib

_store = None


def current():
    """The attached store, or None."""
    return _store


@contextlib.contextmanager
def attach(store):
    """``with attach(store):`` — *store* (or None for no store) is the
    slot's content for the block; the previous one is restored after,
    also when the block raises."""
    global _store
    previous, _store = _store, store
    try:
        yield store
    finally:
        _store = previous
