"""The baseline scheme: plain radix walks, no acceleration.

Every hook accessor inherits the base class's ``None``, so the
simulators' per-record dispatch cost degenerates to the same
``is not None`` tests the pre-scheme code paid for its optional ASAP
prefetcher — ``tools/bench.py`` tracks that this stays true.
"""

from __future__ import annotations

from repro.schemes.base import TranslationScheme


class BaselineRadix(TranslationScheme):
    """x86-64 radix page walks exactly as the hardware ships them."""

    name = "BaselineRadix"
