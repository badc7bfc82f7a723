"""Parallelism substrate: interleaving per-thread traces for shared caches."""

from .interleave import interleave

__all__ = ["interleave"]
