"""Synthetic open-data corpora + type inference (paper Section V-C)."""
from .corpus import NYC, SPECS, WBF, CollectionSpec, PairTables, generate_collection, generate_pair
from .typeinfer import cast_column

__all__ = [
    "NYC",
    "SPECS",
    "WBF",
    "CollectionSpec",
    "PairTables",
    "generate_collection",
    "generate_pair",
    "cast_column",
]
