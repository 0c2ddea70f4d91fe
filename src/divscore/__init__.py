"""Linguistic diversity scoring for multilingual data sets.

Quantifies how diverse a set of languages is relative to a reference
sample: minmax Jaccard over binned language measurements, entropy-based
typological indices, per-language text statistics (mean word length,
type-token ratio, unigram entropy), and a WALS-based morphological
complexity score.
"""
