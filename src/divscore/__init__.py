"""Linguistic diversity scoring for multilingual data sets.

Quantifies how diverse a set of languages is relative to a reference
sample: minmax Jaccard over binned language measurements, entropy-based
typological indices, per-language text statistics (mean word length,
type-token ratio, unigram entropy), and a WALS-based morphological
complexity score.
"""

from .analysis import (
    CorrelationResult,
    attach_gap,
    serialize_report,
    spearman,
)
from .diversity import (
    bin_index,
    bin_measurements,
    bin_members,
    binary_entropy,
    feature_members,
    jmm_score,
    jmm_syn,
    normalization_scalar,
    syntactic_weights,
    ti_morph,
    ti_syn,
)
from .grammar import (
    MorphSpecSet,
    c_wals,
    c_wals_table,
    load_morph_specs,
    normalize_feature,
)
from .ingest import (
    CorpusSource,
    bundled_path,
    family_breakdown,
    load_corpus,
    load_feature_matrix,
    load_iso_list,
    load_numeric_table,
    load_registry,
)
from .model import (
    BinOverlap,
    DeficitBin,
    DiversityReport,
    FeatureMatrix,
    GapReport,
    LanguageRecord,
    LanguageSet,
    MorphFeatureSpec,
    SurplusBin,
    TextProfile,
)
from .textstats import (
    TokenSequence,
    grapheme_length,
    mean_word_length,
    profile,
    sample_contiguous,
    tokenize,
    type_token_ratio,
    unigram_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BinOverlap",
    "CorpusSource",
    "CorrelationResult",
    "DeficitBin",
    "DiversityReport",
    "FeatureMatrix",
    "GapReport",
    "LanguageRecord",
    "LanguageSet",
    "MorphFeatureSpec",
    "MorphSpecSet",
    "SurplusBin",
    "TextProfile",
    "TokenSequence",
    "attach_gap",
    "bin_index",
    "bin_measurements",
    "bin_members",
    "binary_entropy",
    "bundled_path",
    "c_wals",
    "c_wals_table",
    "family_breakdown",
    "feature_members",
    "grapheme_length",
    "jmm_score",
    "jmm_syn",
    "load_corpus",
    "load_feature_matrix",
    "load_iso_list",
    "load_morph_specs",
    "load_numeric_table",
    "load_registry",
    "mean_word_length",
    "normalization_scalar",
    "normalize_feature",
    "profile",
    "sample_contiguous",
    "serialize_report",
    "spearman",
    "syntactic_weights",
    "ti_morph",
    "ti_syn",
    "tokenize",
    "type_token_ratio",
    "unigram_entropy",
]
