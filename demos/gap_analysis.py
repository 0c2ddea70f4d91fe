"""Find where a dataset's typological coverage falls short of a reference.

The overlap score says HOW similar two samples are; the gap report says
WHERE they differ. Surplus bins are over-represented in the dataset,
deficit bins are under-represented, and each deficit lists example
reference languages that would plug the hole.
"""

from divscore.analysis import attach_gap
from divscore.diversity import bin_members, jmm_score

# mean word lengths for an imagined web-crawled dataset: plenty of
# mid-length European-style languages, nothing isolating, nothing
# heavily agglutinative
DATASET = {
    "qda": 4.6, "qdb": 4.9, "qdc": 5.1, "qdd": 5.3,
    "qde": 4.7, "qdf": 5.6, "qdg": 4.4, "qdh": 5.0,
}

# a typologically balanced reference sample
REFERENCE = {
    "qra": 2.1, "qrb": 2.8, "qrc": 3.4, "qrd": 4.2,
    "qre": 4.8, "qrf": 5.5, "qrg": 6.3, "qrh": 7.1,
    "qri": 7.8, "qrj": 8.9,
}


def main() -> None:
    width = 1.0
    report = jmm_score(list(DATASET.values()), list(REFERENCE.values()), width)
    print(f"overlap score: {report.value:.4f} (1.0 would be a perfect match)")
    print(f"size normalization c = {report.normalization_c}")

    # map each aligned bin to the reference languages that fall in it
    members = bin_members(list(REFERENCE), list(REFERENCE.values()), width)
    report = attach_gap(report, members)
    gap = report.gap

    print("\nsurplus (dataset mass the reference cannot match):")
    for entry in gap.surplus_bins:
        print(f"  {entry.label}: excess weight {entry.excess:.2f}")

    print("\ndeficit (reference mass the dataset fails to cover):")
    for entry in gap.deficit_bins:
        examples = ", ".join(entry.examples)
        print(f"  {entry.label}: shortfall {entry.shortfall:.2f}  e.g. {examples}")

    print("\nreading: the crawl bunches in the 4-6 range; to close the gap")
    print("it needs short-word isolating languages like", gap.deficit_bins[0].examples[0])
    print("and long-word agglutinative ones like", gap.deficit_bins[-1].examples[0])


if __name__ == "__main__":
    main()
