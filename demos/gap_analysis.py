"""Find where a dataset's typological coverage falls short of a reference.

The overlap score says HOW similar two samples are; the gap report says
WHERE they differ. Surplus bins are over-represented in the dataset,
deficit bins are under-represented, and each deficit lists example
reference languages that would plug the hole.

The second part runs the same diagnosis on the bundled data: the
languages of the bundled 28-language table that the bundled mBERT list
covers, against all 28. It is the bundled-data analogue of the finding
that (poly)synthetic languages are missing from large multilingual
models, not a reproduction of any published table. The command line
gives the same report:

    divscore score --level morph --dataset <covered rows>.csv \\
        --reference src/divscore/data/mwl_cwals.csv --bin-width 1
"""

import csv

from divscore.analysis import attach_gap
from divscore.diversity import bin_measurements, jmm_score
from divscore.ingest import bundled_path, load_iso_list, load_numeric_table

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
    # each side is binned once, into the report side the score and the gap read
    bins_d = bin_measurements(list(DATASET.values()), width)
    bins_r = bin_measurements(list(REFERENCE.values()), width)
    report = jmm_score(bins_d, bins_r)
    print(f"overlap score: {report.value:.4f} (1.0 would be a perfect match)")
    print(f"size normalization c = {report.normalization_c}")

    # the gap block as the JSON report prints it: each deficit bin lists
    # its first reference languages in iso order, read off the report's
    # reference side, where each language sits in the one row of its bin
    gap = attach_gap(report, list(REFERENCE))

    print("\nsurplus (dataset mass the reference cannot match):")
    for entry in gap["surplus"]:
        print(f"  {entry['bin']}: excess weight {entry['excess']:.2f}")

    print("\ndeficit (reference mass the dataset fails to cover):")
    for entry in gap["deficit"]:
        examples = ", ".join(entry["examples"])
        print(f"  {entry['bin']}: shortfall {entry['shortfall']:.2f}  e.g. {examples}")

    print("\nreading: the crawl bunches in the 4-6 range; to close the gap")
    print("it needs short-word isolating languages like", gap["deficit"][0]["examples"][0])
    print("and long-word agglutinative ones like", gap["deficit"][-1]["examples"][0])

    bundled_mbert()


def bundled_mbert() -> None:
    table = bundled_path("mwl_cwals.csv")
    _, rows = load_numeric_table(table, ["mwl"])
    mwl = {iso: value for iso, (value,) in rows.items()}
    with open(table, newline="", encoding="utf-8") as fh:
        names = {row["iso"]: row["name"] for row in csv.DictReader(fh)}
    mbert = set(load_iso_list(bundled_path("mbert_languages.txt")))
    covered = [iso for iso in mwl if iso in mbert]
    print(f"\nbundled data: {len(covered)} of the {len(mwl)} table languages are on the mBERT list")

    bins_r = bin_measurements(list(mwl.values()), 1.0)
    report = jmm_score(bin_measurements([mwl[iso] for iso in covered], 1.0), bins_r)
    gap = attach_gap(report, list(mwl))
    print(f"overlap score against all {len(mwl)}: {report.value:.4f}")
    for entry in gap["deficit"]:
        examples = ", ".join(f"{names[iso]} ({mwl[iso]})" for iso in entry["examples"])
        print(f"  missing {entry['bin']}: {examples}")
    print("reading: what the mBERT languages miss is the long-word end of the table,")
    print("where the (poly)synthetic languages sit")


if __name__ == "__main__":
    main()
