"""Walk through the minmax-Jaccard overlap score on a tiny example.

Two samples of per-language mean word lengths are binned into unit-width
histograms, the smaller sample is scaled up so both carry the same mass,
and the score is the ratio of column-wise minima to column-wise maxima.
The example is small enough to check every number by hand.
"""

from collections import Counter

from divscore.diversity import bin_measurements, jmm_score


def main() -> None:
    dataset = [2.5, 3.5, 3.7]
    reference = [3.2, 4.1]
    width = 1.0

    print("dataset measurements:  ", dataset)
    print("reference measurements:", reference)
    print(f"bin width: {width}")
    print()

    # each side is binned once: one bin index per measurement
    bins_d = bin_measurements(dataset, width)
    bins_r = bin_measurements(reference, width)
    for name, bins in (("dataset", bins_d), ("reference", bins_r)):
        cols = ", ".join(f"{b}={n}" for b, n in Counter(bins).items())
        print(f"{name} histogram: {cols}")

    report = jmm_score(bins_d, bins_r)
    print(f"\nsize normalization: c = max(3,2)/min(3,2) = {report.normalization_c}")
    print("the smaller side's counts are multiplied by c before comparison")
    print()

    print("aligned columns (after scaling the smaller side):")
    header = f"{'bin':>6} {'dataset':>9} {'reference':>9} {'min':>6} {'max':>6}"
    print(header)
    for row in report.per_bin:
        print(
            f"{row.label:>6} {row.dataset:>9.2f} {row.reference:>9.2f}"
            f" {row.min_weight:>6.2f} {row.max_weight:>6.2f}"
        )

    num = sum(r.min_weight for r in report.per_bin)
    den = sum(r.max_weight for r in report.per_bin)
    print(f"\nsum of minima = {num:g}, sum of maxima = {den:g}")
    print(f"score = {num:g}/{den:g} = {report.value}")
    assert report.value == 1 / 3
    # the score is computed from the counts: each is multiplied by the
    # other side's size (here 2 and 3), so every term is an integer
    wd = [n * report.reference.n for n in report.dataset.counts]
    wr = [n * report.dataset.n for n in report.reference.counts]
    print(f"as integers: {sum(map(min, wd, wr))}/{sum(map(max, wd, wr))} = {report.value}")

    print("\nproperties worth knowing:")
    same = jmm_score(bins_d, bins_d)
    print(f"  identical samples score {same.value} (perfect overlap)")
    doubled = jmm_score(bins_d * 2, bins_r)
    print(f"  duplicating one side leaves the score at {doubled.value:.12f}")
    coarse = jmm_score(bin_measurements(dataset, 2.0), bin_measurements(reference, 2.0))
    print(f"  doubling the bin width can only raise it: {coarse.value:.4f}")


if __name__ == "__main__":
    main()
