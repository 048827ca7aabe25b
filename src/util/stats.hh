/**
 * @file
 * Streaming and batch statistics used across the evaluation harness.
 *
 * RunningStats accumulates mean / variance / extrema in one pass
 * (Welford's algorithm); the free functions compute order statistics
 * and the geometric mean used for SPEC-style score aggregation;
 * LogHistogram buckets positive values by order of magnitude, which is
 * what the paper's "gap size" plots (Figs. 5 and 7) display.
 */

#ifndef SUIT_UTIL_STATS_HH
#define SUIT_UTIL_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace suit::util {

/** One-pass mean/variance/min/max accumulator (Welford). */
class RunningStats
{
  public:
    /** Add one sample. */
    void add(double x);

    /** Number of samples seen so far. */
    std::size_t count() const { return count_; }
    /** Arithmetic mean (0 if empty). */
    double mean() const { return count_ ? mean_ : 0.0; }
    /** Unbiased sample variance (0 if fewer than two samples). */
    double variance() const;
    /** Sample standard deviation. */
    double stddev() const;
    /** Smallest sample (0 if empty). */
    double min() const { return count_ ? min_ : 0.0; }
    /** Largest sample (0 if empty). */
    double max() const { return count_ ? max_ : 0.0; }
    /** Sum of all samples. */
    double sum() const { return sum_; }

    /** Merge another accumulator into this one. */
    void merge(const RunningStats &other);

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    double sum_ = 0.0;
};

/** Geometric mean of positive values; 0 for an empty input. */
double geomean(const std::vector<double> &values);

/** Median (average of the two middle values for even sizes). */
double median(std::vector<double> values);

/**
 * Linear-interpolation percentile.
 *
 * @param values sample set (copied; need not be sorted).
 * @param p percentile in [0, 100].
 */
double percentile(std::vector<double> values, double p);

/**
 * Fixed-bucket histogram over explicit upper bounds.
 *
 * Bucket i counts samples with value <= bounds[i] (and greater than
 * bounds[i-1]); one implicit overflow bucket counts everything above
 * the last bound.  The bucket layout is exactly the cell layout the
 * obs::Registry shards use, so a registry snapshot can rebuild a
 * BucketHistogram from raw per-thread counts (addCount) and merge
 * shards with merge().
 */
class BucketHistogram
{
  public:
    /** Empty histogram with no bounds (only the overflow bucket). */
    BucketHistogram() = default;

    /**
     * @param upper_bounds inclusive bucket upper bounds; must be
     *        strictly increasing (asserted).
     */
    explicit BucketHistogram(std::vector<double> upper_bounds);

    /** Record one sample. */
    void add(double value);

    /**
     * Add @p n samples to bucket @p bucket directly (registry shard
     * merge path).  @p bucket may be bounds().size() — the overflow
     * bucket.
     */
    void addCount(std::size_t bucket, std::uint64_t n);

    /**
     * Merge another histogram with identical bounds into this one
     * (asserted; merging mismatching layouts would silently misbin).
     */
    void merge(const BucketHistogram &other);

    /**
     * Zero every bucket count while keeping the bounds — the
     * allocation-free refill path of Registry::snapshotInto().
     */
    void resetCounts();

    /** Bucket upper bounds (excludes the implicit overflow bucket). */
    const std::vector<double> &bounds() const { return bounds_; }
    /** Number of buckets including the overflow bucket. */
    std::size_t bucketCount() const { return counts_.size(); }
    /** Count in bucket @p i (i == bounds().size() = overflow). */
    std::uint64_t count(std::size_t i) const;
    /** Total samples recorded. */
    std::uint64_t total() const { return total_; }

    /**
     * Estimated percentile by linear interpolation inside the
     * containing bucket (the first bucket interpolates from 0, the
     * overflow bucket clamps to the last bound).  0 for an empty
     * histogram.
     *
     * @param p percentile in [0, 100].
     */
    double percentile(double p) const;

  private:
    std::vector<double> bounds_;
    std::vector<std::uint64_t> counts_{0}; //!< bounds + overflow
    std::uint64_t total_ = 0;
};

/**
 * Exact floating-point accumulator (Shewchuk expansion summation).
 *
 * Keeps the running sum as a list of non-overlapping doubles whose
 * exact (infinitely precise) sum equals the exact sum of everything
 * added so far; value() rounds that exact sum to the nearest double
 * once (round-half-even, CPython math.fsum's final-rounding rule).
 *
 * Because the represented value is *exact*, addition through an
 * ExactSum is associative: any grouping of the same samples — one
 * accumulator fed serially, or many accumulators merged in any order
 * — yields the same exact value and therefore the same value() bits.
 * The fleet engine relies on this for its shard-count/worker-count
 * invariance guarantee: per-shard aggregates merge without the
 * grouping sensitivity of plain double addition.
 *
 * Inputs must be finite (asserted); the expansion grows only when
 * samples span magnitudes (typically a handful of parts), so an
 * ExactSum is a few dozen bytes, not a sample log.
 */
class ExactSum
{
  public:
    /** Add one finite sample. */
    void add(double x);

    /** Add every part of @p other (exact, order-insensitive). */
    void merge(const ExactSum &other);

    /** The exact sum, correctly rounded to the nearest double. */
    double value() const;

    /** Non-overlapping parts, increasing magnitude (serialization). */
    const std::vector<double> &parts() const { return parts_; }

    /** Restore from serialized parts (trusted, e.g. a checkpoint). */
    static ExactSum fromParts(std::vector<double> parts);

  private:
    std::vector<double> parts_;
};

/**
 * Histogram over log10-sized buckets for positive integer values.
 *
 * Bucket i holds values in [10^i, 10^(i+1)); values of zero land in
 * a dedicated underflow bucket.
 */
class LogHistogram
{
  public:
    /** Create with the given number of decades (default 12). */
    explicit LogHistogram(int decades = 12);

    /** Record one value. */
    void add(std::uint64_t value);

    /** Count in the given decade bucket. */
    std::uint64_t bucket(int decade) const;
    /** Count of zero-valued samples. */
    std::uint64_t underflow() const { return underflow_; }
    /** Count of samples at or above the last decade. */
    std::uint64_t overflow() const { return overflow_; }
    /** Total samples recorded. */
    std::uint64_t total() const { return total_; }
    /** Number of decades configured. */
    int decades() const { return static_cast<int>(buckets_.size()); }

    /** Render as an ASCII bar chart, one row per decade. */
    std::string render(int width = 50) const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t underflow_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t total_ = 0;
};

} // namespace suit::util

#endif // SUIT_UTIL_STATS_HH
