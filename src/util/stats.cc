#include "util/stats.hh"

#include <algorithm>
#include <cmath>

#include "util/format.hh"
#include "util/logging.hh"

namespace suit::util {

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

double
RunningStats::variance() const
{
    if (count_ < 2)
        return 0.0;
    return m2_ / static_cast<double>(count_ - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double n_a = static_cast<double>(count_);
    const double n_b = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n_total = n_a + n_b;
    mean_ += delta * n_b / n_total;
    m2_ += other.m2_ + delta * delta * n_a * n_b / n_total;
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values) {
        SUIT_ASSERT(v > 0.0, "geomean input must be positive, got %f", v);
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

double
median(std::vector<double> values)
{
    return percentile(std::move(values), 50.0);
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    SUIT_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: %f", p);
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values.front();
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] * (1.0 - frac) + values[hi] * frac;
}

BucketHistogram::BucketHistogram(std::vector<double> upper_bounds)
    : bounds_(std::move(upper_bounds)),
      counts_(bounds_.size() + 1, 0)
{
    for (std::size_t i = 1; i < bounds_.size(); ++i) {
        SUIT_ASSERT(bounds_[i - 1] < bounds_[i],
                    "histogram bounds must be strictly increasing "
                    "(bounds[%zu] = %f >= bounds[%zu] = %f)",
                    i - 1, bounds_[i - 1], i, bounds_[i]);
    }
}

void
BucketHistogram::add(double value)
{
    const auto it =
        std::lower_bound(bounds_.begin(), bounds_.end(), value);
    ++counts_[static_cast<std::size_t>(it - bounds_.begin())];
    ++total_;
}

void
BucketHistogram::addCount(std::size_t bucket, std::uint64_t n)
{
    SUIT_ASSERT(bucket < counts_.size(),
                "bucket %zu out of range (%zu buckets)", bucket,
                counts_.size());
    counts_[bucket] += n;
    total_ += n;
}

void
BucketHistogram::resetCounts()
{
    std::fill(counts_.begin(), counts_.end(), 0);
    total_ = 0;
}

void
BucketHistogram::merge(const BucketHistogram &other)
{
    SUIT_ASSERT(bounds_ == other.bounds_,
                "merging histograms with different bucket layouts "
                "(%zu vs %zu bounds)",
                bounds_.size(), other.bounds_.size());
    for (std::size_t i = 0; i < counts_.size(); ++i)
        counts_[i] += other.counts_[i];
    total_ += other.total_;
}

std::uint64_t
BucketHistogram::count(std::size_t i) const
{
    SUIT_ASSERT(i < counts_.size(),
                "bucket %zu out of range (%zu buckets)", i,
                counts_.size());
    return counts_[i];
}

double
BucketHistogram::percentile(double p) const
{
    SUIT_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: %f",
                p);
    if (total_ == 0)
        return 0.0;
    // Rank of the requested sample, 1-based, clamped into the count.
    const double rank = std::max(
        1.0, p / 100.0 * static_cast<double>(total_));
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
        if (counts_[i] == 0)
            continue;
        const double before = static_cast<double>(seen);
        seen += counts_[i];
        if (rank > static_cast<double>(seen))
            continue;
        if (i == bounds_.size()) {
            // Overflow bucket: no upper edge to interpolate toward.
            return bounds_.empty() ? 0.0 : bounds_.back();
        }
        const double lo = i == 0 ? 0.0 : bounds_[i - 1];
        const double hi = bounds_[i];
        const double frac =
            (rank - before) / static_cast<double>(counts_[i]);
        return lo + (hi - lo) * frac;
    }
    return bounds_.empty() ? 0.0 : bounds_.back();
}

void
ExactSum::add(double x)
{
    SUIT_ASSERT(std::isfinite(x), "ExactSum needs finite samples");
    // Shewchuk grow-expansion (the msum inner loop of CPython's
    // math.fsum): after the pass, parts_ is a non-overlapping
    // expansion whose exact sum is unchanged plus x.
    std::size_t kept = 0;
    for (std::size_t j = 0; j < parts_.size(); ++j) {
        double y = parts_[j];
        if (std::fabs(x) < std::fabs(y))
            std::swap(x, y);
        const double hi = x + y;
        const double lo = y - (hi - x);
        if (lo != 0.0)
            parts_[kept++] = lo;
        x = hi;
    }
    parts_.resize(kept);
    parts_.push_back(x);
}

void
ExactSum::merge(const ExactSum &other)
{
    // Adding the parts individually preserves exactness, so a merge
    // is exactly "as if every sample of other had been added here".
    // Guard against self-merge invalidating the iteration.
    const std::vector<double> parts = other.parts_;
    for (const double part : parts)
        add(part);
}

double
ExactSum::value() const
{
    // CPython math.fsum final rounding: sum the expansion from the
    // largest part down, and resolve a round-half-even tie with the
    // sign of the next lower part, so the result is the exact sum
    // correctly rounded — a function of the exact value only, never
    // of how the parts happen to be split.
    std::size_t n = parts_.size();
    if (n == 0)
        return 0.0;
    double hi = parts_[--n];
    double lo = 0.0;
    while (n > 0) {
        const double x = hi;
        const double y = parts_[--n];
        hi = x + y;
        const double yr = hi - x;
        lo = y - yr;
        if (lo != 0.0)
            break;
    }
    if (n > 0 && ((lo < 0.0 && parts_[n - 1] < 0.0) ||
                  (lo > 0.0 && parts_[n - 1] > 0.0))) {
        const double y = lo * 2.0;
        const double x = hi + y;
        if (y == x - hi)
            hi = x;
    }
    return hi;
}

ExactSum
ExactSum::fromParts(std::vector<double> parts)
{
    ExactSum sum;
    sum.parts_ = std::move(parts);
    return sum;
}

LogHistogram::LogHistogram(int decades)
    : buckets_(static_cast<std::size_t>(decades), 0)
{
    SUIT_ASSERT(decades > 0, "histogram needs at least one decade");
}

void
LogHistogram::add(std::uint64_t value)
{
    ++total_;
    if (value == 0) {
        ++underflow_;
        return;
    }
    int decade = 0;
    while (value >= 10) {
        value /= 10;
        ++decade;
    }
    if (decade >= static_cast<int>(buckets_.size())) {
        ++overflow_;
        return;
    }
    ++buckets_[static_cast<std::size_t>(decade)];
}

std::uint64_t
LogHistogram::bucket(int decade) const
{
    SUIT_ASSERT(decade >= 0 && decade < decades(),
                "bucket index %d out of range", decade);
    return buckets_[static_cast<std::size_t>(decade)];
}

std::string
LogHistogram::render(int width) const
{
    std::uint64_t peak = 1;
    for (auto b : buckets_)
        peak = std::max(peak, b);
    std::string out;
    for (int d = 0; d < decades(); ++d) {
        const std::uint64_t n = buckets_[static_cast<std::size_t>(d)];
        const int bar = static_cast<int>(
            static_cast<double>(n) / static_cast<double>(peak) * width);
        out += sformat("10^%-2d |%-*s| %llu\n", d, width,
                       std::string(static_cast<std::size_t>(bar), '#')
                           .c_str(),
                       static_cast<unsigned long long>(n));
    }
    return out;
}

} // namespace suit::util
