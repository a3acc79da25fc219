/**
 * @file
 * Lightweight statistics primitives used by every simulator block.
 */

#ifndef JRPM_COMMON_STATS_HH
#define JRPM_COMMON_STATS_HH

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace jrpm
{

/**
 * A running mean/min/max/variance accumulator over a stream of
 * samples.  Variance uses Welford's online algorithm so a single pass
 * stays numerically stable even when the mean dwarfs the spread.
 */
class SampleStat
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        count_ += 1;
        sum_ += v;
        const double delta = v - mean_;
        mean_ += delta / count_;
        m2_ += delta * (v - mean_);
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? mean_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Population variance of the samples seen so far. */
    double variance() const { return count_ ? m2_ / count_ : 0.0; }
    double stddev() const { return std::sqrt(variance()); }

    /** Merge another accumulator into this one (Chan's formula). */
    void
    merge(const SampleStat &o)
    {
        if (o.count_ == 0)
            return;
        if (count_ == 0) {
            *this = o;
            return;
        }
        const double delta = o.mean_ - mean_;
        const std::uint64_t n = count_ + o.count_;
        m2_ += o.m2_ + delta * delta *
               (static_cast<double>(count_) * o.count_ / n);
        mean_ += delta * o.count_ / n;
        count_ = n;
        sum_ += o.sum_;
        if (o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
    }

    void
    reset()
    {
        *this = SampleStat();
    }

    /** Welford second moment (for exact serialization). */
    double m2() const { return m2_; }

    /** Rebuild an accumulator from serialized raw state. */
    static SampleStat
    fromRaw(std::uint64_t count, double sum, double mean, double m2,
            double min, double max)
    {
        SampleStat s;
        s.count_ = count;
        s.sum_ = sum;
        s.mean_ = mean;
        s.m2_ = m2;
        s.min_ = min;
        s.max_ = max;
        return s;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * A fixed-width text table printer used by the benchmark harnesses to
 * regenerate the paper's tables.
 */
class TextTable
{
  public:
    /** Set the column headers; call once before addRow(). */
    void setHeader(std::vector<std::string> cols);

    /** Add one data row (must match header arity). */
    void addRow(std::vector<std::string> cols);

    /** Render the table with aligned columns. */
    std::string render() const;

  private:
    std::vector<std::vector<std::string>> rows;
};

} // namespace jrpm

#endif // JRPM_COMMON_STATS_HH
