// Metrics registry (DESIGN.md §8): named counters, gauges, and histograms.
//
// Naming scheme: dotted lowercase `<subsystem>.<metric>` — e.g.
// `memo.reclaims`, `engine.subgraphs`, `partition.merged`. The executors'
// formerly ad-hoc counters (MemoizedExecutor reclaims/stolen_bricks/
// stalled_workers/..., padded brick counts) publish here so
// every run — engine, bench harness, or direct executor call — lands on one
// queryable surface.
//
// Concurrency: instruments are plain atomics, exact under any number of
// concurrent writers (the obs test suite hammers them from 16 threads under
// TSan). Registration takes a mutex once per instrument name; callers cache
// the returned reference for hot paths. Instruments are never deleted, so
// references stay valid for the registry's lifetime.
#pragma once

#include <atomic>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace brickdl::obs {

class Counter {
 public:
  void add(i64 n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  i64 value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<i64> value_{0};
};

class Gauge {
 public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-linear (HDR-style) histogram of non-negative i64 samples: each
/// power-of-two octave is subdivided into 2^kSubBits linear sub-buckets, so
/// any quantile read off a bucket boundary carries a bounded relative error
/// of at most 1/2^kSubBits (6.25%) instead of quantizing to powers of two.
/// Values 0..2*kSubBuckets-1 land in their own bucket (exact). Count and sum
/// are exact under any number of concurrent writers; min/max use CAS.
class Histogram {
 public:
  static constexpr int kSubBits = 4;
  static constexpr int kSubBuckets = 1 << kSubBits;  // 16
  /// Octaves 4..62 of an i64 each contribute kSubBuckets buckets on top of
  /// the exact 0..15 range: 16 + (62 - 4 + 1) * 16.
  static constexpr int kBuckets = kSubBuckets + (63 - kSubBits) * kSubBuckets;

  /// Bucket index for a (clamped non-negative) value.
  static int bucket_of(i64 value);
  /// Smallest / largest value mapping to `bucket`.
  static i64 bucket_lower(int bucket);
  static i64 bucket_upper(int bucket);

  void observe(i64 value);
  i64 count() const { return count_.load(std::memory_order_relaxed); }
  i64 sum() const { return sum_.load(std::memory_order_relaxed); }
  double mean() const;
  i64 min() const;  ///< 0 when empty
  i64 max() const;  ///< 0 when empty
  i64 bucket_count(int bucket) const;
  /// Upper bound of the bucket containing the p-th percentile (p in [0,1]).
  /// Relative error vs the true quantile is bounded by 1/kSubBuckets.
  i64 percentile(double p) const;
  void reset();

 private:
  std::atomic<i64> counts_[kBuckets]{};
  std::atomic<i64> count_{0};
  std::atomic<i64> sum_{0};
  // Sentinel-initialized so concurrent first observations need no seeding
  // branch: any sample beats both sentinels.
  std::atomic<i64> min_{std::numeric_limits<i64>::max()};
  std::atomic<i64> max_{std::numeric_limits<i64>::min()};
};

class MetricsRegistry {
 public:
  /// Find-or-create. A name registered as one kind stays that kind;
  /// re-registering it as another kind is a programming error (BDL_CHECK).
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  /// Registered names, sorted, with kind prefixes stripped.
  std::vector<std::string> names() const;

  /// Counters/gauges as numbers; histograms as
  /// {count, sum, mean, min, max, p50, p95, p99}.
  Json to_json() const;

  /// Visit every instrument in name order. Exactly one of the instrument
  /// pointers is non-null per call. Used by the exporter (obs/exporter.hpp)
  /// to render kinds the JSON snapshot flattens away (histogram buckets).
  /// The callback must not re-enter the registry (the lock is held).
  void for_each(const std::function<void(const std::string& name,
                                         const Counter* counter,
                                         const Gauge* gauge,
                                         const Histogram* histogram)>& fn)
      const;

  /// Zero every instrument (registrations survive).
  void reset();

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };

  Entry& entry(const std::string& name, Kind kind);

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
};

/// The process-wide default registry every subsystem publishes into.
MetricsRegistry& metrics();

}  // namespace brickdl::obs
