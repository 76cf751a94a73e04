#ifndef SEMCOR_COMMON_HISTOGRAM_H_
#define SEMCOR_COMMON_HISTOGRAM_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace semcor {

/// HDR-style log-bucketed histogram of non-negative integers, semcor's one
/// latency primitive. It is unit-neutral: the caller picks the unit (the
/// load generator records µs, the server and executor record ns) and
/// converts on the way out. Values below 64 are exact; above that, each
/// power-of-two range is split into 32 linear sub-buckets, bounding the
/// relative quantization error at ~3% while the whole structure stays a
/// flat ~2k-entry array — O(1) record, no allocation on the hot path, and
/// a lossless Merge (bucket-wise sums), so per-worker histograms combine
/// into exactly the histogram one recorder would have built.
class Histogram {
 public:
  Histogram();

  void Record(int64_t value);  ///< negative values record as 0
  void Merge(const Histogram& other);

  /// Value at percentile p in [0, 100]: the upper bound of the bucket
  /// holding the p-th percentile count (0 when empty). Percentile(100) is
  /// an upper bound on the maximum recorded value.
  int64_t Percentile(double p) const;

  uint64_t Count() const { return count_; }
  int64_t Max() const { return max_; }
  double Mean() const;

 private:
  static size_t Index(uint64_t v);
  static int64_t BucketUpper(size_t index);

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
  int64_t max_ = 0;
  double sum_ = 0;
};

}  // namespace semcor

#endif  // SEMCOR_COMMON_HISTOGRAM_H_
