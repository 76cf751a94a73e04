#include "common/histogram.h"

#include <algorithm>
#include <cmath>

namespace semcor {

namespace {
// Values < 2^kExactBits are exact; above, each power-of-two tier has
// kSub = 2^(kExactBits-1) linear sub-buckets.
constexpr int kExactBits = 6;                     // 64 exact buckets
constexpr uint64_t kExact = uint64_t{1} << kExactBits;
constexpr uint64_t kSub = kExact / 2;             // 32 sub-buckets per tier
constexpr size_t kTiers = 58;                     // covers int64 range
constexpr size_t kBuckets = kExact + kTiers * kSub;
}  // namespace

Histogram::Histogram() : buckets_(kBuckets, 0) {}

size_t Histogram::Index(uint64_t v) {
  if (v < kExact) return static_cast<size_t>(v);
  const int msb = 63 - __builtin_clzll(v);
  const int tier = msb - (kExactBits - 1);  // 1 for [64,128), 2 for [128,256)…
  const uint64_t sub = (v >> tier) - kSub;  // top bits after the leading one
  size_t index = kExact + static_cast<size_t>(tier - 1) * kSub +
                 static_cast<size_t>(sub);
  return std::min(index, kBuckets - 1);
}

int64_t Histogram::BucketUpper(size_t index) {
  if (index < kExact) return static_cast<int64_t>(index);
  const size_t tier = (index - kExact) / kSub + 1;
  const uint64_t sub = (index - kExact) % kSub;
  return static_cast<int64_t>(((kSub + sub + 1) << tier) - 1);
}

void Histogram::Record(int64_t value) {
  const uint64_t v = value < 0 ? 0 : static_cast<uint64_t>(value);
  ++buckets_[Index(v)];
  ++count_;
  max_ = std::max(max_, static_cast<int64_t>(v));
  sum_ += static_cast<double>(v);
}

void Histogram::Merge(const Histogram& other) {
  for (size_t i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
  sum_ += other.sum_;
}

int64_t Histogram::Percentile(double p) const {
  if (count_ == 0) return 0;
  const double clamped = std::min(100.0, std::max(0.0, p));
  const uint64_t target = static_cast<uint64_t>(
      std::max(1.0, std::ceil(clamped / 100.0 * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) return BucketUpper(i);
  }
  return max_;
}

double Histogram::Mean() const {
  return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
}

}  // namespace semcor
