// Lock-cheap process-wide metrics registry (docs/observability.md).
//
// Three instrument kinds, all safe to hammer from any thread:
//
//   Counter  — monotonic u64, thread-sharded: add() is one relaxed
//              fetch_add on a cache-line-private cell, merged on read.
//   Gauge    — last-written i64 (watermarks, queue depths).
//   LatencyHistogram — fixed power-of-two-nanosecond buckets, sharded
//              like counters; record() is two relaxed adds.
//
// Instruments are interned by name and never deallocated, so hot paths
// register once through a function-local static and afterwards pay one
// relaxed atomic add:
//
//     static obs::Counter& scans = obs::counter("sweep.deltas_evaluated");
//     scans.add();
//
// Metric names are stable API once shipped — the catalogue lives in
// docs/observability.md.  snapshot() merges every shard into a plain
// value table; natscale::metrics_snapshot_json serializes it as a
// schema-1 document.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace natscale::obs {

/// Shard count for sharded instruments (power of two).  More shards
/// than typical worker-thread counts so concurrent adds rarely collide.
inline constexpr std::size_t kMetricShards = 16;

/// Stable small integer id for the calling thread, used to pick a shard
/// (and as the "tid" of trace events).  Assigned on first use.
std::size_t thread_ordinal() noexcept;

namespace detail {
struct alignas(64) PaddedCell {
    std::atomic<std::uint64_t> value{0};
};
}  // namespace detail

class Counter {
public:
    void add(std::uint64_t n = 1) noexcept {
        cells_[thread_ordinal() & (kMetricShards - 1)].value.fetch_add(
            n, std::memory_order_relaxed);
    }

    /// Merged value across all shards (each shard read relaxed).
    std::uint64_t read() const noexcept {
        std::uint64_t total = 0;
        for (const auto& cell : cells_) {
            total += cell.value.load(std::memory_order_relaxed);
        }
        return total;
    }

private:
    std::array<detail::PaddedCell, kMetricShards> cells_;
};

class Gauge {
public:
    void set(std::int64_t value) noexcept {
        value_.store(value, std::memory_order_relaxed);
    }
    void add(std::int64_t delta) noexcept {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::int64_t read() const noexcept {
        return value_.load(std::memory_order_relaxed);
    }

private:
    std::atomic<std::int64_t> value_{0};
};

/// Latency histogram over fixed power-of-two nanosecond buckets: bucket
/// 0 counts 0 ns samples, bucket 1 counts 1 ns, and bucket k >= 2 counts
/// samples in [2^(k-1), 2^k) ns — the bucket index is bit_width(nanos) —
/// with the last bucket open-ended (>= ~17 s).  Bucket edges never move,
/// so two snapshots subtract meaningfully.
class LatencyHistogram {
public:
    static constexpr std::size_t kBuckets = 36;

    void record(std::uint64_t nanos) noexcept {
        const std::size_t shard = thread_ordinal() & (kMetricShards - 1);
        shards_[shard].buckets[bucket_of(nanos)].fetch_add(
            1, std::memory_order_relaxed);
        shards_[shard].sum_nanos.fetch_add(nanos, std::memory_order_relaxed);
    }

    static std::size_t bucket_of(std::uint64_t nanos) noexcept {
        if (nanos < 2) return nanos;  // 0 and 1 get their own buckets
        std::size_t bucket = 64 - static_cast<std::size_t>(
                                      __builtin_clzll(nanos));
        return bucket < kBuckets ? bucket : kBuckets - 1;
    }

    /// Merged per-bucket counts.
    std::array<std::uint64_t, kBuckets> read_buckets() const noexcept {
        std::array<std::uint64_t, kBuckets> merged{};
        for (const auto& shard : shards_) {
            for (std::size_t b = 0; b < kBuckets; ++b) {
                merged[b] += shard.buckets[b].load(std::memory_order_relaxed);
            }
        }
        return merged;
    }

    std::uint64_t read_count() const noexcept {
        std::uint64_t total = 0;
        for (const auto bucket : read_buckets()) total += bucket;
        return total;
    }

    std::uint64_t read_sum_nanos() const noexcept {
        std::uint64_t total = 0;
        for (const auto& shard : shards_) {
            total += shard.sum_nanos.load(std::memory_order_relaxed);
        }
        return total;
    }

private:
    struct alignas(64) Shard {
        std::array<std::atomic<std::uint64_t>, kBuckets> buckets{};
        std::atomic<std::uint64_t> sum_nanos{0};
    };
    std::array<Shard, kMetricShards> shards_;
};

/// Point-in-time merged view of every registered instrument, sorted by
/// name so two snapshots of identical state serialize identically.
struct MetricsSnapshot {
    struct CounterValue {
        std::string name;
        std::uint64_t value = 0;
    };
    struct GaugeValue {
        std::string name;
        std::int64_t value = 0;
    };
    struct HistogramValue {
        std::string name;
        std::uint64_t count = 0;
        std::uint64_t sum_nanos = 0;
        std::array<std::uint64_t, LatencyHistogram::kBuckets> buckets{};
    };
    std::vector<CounterValue> counters;
    std::vector<GaugeValue> gauges;
    std::vector<HistogramValue> histograms;
};

/// Interns `name` in the process-wide registry (creating the instrument
/// on first use) and returns a reference that stays valid forever.
/// Registration takes a mutex; cache the reference on hot paths.
Counter& counter(std::string_view name);
Gauge& gauge(std::string_view name);
LatencyHistogram& histogram(std::string_view name);

/// Merges every registered instrument into a value table.
MetricsSnapshot metrics_snapshot();

}  // namespace natscale::obs
