#include "obs/metrics.hpp"

#include <algorithm>

#include "obs/trace.hpp"
#include "support/bench_json.hpp"

namespace privagic::obs {

void set_metrics_enabled(bool on) {
  if (on) restart_request_sampling();
  detail::metrics_enabled.store(on, std::memory_order_relaxed);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot s;
  std::uint64_t counts[kBuckets] = {};
  for (const Shard& sh : shards_) {
    for (int i = 0; i < kBuckets; ++i) {
      counts[i] += sh.buckets[i].load(std::memory_order_relaxed);
    }
    s.sum += sh.sum.load(std::memory_order_relaxed);
    s.max = std::max(s.max, sh.max.load(std::memory_order_relaxed));
  }
  for (const std::uint64_t c : counts) s.count += c;  // one inc per record
  s.mean = s.count != 0 ? static_cast<double>(s.sum) / static_cast<double>(s.count) : 0.0;
  // Quantiles from the bucket CDF; a bucket's upper bound is 2^i - 1.
  const auto quantile = [&](double q) -> std::uint64_t {
    if (s.count == 0) return 0;
    const auto target = static_cast<std::uint64_t>(q * static_cast<double>(s.count));
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
      seen += counts[i];
      if (seen > target) {
        return i >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << i) - 1;
      }
    }
    return s.max;
  };
  s.p50 = quantile(0.50);
  s.p99 = quantile(0.99);
  return s;
}

void Histogram::reset() {
  for (auto& sh : shards_) {
    for (auto& b : sh.buckets) b.store(0, std::memory_order_relaxed);
    sh.sum.store(0, std::memory_order_relaxed);
    sh.max.store(0, std::memory_order_relaxed);
  }
}

void PerColorCounter::reset() {
  for (auto& s : slots_) s.reset();
  overflow_.reset();
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Histogram& MetricsRegistry::histogram(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

PerColorCounter& MetricsRegistry::per_color(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& slot = per_color_[name];
  if (slot == nullptr) slot = std::make_unique<PerColorCounter>();
  return *slot;
}

std::vector<MetricsRegistry::Row> MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<Row> rows;
  const auto add = [&rows](std::string name, double value, bool integral = true) {
    rows.push_back(Row{std::move(name), value, integral});
  };
  for (const auto& [name, c] : counters_) {
    add(name, static_cast<double>(c->value()));
  }
  for (const auto& [name, pc] : per_color_) {
    for (std::int64_t color = 0; color < PerColorCounter::kMaxColors; ++color) {
      const std::uint64_t v = pc->value(color);
      if (v != 0) add(name + ".color" + std::to_string(color), static_cast<double>(v));
    }
    if (pc->overflow() != 0) {
      add(name + ".color_overflow", static_cast<double>(pc->overflow()));
    }
  }
  for (const auto& [name, h] : histograms_) {
    const Histogram::Snapshot s = h->snapshot();
    add(name + ".count", static_cast<double>(s.count));
    add(name + ".sum", static_cast<double>(s.sum));
    add(name + ".mean", s.mean, /*integral=*/false);
    add(name + ".max", static_cast<double>(s.max));
    add(name + ".p50", static_cast<double>(s.p50));
    add(name + ".p99", static_cast<double>(s.p99));
  }
  return rows;
}

void MetricsRegistry::reset_all() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& entry : counters_) entry.second->reset();
  for (auto& entry : histograms_) entry.second->reset();
  for (auto& entry : per_color_) entry.second->reset();
}

void embed_metrics(support::BenchJsonWriter& json, const MetricsRegistry& registry) {
  for (const MetricsRegistry::Row& row : registry.snapshot()) {
    if (row.integral) {
      json.metric(row.name, static_cast<std::uint64_t>(row.value));
    } else {
      json.metric(row.name, row.value);
    }
  }
}

}  // namespace privagic::obs
