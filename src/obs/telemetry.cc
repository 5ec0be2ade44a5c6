#include "obs/telemetry.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "common/check.h"
#include "common/mutex.h"
#include "common/parallel.h"

namespace adamel::obs {

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local int index = next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

// -- Series -----------------------------------------------------------------

void Series::Append(double value) {
  SpinLockGuard guard(spin_);
  if (values_.size() < kMaxValues) {
    values_.push_back(value);
  }
}

std::vector<double> Series::Values() const {
  SpinLockGuard guard(spin_);
  return values_;
}

void Series::Reset() {
  SpinLockGuard guard(spin_);
  values_.clear();
}

// -- Histogram --------------------------------------------------------------

Histogram::Histogram(std::vector<double> upper_bounds)
    : upper_bounds_(std::move(upper_bounds)),
      counts_(upper_bounds_.size() + 1) {
  ADAMEL_CHECK(std::is_sorted(upper_bounds_.begin(), upper_bounds_.end()))
      << "histogram bounds must be ascending";
}

void Histogram::Record(double value) {
  const size_t bucket =
      std::upper_bound(upper_bounds_.begin(), upper_bounds_.end(), value) -
      upper_bounds_.begin();
  counts_[bucket].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  // fetch_add on atomic<double> needs C++20 hardware support; CAS-loop keeps
  // this portable. Contention is negligible (latency recording, not inner
  // loops).
  double expected = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(expected, expected + value,
                                     std::memory_order_relaxed)) {
  }
}

int64_t Histogram::bucket_count(size_t i) const {
  ADAMEL_CHECK_LT(i, counts_.size());
  return counts_[i].load(std::memory_order_relaxed);
}

int64_t Histogram::total_count() const {
  return total_.load(std::memory_order_relaxed);
}

double Histogram::sum() const { return sum_.load(std::memory_order_relaxed); }

void Histogram::Reset() {
  for (auto& count : counts_) {
    count.store(0, std::memory_order_relaxed);
  }
  total_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

const std::vector<double>& DefaultLatencyBoundsNs() {
  static const std::vector<double> bounds = {
      1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10};
  return bounds;
}

const std::vector<double>& DefaultCountBoundsPow2() {
  static const std::vector<double> bounds = {1,  2,   4,   8,   16,  32,
                                             64, 128, 256, 512, 1024, 2048};
  return bounds;
}

const std::vector<double>& FineLatencyBoundsNs() {
  static const std::vector<double> bounds = [] {
    std::vector<double> grid;
    // Geometric grid 1us .. 10s, ratio 2^(1/4). Bounds are computed as
    // exact powers so the grid is identical on every platform.
    const double ratio = std::pow(2.0, 0.25);
    double bound = 1e3;
    while (bound <= 1e10) {
      grid.push_back(bound);
      bound *= ratio;
    }
    return grid;
  }();
  return bounds;
}

const std::vector<double>& ScoreDeltaBounds() {
  static const std::vector<double> bounds = [] {
    std::vector<double> grid;
    // Geometric grid 1e-6 .. 1, ratio 10^(1/10). Scores are probabilities,
    // so |delta| <= 1 and the +inf bucket stays empty by construction.
    const double ratio = std::pow(10.0, 0.1);
    double bound = 1e-6;
    while (bound <= 1.0 + 1e-12) {
      grid.push_back(bound);
      bound *= ratio;
    }
    return grid;
  }();
  return bounds;
}

// -- TimerStat --------------------------------------------------------------

void TimerStat::Record(int64_t duration_ns) {
  Cell& cell = cells_[static_cast<size_t>(ThreadIndex() % kStripes)];
  cell.count.fetch_add(1, std::memory_order_relaxed);
  cell.total_ns.fetch_add(duration_ns, std::memory_order_relaxed);
  int64_t seen = cell.max_ns.load(std::memory_order_relaxed);
  while (duration_ns > seen &&
         !cell.max_ns.compare_exchange_weak(seen, duration_ns,
                                            std::memory_order_relaxed)) {
  }
}

int64_t TimerStat::count() const {
  int64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.count.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t TimerStat::total_ns() const {
  int64_t total = 0;
  for (const Cell& cell : cells_) {
    total += cell.total_ns.load(std::memory_order_relaxed);
  }
  return total;
}

int64_t TimerStat::max_ns() const {
  int64_t max = 0;
  for (const Cell& cell : cells_) {
    max = std::max(max, cell.max_ns.load(std::memory_order_relaxed));
  }
  return max;
}

void TimerStat::Reset() {
  for (Cell& cell : cells_) {
    cell.count.store(0, std::memory_order_relaxed);
    cell.total_ns.store(0, std::memory_order_relaxed);
    cell.max_ns.store(0, std::memory_order_relaxed);
  }
}

// -- Phase profiler ---------------------------------------------------------

const char* PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kFeaturize:
      return "featurize";
    case Phase::kEmbed:
      return "embed";
    case Phase::kForward:
      return "forward";
    case Phase::kBackward:
      return "backward";
    case Phase::kOptimizer:
      return "optimizer";
    case Phase::kEval:
      return "eval";
    case Phase::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

PhaseProfiler& PhaseProfiler::Global() {
  // adamel-lint: allow-next-line(raw-new) -- leaky singleton, never torn down
  static PhaseProfiler* profiler = new PhaseProfiler();
  return *profiler;
}

std::array<int64_t, kPhaseCount> PhaseProfiler::ExclusiveNs() const {
  std::array<int64_t, kPhaseCount> out{};
  for (int i = 0; i < kPhaseCount; ++i) {
    out[static_cast<size_t>(i)] =
        totals_[static_cast<size_t>(i)].load(std::memory_order_relaxed);
  }
  return out;
}

void PhaseProfiler::Reset() {
  for (auto& total : totals_) {
    total.store(0, std::memory_order_relaxed);
  }
}

namespace {

// Per-thread stack of open phases. Elapsed time is charged to the top
// phase; pushing a nested phase first flushes the parent's elapsed span so
// attribution is exclusive.
struct PhaseFrame {
  Phase phase;
};

struct PhaseStack {
  static constexpr int kMaxDepth = 32;
  PhaseFrame frames[kMaxDepth];
  int depth = 0;
  // NowNanos() at the last attribution boundary (push/pop).
  int64_t last_ns = 0;
};

thread_local PhaseStack tls_phase_stack;

void FlushTopPhase(int64_t now_ns) {
  PhaseStack& stack = tls_phase_stack;
  if (stack.depth > 0) {
    const int64_t elapsed = now_ns - stack.last_ns;
    if (elapsed > 0) {
      PhaseProfiler::Global().Add(stack.frames[stack.depth - 1].phase,
                                  elapsed);
    }
  }
  stack.last_ns = now_ns;
}

}  // namespace

PhaseScope::PhaseScope(Phase phase) : active_(false) {
  if (InParallelRegion()) {
    // Pool workers run concurrently with the orchestrating thread; charging
    // their time too would push the phase sum past wall time.
    return;
  }
  PhaseStack& stack = tls_phase_stack;
  if (stack.depth >= PhaseStack::kMaxDepth) {
    return;
  }
  const int64_t now = NowNanos();
  FlushTopPhase(now);
  stack.frames[stack.depth].phase = phase;
  ++stack.depth;
  active_ = true;
}

PhaseScope::~PhaseScope() {
  if (!active_) {
    return;
  }
  PhaseStack& stack = tls_phase_stack;
  const int64_t now = NowNanos();
  FlushTopPhase(now);
  --stack.depth;
}

// -- Registry ---------------------------------------------------------------

struct Registry::Impl {
  /// Rank 6 (leaf) in the lock hierarchy (DESIGN.md §8.4): guards only the
  /// lookup maps; metric mutation is lock-free atomics on stable pointers.
  mutable Mutex mutex;
  // std::map keeps snapshot order name-sorted with zero work at capture
  // time. Values are unique_ptrs so metric addresses are stable across
  // rehash-free inserts and live for the process lifetime.
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters
      ADAMEL_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges
      ADAMEL_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Series>, std::less<>> series
      ADAMEL_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<TimerStat>, std::less<>> timers
      ADAMEL_GUARDED_BY(mutex);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms
      ADAMEL_GUARDED_BY(mutex);
};

Registry& Registry::Global() {
  // adamel-lint: allow-next-line(raw-new) -- leaky singleton, never torn down
  static Registry* registry = new Registry();
  return *registry;
}

Registry::Impl& Registry::impl() const {
  // adamel-lint: allow-next-line(raw-new) -- leaky singleton, never torn down
  static Impl* impl = new Impl();
  return *impl;
}

Counter* Registry::GetCounter(std::string_view name) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  auto it = state.counters.find(name);
  if (it == state.counters.end()) {
    it = state.counters
             .emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* Registry::GetGauge(std::string_view name) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  auto it = state.gauges.find(name);
  if (it == state.gauges.end()) {
    it = state.gauges.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

Series* Registry::GetSeries(std::string_view name) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  auto it = state.series.find(name);
  if (it == state.series.end()) {
    it = state.series.emplace(std::string(name), std::make_unique<Series>())
             .first;
  }
  return it->second.get();
}

TimerStat* Registry::GetTimer(std::string_view name) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  auto it = state.timers.find(name);
  if (it == state.timers.end()) {
    it = state.timers
             .emplace(std::string(name), std::make_unique<TimerStat>())
             .first;
  }
  return it->second.get();
}

Histogram* Registry::GetHistogram(std::string_view name,
                                  const std::vector<double>& upper_bounds) {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  auto it = state.histograms.find(name);
  if (it == state.histograms.end()) {
    it = state.histograms
             .emplace(std::string(name),
                      std::make_unique<Histogram>(upper_bounds))
             .first;
  }
  return it->second.get();
}

TelemetrySnapshot Registry::Snapshot() const {
  Impl& state = impl();
  TelemetrySnapshot snapshot;
  MutexLock lock(state.mutex);
  snapshot.counters.reserve(state.counters.size());
  for (const auto& [name, counter] : state.counters) {
    snapshot.counters.push_back({name, counter->value()});
  }
  snapshot.gauges.reserve(state.gauges.size());
  for (const auto& [name, gauge] : state.gauges) {
    snapshot.gauges.push_back({name, gauge->value()});
  }
  snapshot.series.reserve(state.series.size());
  for (const auto& [name, series] : state.series) {
    snapshot.series.push_back({name, series->Values()});
  }
  snapshot.timers.reserve(state.timers.size());
  for (const auto& [name, timer] : state.timers) {
    snapshot.timers.push_back(
        {name, timer->count(), timer->total_ns(), timer->max_ns()});
  }
  snapshot.histograms.reserve(state.histograms.size());
  for (const auto& [name, histogram] : state.histograms) {
    HistogramSnapshot hs;
    hs.name = name;
    hs.upper_bounds = histogram->upper_bounds();
    hs.bucket_counts.resize(hs.upper_bounds.size() + 1);
    for (size_t i = 0; i < hs.bucket_counts.size(); ++i) {
      hs.bucket_counts[i] = histogram->bucket_count(i);
    }
    hs.count = histogram->total_count();
    hs.sum = histogram->sum();
    snapshot.histograms.push_back(std::move(hs));
  }
  const std::array<int64_t, kPhaseCount> phase_ns =
      PhaseProfiler::Global().ExclusiveNs();
  snapshot.phases.reserve(kPhaseCount);
  for (int i = 0; i < kPhaseCount; ++i) {
    snapshot.phases.push_back({PhaseName(static_cast<Phase>(i)),
                               phase_ns[static_cast<size_t>(i)]});
  }
  return snapshot;
}

void Registry::ResetAllForTest() {
  Impl& state = impl();
  MutexLock lock(state.mutex);
  for (auto& [name, counter] : state.counters) {
    counter->Reset();
  }
  for (auto& [name, gauge] : state.gauges) {
    gauge->Reset();
  }
  for (auto& [name, series] : state.series) {
    series->Reset();
  }
  for (auto& [name, timer] : state.timers) {
    timer->Reset();
  }
  for (auto& [name, histogram] : state.histograms) {
    histogram->Reset();
  }
  PhaseProfiler::Global().Reset();
}

TelemetrySnapshot CaptureSnapshot() { return Registry::Global().Snapshot(); }

}  // namespace adamel::obs
