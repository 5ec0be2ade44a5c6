#ifndef ADAMEL_OBS_TELEMETRY_H_
#define ADAMEL_OBS_TELEMETRY_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "obs/clock.h"

/// Telemetry subsystem: typed counters, gauges, per-epoch series, latency
/// histograms, and scoped timers in a process-wide registry, plus a phase
/// profiler that attributes wall time to pipeline stages.
///
/// Design contract (see DESIGN.md §9):
///  - Instrumentation never perturbs training: no RNG draws, no change to
///    any computed value, no reordering of floating-point work. Removing
///    every macro yields a bitwise-identical run.
///  - `ADAMEL_TELEMETRY=OFF` (CMake) compiles every macro to a no-op, so
///    the default-build perf and determinism guarantees hold by
///    construction. The obs library itself still builds (benches link it to
///    emit an `{"enabled": false}` block).
///  - All mutation paths are lock-free after first touch (atomics; timer
///    stats are striped across cache lines by thread), so instrumented hot
///    paths stay safe and cheap under the `common/parallel` pool. Merges
///    are sums of per-stripe integers combined in fixed stripe order, so a
///    snapshot is deterministic given the recorded values.

// CMake defines ADAMEL_TELEMETRY_ENABLED=0 for -DADAMEL_TELEMETRY=OFF
// builds; default to enabled when built without the option (plain compiler
// invocation, IDE indexers).
#ifndef ADAMEL_TELEMETRY_ENABLED
#define ADAMEL_TELEMETRY_ENABLED 1
#endif

namespace adamel::obs {

/// True in builds where the telemetry macros are live. Tests use this to
/// skip assertions about instrumentation output in OFF builds.
inline constexpr bool kTelemetryEnabled = ADAMEL_TELEMETRY_ENABLED != 0;

/// Stable small index (0, 1, 2, ...) for the calling thread, assigned on
/// first use. Used to stripe timer cells; exposed for tests.
int ThreadIndex();

/// Monotonically increasing integer total. Concurrent `Add`s are relaxed
/// atomic adds: cheap, thread-safe, and order-independent (integer addition
/// commutes), so totals are deterministic for deterministic workloads.
class Counter {
 public:
  void Add(int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Last-written double value (per-epoch loss, cache hit rate, ...).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Append-only sequence of doubles (one value per epoch/step), for
/// trajectories like the per-epoch loss curve or grad-norm history.
/// Appends take a per-series spinlock — series record at epoch granularity,
/// never inside hot loops — and the length is capped so a runaway loop
/// cannot grow the registry without bound.
class Series {
 public:
  static constexpr size_t kMaxValues = 65536;

  void Append(double value);
  std::vector<double> Values() const;
  void Reset();

 private:
  mutable SpinLock spin_;  // appends are rare; critical section is tiny
  std::vector<double> values_ ADAMEL_GUARDED_BY(spin_);
};

/// Fixed-bucket histogram. Bucket upper bounds are set at creation and
/// never change; counts are atomic. The last implicit bucket is +inf.
class Histogram {
 public:
  explicit Histogram(std::vector<double> upper_bounds);

  void Record(double value);

  const std::vector<double>& upper_bounds() const { return upper_bounds_; }
  /// Count in bucket `i` (i == upper_bounds().size() is the +inf bucket).
  int64_t bucket_count(size_t i) const;
  int64_t total_count() const;
  double sum() const;
  void Reset();

 private:
  std::vector<double> upper_bounds_;  // ascending
  std::vector<std::atomic<int64_t>> counts_;
  std::atomic<int64_t> total_{0};
  std::atomic<double> sum_{0.0};
};

/// Default histogram bounds for durations in nanoseconds: decades from 1us
/// to 10s.
const std::vector<double>& DefaultLatencyBoundsNs();

/// Default histogram bounds for small counts (batch sizes, queue depths):
/// powers of two from 1 to 2048.
const std::vector<double>& DefaultCountBoundsPow2();

/// Fine-grained duration bounds for percentile estimation: a geometric grid
/// from 1us to 10s with ~12 buckets per decade (ratio 2^(1/4) ≈ 1.19), so a
/// percentile read from bucket edges is within ~19% of the true value. Use
/// these for histograms whose percentiles are read back (the lifecycle's
/// shadow-scoring latencies); the coarse decade grid of
/// `DefaultLatencyBoundsNs` is for order-of-magnitude telemetry only.
const std::vector<double>& FineLatencyBoundsNs();

/// Bounds for absolute score deltas (candidate vs incumbent probabilities in
/// shadow scoring): a geometric grid from 1e-6 to 1 with ~10 buckets per
/// decade, so the delta histogram resolves both float-noise-level deltas
/// (~1e-6) and model-divergence-level deltas (~1e-1) on one axis.
const std::vector<double>& ScoreDeltaBounds();

/// Aggregated durations for one named scope. Cells are striped by
/// `ThreadIndex() % kStripes` and cache-line aligned, so concurrent scope
/// exits from pool workers never contend on one line; reads sum the
/// stripes in fixed index order.
class TimerStat {
 public:
  void Record(int64_t duration_ns);

  int64_t count() const;
  int64_t total_ns() const;
  int64_t max_ns() const;
  void Reset();

 private:
  static constexpr int kStripes = 16;
  struct alignas(64) Cell {
    std::atomic<int64_t> count{0};
    std::atomic<int64_t> total_ns{0};
    std::atomic<int64_t> max_ns{0};
  };
  std::array<Cell, kStripes> cells_;
};

/// RAII timer: records NowNanos() elapsed between construction and
/// destruction into a TimerStat. Use via ADAMEL_TRACE_SCOPE.
class ScopedTimer {
 public:
  explicit ScopedTimer(TimerStat* stat)
      : stat_(stat), start_ns_(NowNanos()) {}
  ~ScopedTimer() { stat_->Record(NowNanos() - start_ns_); }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
  TimerStat* stat_;
  int64_t start_ns_;
};

// -- Phase profiler ---------------------------------------------------------

/// Pipeline stages wall time is attributed to. Fixed enum (not strings) so
/// a phase switch is two TLS loads and an atomic add.
enum class Phase : int {
  kFeaturize = 0,  // FeatureExtractor::Featurize (tokenize + embed + pack)
  kEmbed,          // top-level token-embedding calls outside featurization
  kForward,        // model forward passes + loss construction
  kBackward,       // autograd reverse sweeps
  kOptimizer,      // ZeroGrad + grad clipping + parameter updates
  kEval,           // scoring/prediction and metric computation
  kCheckpoint,     // checkpoint serialization and file IO
};
inline constexpr int kPhaseCount = 7;

/// Stable lowercase name ("featurize", "embed", ...).
const char* PhaseName(Phase phase);

/// Process-wide exclusive-time accumulator per phase.
///
/// Attribution model: each thread keeps a stack of open phases; elapsed
/// time is always charged to the innermost open phase, so nested scopes
/// never double-count and the per-phase totals of one orchestrating thread
/// sum to (at most) its wall time. Scopes opened while the calling thread
/// is executing `ParallelFor` chunks are ignored entirely — pool workers
/// run concurrently with the orchestrating thread, and charging their time
/// too would make the phase sum exceed wall time. Worker-side detail
/// belongs in counters and trace timers, which aggregate thread-time
/// explicitly.
class PhaseProfiler {
 public:
  static PhaseProfiler& Global();

  /// Exclusive nanoseconds charged to each phase so far.
  std::array<int64_t, kPhaseCount> ExclusiveNs() const;

  void Add(Phase phase, int64_t ns) {
    totals_[static_cast<int>(phase)].fetch_add(ns,
                                               std::memory_order_relaxed);
  }

  void Reset();

 private:
  PhaseProfiler() = default;
  std::array<std::atomic<int64_t>, kPhaseCount> totals_{};
};

/// RAII phase scope (use via ADAMEL_PHASE_SCOPE). No-op on threads inside a
/// ParallelFor region; see PhaseProfiler for the attribution model.
class PhaseScope {
 public:
  explicit PhaseScope(Phase phase);
  ~PhaseScope();

  PhaseScope(const PhaseScope&) = delete;
  PhaseScope& operator=(const PhaseScope&) = delete;

 private:
  bool active_;
};

// -- Registry ---------------------------------------------------------------

/// Snapshot structs: plain values, detached from the live metrics.
struct CounterSnapshot {
  std::string name;
  int64_t value = 0;
};
struct GaugeSnapshot {
  std::string name;
  double value = 0.0;
};
struct SeriesSnapshot {
  std::string name;
  std::vector<double> values;
};
struct TimerSnapshot {
  std::string name;
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t max_ns = 0;
};
struct HistogramSnapshot {
  std::string name;
  std::vector<double> upper_bounds;
  std::vector<int64_t> bucket_counts;  // size = upper_bounds.size() + 1
  int64_t count = 0;
  double sum = 0.0;
};
struct PhaseSnapshot {
  std::string name;
  int64_t exclusive_ns = 0;
};

/// Everything the process has recorded, in deterministic (name-sorted /
/// enum) order. `enabled` records whether the build had live macros.
struct TelemetrySnapshot {
  bool enabled = kTelemetryEnabled;
  std::vector<CounterSnapshot> counters;
  std::vector<GaugeSnapshot> gauges;
  std::vector<SeriesSnapshot> series;
  std::vector<TimerSnapshot> timers;
  std::vector<HistogramSnapshot> histograms;
  std::vector<PhaseSnapshot> phases;
};

/// Process-wide metric registry. Lookup-or-create takes a mutex but every
/// macro caches the returned pointer in a function-local static, so each
/// call site pays the lock exactly once per process. Metrics are never
/// destroyed; `ResetAllForTest` zeroes values in place so cached pointers
/// stay valid.
class Registry {
 public:
  static Registry& Global();

  Counter* GetCounter(std::string_view name);
  Gauge* GetGauge(std::string_view name);
  Series* GetSeries(std::string_view name);
  TimerStat* GetTimer(std::string_view name);
  /// `upper_bounds` applies on first creation only (later callers get the
  /// existing histogram regardless of bounds).
  Histogram* GetHistogram(std::string_view name,
                          const std::vector<double>& upper_bounds);

  /// Captures registry metrics + phase totals, name-sorted.
  TelemetrySnapshot Snapshot() const;

  /// Zeroes every registered metric and the phase profiler. Metric objects
  /// survive (cached call-site pointers stay valid).
  void ResetAllForTest();

 private:
  Registry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Convenience: Registry::Global().Snapshot().
TelemetrySnapshot CaptureSnapshot();

}  // namespace adamel::obs

// -- Instrumentation macros -------------------------------------------------
//
// All macros are statements. With ADAMEL_TELEMETRY=OFF every macro expands
// to `((void)0)` — arguments are not evaluated, so instrumentation must
// only pass expressions whose evaluation the surrounding code does not
// depend on.

#define ADAMEL_OBS_CONCAT_INNER_(a, b) a##b
#define ADAMEL_OBS_CONCAT_(a, b) ADAMEL_OBS_CONCAT_INNER_(a, b)

#if ADAMEL_TELEMETRY_ENABLED

#define ADAMEL_COUNTER_ADD(name, delta)                                     \
  do {                                                                      \
    static ::adamel::obs::Counter* ADAMEL_OBS_CONCAT_(adamel_counter_,      \
                                                      __LINE__) =           \
        ::adamel::obs::Registry::Global().GetCounter(name);                 \
    ADAMEL_OBS_CONCAT_(adamel_counter_, __LINE__)->Add(delta);              \
  } while (0)

#define ADAMEL_GAUGE_SET(name, value)                                      \
  do {                                                                     \
    static ::adamel::obs::Gauge* ADAMEL_OBS_CONCAT_(adamel_gauge_,         \
                                                    __LINE__) =            \
        ::adamel::obs::Registry::Global().GetGauge(name);                  \
    ADAMEL_OBS_CONCAT_(adamel_gauge_, __LINE__)->Set(value);               \
  } while (0)

#define ADAMEL_SERIES_APPEND(name, value)                                  \
  do {                                                                     \
    static ::adamel::obs::Series* ADAMEL_OBS_CONCAT_(adamel_series_,       \
                                                     __LINE__) =           \
        ::adamel::obs::Registry::Global().GetSeries(name);                 \
    ADAMEL_OBS_CONCAT_(adamel_series_, __LINE__)->Append(value);           \
  } while (0)

#define ADAMEL_HISTOGRAM_RECORD(name, value)                               \
  do {                                                                     \
    static ::adamel::obs::Histogram* ADAMEL_OBS_CONCAT_(                   \
        adamel_histogram_, __LINE__) =                                     \
        ::adamel::obs::Registry::Global().GetHistogram(                    \
            name, ::adamel::obs::DefaultLatencyBoundsNs());                \
    ADAMEL_OBS_CONCAT_(adamel_histogram_, __LINE__)->Record(value);        \
  } while (0)

/// Like ADAMEL_HISTOGRAM_RECORD with explicit bucket upper bounds (a
/// `std::vector<double>` expression; applied on first creation only). For
/// non-duration quantities, e.g. serving batch sizes.
#define ADAMEL_HISTOGRAM_RECORD_BOUNDS(name, bounds, value)                \
  do {                                                                     \
    static ::adamel::obs::Histogram* ADAMEL_OBS_CONCAT_(                   \
        adamel_histogram_, __LINE__) =                                     \
        ::adamel::obs::Registry::Global().GetHistogram(name, bounds);      \
    ADAMEL_OBS_CONCAT_(adamel_histogram_, __LINE__)->Record(value);        \
  } while (0)

/// RAII: times the rest of the enclosing block into timer `name`.
#define ADAMEL_TRACE_SCOPE(name)                                           \
  static ::adamel::obs::TimerStat* ADAMEL_OBS_CONCAT_(adamel_timer_site_,  \
                                                      __LINE__) =          \
      ::adamel::obs::Registry::Global().GetTimer(name);                    \
  ::adamel::obs::ScopedTimer ADAMEL_OBS_CONCAT_(adamel_timer_scope_,       \
                                                __LINE__)(                 \
      ADAMEL_OBS_CONCAT_(adamel_timer_site_, __LINE__))

/// RAII: attributes the rest of the enclosing block to `phase`
/// (::adamel::obs::Phase::k...).
#define ADAMEL_PHASE_SCOPE(phase)                                          \
  ::adamel::obs::PhaseScope ADAMEL_OBS_CONCAT_(adamel_phase_scope_,        \
                                               __LINE__)(phase)

#else  // !ADAMEL_TELEMETRY_ENABLED

#define ADAMEL_COUNTER_ADD(name, delta) ((void)0)
#define ADAMEL_GAUGE_SET(name, value) ((void)0)
#define ADAMEL_SERIES_APPEND(name, value) ((void)0)
#define ADAMEL_HISTOGRAM_RECORD(name, value) ((void)0)
#define ADAMEL_HISTOGRAM_RECORD_BOUNDS(name, bounds, value) ((void)0)
#define ADAMEL_TRACE_SCOPE(name) ((void)0)
#define ADAMEL_PHASE_SCOPE(phase) ((void)0)

#endif  // ADAMEL_TELEMETRY_ENABLED

#endif  // ADAMEL_OBS_TELEMETRY_H_
