// Tests for the src/obs telemetry layer: metric semantics, registry
// find-or-create with stable pointers, exact timer/phase attribution under
// ScopedFakeClock, snapshot determinism of the JSON/CSV exporters, the
// FlatJsonParse reader, and concurrent mutation from the thread pool (the
// TSan CI job runs this binary specifically for the concurrency suite).
//
// The direct class APIs exist in both ADAMEL_TELEMETRY=ON and =OFF builds;
// only the macros compile out, so macro tests branch on kTelemetryEnabled.

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "obs/clock.h"
#include "obs/export.h"
#include "obs/telemetry.h"

namespace adamel {
namespace {

const obs::CounterSnapshot* FindCounter(const obs::TelemetrySnapshot& snapshot,
                                        const std::string& name) {
  for (const obs::CounterSnapshot& c : snapshot.counters) {
    if (c.name == name) {
      return &c;
    }
  }
  return nullptr;
}

const obs::SeriesSnapshot* FindSeries(const obs::TelemetrySnapshot& snapshot,
                                      const std::string& name) {
  for (const obs::SeriesSnapshot& s : snapshot.series) {
    if (s.name == name) {
      return &s;
    }
  }
  return nullptr;
}

const obs::TimerSnapshot* FindTimer(const obs::TelemetrySnapshot& snapshot,
                                    const std::string& name) {
  for (const obs::TimerSnapshot& t : snapshot.timers) {
    if (t.name == name) {
      return &t;
    }
  }
  return nullptr;
}

// -- clock -------------------------------------------------------------------

TEST(ObsClock, RealClockIsMonotonic) {
  const int64_t first = obs::NowNanos();
  const int64_t second = obs::NowNanos();
  EXPECT_GE(second, first);
}

TEST(ObsClock, FakeClockControlsNowNanos) {
  obs::ScopedFakeClock clock;
  EXPECT_EQ(obs::NowNanos(), 0);
  clock.Advance(5);
  EXPECT_EQ(obs::NowNanos(), 5);
  clock.Advance(0);
  EXPECT_EQ(obs::NowNanos(), 5);
  clock.Set(1000);
  EXPECT_EQ(obs::NowNanos(), 1000);
  EXPECT_EQ(clock.now_ns(), 1000);
}

TEST(ObsClock, RealClockResumesAfterFakeScope) {
  {
    obs::ScopedFakeClock clock;
    clock.Set(42);
    EXPECT_EQ(obs::NowNanos(), 42);
  }
  // Back on the hardware clock: values are large and strictly advance past
  // any plausible fake value.
  EXPECT_GT(obs::NowNanos(), 42);
}

// -- metric primitives -------------------------------------------------------

TEST(ObsMetrics, CounterAddsAndResets) {
  obs::Counter counter;
  EXPECT_EQ(counter.value(), 0);
  counter.Add(3);
  counter.Add(4);
  EXPECT_EQ(counter.value(), 7);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0);
}

TEST(ObsMetrics, GaugeKeepsLastValue) {
  obs::Gauge gauge;
  gauge.Set(0.25);
  gauge.Set(-3.5);
  EXPECT_EQ(gauge.value(), -3.5);
  gauge.Reset();
  EXPECT_EQ(gauge.value(), 0.0);
}

TEST(ObsMetrics, SeriesAppendsInOrderAndCaps) {
  obs::Series series;
  series.Append(1.0);
  series.Append(2.0);
  series.Append(3.0);
  EXPECT_EQ(series.Values(), (std::vector<double>{1.0, 2.0, 3.0}));
  series.Reset();
  EXPECT_TRUE(series.Values().empty());

  // The length cap bounds a runaway loop; extra appends are dropped.
  for (size_t i = 0; i < obs::Series::kMaxValues + 10; ++i) {
    series.Append(static_cast<double>(i));
  }
  EXPECT_EQ(series.Values().size(), obs::Series::kMaxValues);
}

TEST(ObsMetrics, HistogramBucketsByUpperBound) {
  obs::Histogram histogram({1.0, 10.0, 100.0});
  histogram.Record(0.5);     // < 1       -> bucket 0
  histogram.Record(5.0);     // [1, 10)   -> bucket 1
  histogram.Record(10.0);    // == bound  -> next bucket (bounds exclusive)
  histogram.Record(50.0);    // [10, 100) -> bucket 2
  histogram.Record(1000.0);  // >= 100    -> +inf bucket
  EXPECT_EQ(histogram.bucket_count(0), 1);
  EXPECT_EQ(histogram.bucket_count(1), 1);
  EXPECT_EQ(histogram.bucket_count(2), 2);
  EXPECT_EQ(histogram.bucket_count(3), 1);
  EXPECT_EQ(histogram.total_count(), 5);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1065.5);
  histogram.Reset();
  EXPECT_EQ(histogram.total_count(), 0);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
}

TEST(ObsMetrics, DefaultLatencyBoundsAreAscending) {
  const std::vector<double>& bounds = obs::DefaultLatencyBoundsNs();
  ASSERT_FALSE(bounds.empty());
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_DOUBLE_EQ(bounds.front(), 1e3);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e10);
}

TEST(ObsMetrics, FineLatencyBoundsAreAscendingGeometric) {
  const std::vector<double>& bounds = obs::FineLatencyBoundsNs();
  ASSERT_GT(bounds.size(), 80u);  // ~12 buckets per decade, 1us..10s
  EXPECT_TRUE(std::is_sorted(bounds.begin(), bounds.end()));
  EXPECT_DOUBLE_EQ(bounds.front(), 1e3);
  EXPECT_GE(bounds.back(), 1e10 / 1.2);
  // Geometric: neighbor ratio is 2^(1/4) everywhere.
  for (size_t i = 1; i < bounds.size(); ++i) {
    EXPECT_NEAR(bounds[i] / bounds[i - 1], std::pow(2.0, 0.25), 1e-9);
  }
}

TEST(ObsMetrics, TimerStatAggregatesAcrossRecords) {
  obs::TimerStat stat;
  stat.Record(100);
  stat.Record(700);
  stat.Record(200);
  EXPECT_EQ(stat.count(), 3);
  EXPECT_EQ(stat.total_ns(), 1000);
  EXPECT_EQ(stat.max_ns(), 700);
  stat.Reset();
  EXPECT_EQ(stat.count(), 0);
  EXPECT_EQ(stat.total_ns(), 0);
  EXPECT_EQ(stat.max_ns(), 0);
}

TEST(ObsMetrics, ScopedTimerRecordsExactFakeDurations) {
  obs::ScopedFakeClock clock;
  obs::TimerStat stat;
  {
    obs::ScopedTimer timer(&stat);
    clock.Advance(1234);
  }
  {
    obs::ScopedTimer timer(&stat);
    clock.Advance(66);
  }
  EXPECT_EQ(stat.count(), 2);
  EXPECT_EQ(stat.total_ns(), 1300);
  EXPECT_EQ(stat.max_ns(), 1234);
}

TEST(ObsMetrics, ThreadIndexIsStablePerThreadAndDistinctAcrossThreads) {
  const int main_index = obs::ThreadIndex();
  EXPECT_EQ(obs::ThreadIndex(), main_index);
  int other_index = main_index;
  std::thread worker([&other_index] { other_index = obs::ThreadIndex(); });
  worker.join();
  EXPECT_NE(other_index, main_index);
}

// -- registry ----------------------------------------------------------------

TEST(ObsRegistry, FindOrCreateReturnsStablePointers) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* counter = registry.GetCounter("obs_test.registry.counter");
  EXPECT_EQ(registry.GetCounter("obs_test.registry.counter"), counter);
  EXPECT_NE(registry.GetCounter("obs_test.registry.other"), counter);

  counter->Add(7);
  registry.ResetAllForTest();
  // Reset zeroes in place: the cached pointer stays valid and re-lookup
  // finds the same object (the macro pointer-caching contract).
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(registry.GetCounter("obs_test.registry.counter"), counter);
}

TEST(ObsRegistry, HistogramBoundsApplyOnFirstCreationOnly) {
  obs::Registry& registry = obs::Registry::Global();
  obs::Histogram* histogram =
      registry.GetHistogram("obs_test.registry.hist", {1.0, 2.0});
  obs::Histogram* again =
      registry.GetHistogram("obs_test.registry.hist", {5.0});
  EXPECT_EQ(histogram, again);
  EXPECT_EQ(again->upper_bounds(), (std::vector<double>{1.0, 2.0}));
}

TEST(ObsRegistry, SnapshotIsNameSortedAndDetached) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAllForTest();
  registry.GetCounter("obs_test.sort.b")->Add(2);
  registry.GetCounter("obs_test.sort.a")->Add(1);
  const obs::TelemetrySnapshot snapshot = obs::CaptureSnapshot();
  EXPECT_EQ(snapshot.enabled, obs::kTelemetryEnabled);
  EXPECT_TRUE(std::is_sorted(
      snapshot.counters.begin(), snapshot.counters.end(),
      [](const obs::CounterSnapshot& x, const obs::CounterSnapshot& y) {
        return x.name < y.name;
      }));
  ASSERT_NE(FindCounter(snapshot, "obs_test.sort.a"), nullptr);
  EXPECT_EQ(FindCounter(snapshot, "obs_test.sort.a")->value, 1);
  EXPECT_EQ(FindCounter(snapshot, "obs_test.sort.b")->value, 2);

  // Snapshots hold plain values: later mutation does not alter them.
  registry.GetCounter("obs_test.sort.a")->Add(100);
  EXPECT_EQ(FindCounter(snapshot, "obs_test.sort.a")->value, 1);

  // Every phase appears in the snapshot, in enum order.
  ASSERT_EQ(snapshot.phases.size(), static_cast<size_t>(obs::kPhaseCount));
  EXPECT_EQ(snapshot.phases.front().name, "featurize");
  EXPECT_EQ(snapshot.phases.back().name, "checkpoint");
}

// -- phase profiler ----------------------------------------------------------

TEST(ObsPhases, PhaseNamesAreStable) {
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kFeaturize), "featurize");
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kEmbed), "embed");
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kForward), "forward");
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kBackward), "backward");
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kOptimizer), "optimizer");
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kEval), "eval");
  EXPECT_STREQ(obs::PhaseName(obs::Phase::kCheckpoint), "checkpoint");
}

TEST(ObsPhases, NestedScopesAttributeExclusively) {
  obs::ScopedFakeClock clock;
  obs::PhaseProfiler::Global().Reset();
  {
    obs::PhaseScope outer(obs::Phase::kForward);
    clock.Advance(100);
    {
      obs::PhaseScope inner(obs::Phase::kBackward);
      clock.Advance(30);
    }
    clock.Advance(50);
  }
  const std::array<int64_t, obs::kPhaseCount> totals =
      obs::PhaseProfiler::Global().ExclusiveNs();
  // The inner scope's 30ns is charged to backward only; forward gets the
  // 100ns before and 50ns after, never the nested span.
  EXPECT_EQ(totals[static_cast<int>(obs::Phase::kForward)], 150);
  EXPECT_EQ(totals[static_cast<int>(obs::Phase::kBackward)], 30);
  EXPECT_EQ(totals[static_cast<int>(obs::Phase::kOptimizer)], 0);
}

TEST(ObsPhases, ReenteringSamePhaseAccumulates) {
  obs::ScopedFakeClock clock;
  obs::PhaseProfiler::Global().Reset();
  for (int i = 0; i < 3; ++i) {
    obs::PhaseScope scope(obs::Phase::kEval);
    clock.Advance(10);
  }
  EXPECT_EQ(obs::PhaseProfiler::Global()
                .ExclusiveNs()[static_cast<int>(obs::Phase::kEval)],
            30);
}

TEST(ObsPhases, ScopesInsideParallelForAreIgnored) {
  obs::PhaseProfiler::Global().Reset();
  std::atomic<bool> saw_region{false};
  EXPECT_FALSE(InParallelRegion());
  ParallelFor(0, 64, 8, [&saw_region](int64_t lo, int64_t hi) {
    if (InParallelRegion()) {
      saw_region.store(true, std::memory_order_relaxed);
    }
    for (int64_t i = lo; i < hi; ++i) {
      obs::PhaseScope scope(obs::Phase::kEval);
    }
  });
  EXPECT_TRUE(saw_region.load());
  EXPECT_FALSE(InParallelRegion());
  // Pool workers (and the participating caller) run concurrently with the
  // orchestrating thread, so their scopes must not charge wall time.
  EXPECT_EQ(obs::PhaseProfiler::Global()
                .ExclusiveNs()[static_cast<int>(obs::Phase::kEval)],
            0);
}

// -- macros ------------------------------------------------------------------

TEST(ObsMacros, RecordIntoRegistryWhenEnabled) {
  obs::Registry::Global().ResetAllForTest();
  ADAMEL_COUNTER_ADD("obs_test.macro.counter", 2);
  ADAMEL_COUNTER_ADD("obs_test.macro.counter", 3);
  ADAMEL_GAUGE_SET("obs_test.macro.gauge", 1.5);
  ADAMEL_SERIES_APPEND("obs_test.macro.series", 0.25);
  ADAMEL_HISTOGRAM_RECORD("obs_test.macro.hist", 2e3);
  {
    ADAMEL_TRACE_SCOPE("obs_test.macro.trace");
  }
  const obs::TelemetrySnapshot snapshot = obs::CaptureSnapshot();
  if constexpr (obs::kTelemetryEnabled) {
    ASSERT_NE(FindCounter(snapshot, "obs_test.macro.counter"), nullptr);
    EXPECT_EQ(FindCounter(snapshot, "obs_test.macro.counter")->value, 5);
    ASSERT_NE(FindSeries(snapshot, "obs_test.macro.series"), nullptr);
    EXPECT_EQ(FindSeries(snapshot, "obs_test.macro.series")->values,
              (std::vector<double>{0.25}));
    ASSERT_NE(FindTimer(snapshot, "obs_test.macro.trace"), nullptr);
    EXPECT_EQ(FindTimer(snapshot, "obs_test.macro.trace")->count, 1);
  } else {
    EXPECT_EQ(FindCounter(snapshot, "obs_test.macro.counter"), nullptr);
    EXPECT_EQ(FindSeries(snapshot, "obs_test.macro.series"), nullptr);
    EXPECT_EQ(FindTimer(snapshot, "obs_test.macro.trace"), nullptr);
  }
}

TEST(ObsMacros, OffBuildDoesNotEvaluateArguments) {
  // OFF-mode macros expand to ((void)0): side effects in the argument list
  // must vanish, which is why instrumentation only passes expressions the
  // surrounding code does not depend on.
  int evaluations = 0;
  auto bump = [&evaluations] {
    ++evaluations;
    return int64_t{1};
  };
  (void)bump;  // in OFF builds the macro below never references it
  ADAMEL_COUNTER_ADD("obs_test.macro.arg_eval", bump());
  EXPECT_EQ(evaluations, obs::kTelemetryEnabled ? 1 : 0);
}

// -- export ------------------------------------------------------------------

TEST(ObsExport, JsonIsDeterministicAndFlatParsesBack) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAllForTest();
  registry.GetCounter("obs_test.json.counter")->Add(3);
  registry.GetGauge("obs_test.json.gauge")->Set(0.25);
  registry.GetSeries("obs_test.json.series")->Append(0.5);
  registry.GetSeries("obs_test.json.series")->Append(1.5);
  registry.GetTimer("obs_test.json.timer")->Record(10);

  const obs::TelemetrySnapshot first = obs::CaptureSnapshot();
  const obs::TelemetrySnapshot second = obs::CaptureSnapshot();
  EXPECT_EQ(obs::ToJson(first), obs::ToJson(second));
  EXPECT_EQ(obs::ToCsv(first), obs::ToCsv(second));

  const StatusOr<std::map<std::string, double>> flat =
      obs::FlatJsonParse(obs::ToJson(first));
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  const std::map<std::string, double>& values = flat.value();
  EXPECT_EQ(values.at("enabled"), obs::kTelemetryEnabled ? 1.0 : 0.0);
  EXPECT_EQ(values.at("counters/obs_test.json.counter"), 3.0);
  EXPECT_EQ(values.at("gauges/obs_test.json.gauge"), 0.25);
  EXPECT_EQ(values.at("series/obs_test.json.series/0"), 0.5);
  EXPECT_EQ(values.at("series/obs_test.json.series/1"), 1.5);
  EXPECT_EQ(values.at("timers/obs_test.json.timer/count"), 1.0);
  EXPECT_EQ(values.at("timers/obs_test.json.timer/total_ns"), 10.0);
  EXPECT_EQ(values.count("phases/featurize"), 1u);
}

TEST(ObsExport, JsonEmitsCallerWallTimeAlongsidePhases) {
  const obs::TelemetrySnapshot snapshot = obs::CaptureSnapshot();
  const std::string with_wall = obs::ToJson(snapshot, 2, 12345);
  EXPECT_NE(with_wall.find("\"wall_ns\": 12345"), std::string::npos);
  const std::string without_wall = obs::ToJson(snapshot);
  EXPECT_EQ(without_wall.find("wall_ns"), std::string::npos);
}

TEST(ObsExport, CsvHasHeaderAndMetricRows) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAllForTest();
  registry.GetCounter("obs_test.csv.counter")->Add(9);
  const std::string csv = obs::ToCsv(obs::CaptureSnapshot());
  EXPECT_EQ(csv.rfind("kind,name,field,value\n", 0), 0u);
  EXPECT_NE(csv.find("counter,obs_test.csv.counter,,9"), std::string::npos);
  EXPECT_NE(csv.find("phase,featurize,exclusive_ns,"), std::string::npos);
}

TEST(ObsExport, FlatJsonParseHandlesNestingBoolsAndNulls) {
  const StatusOr<std::map<std::string, double>> flat = obs::FlatJsonParse(
      R"({"a": 1, "b": {"c": [2, -3.5e1], "d": true, "e": null}, "f": false})");
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();
  const std::map<std::string, double>& values = flat.value();
  EXPECT_EQ(values.at("a"), 1.0);
  EXPECT_EQ(values.at("b/c/0"), 2.0);
  EXPECT_EQ(values.at("b/c/1"), -35.0);
  EXPECT_EQ(values.at("b/d"), 1.0);
  EXPECT_EQ(values.at("f"), 0.0);
  EXPECT_EQ(values.count("b/e"), 0u);  // nulls are skipped
}

TEST(ObsExport, FlatJsonParseRejectsMalformedInput) {
  EXPECT_FALSE(obs::FlatJsonParse("").ok());
  EXPECT_FALSE(obs::FlatJsonParse("{").ok());
  EXPECT_FALSE(obs::FlatJsonParse("{\"a\": }").ok());
  EXPECT_FALSE(obs::FlatJsonParse("{\"a\": \"string\"}").ok());
  EXPECT_FALSE(obs::FlatJsonParse("{\"a\": 1, \"a\": 2}").ok());
  EXPECT_FALSE(obs::FlatJsonParse("{} trailing").ok());
  EXPECT_FALSE(obs::FlatJsonParse("{\"a\": [1,]}").ok());
}

// -- concurrency (the TSan CI job hammers these) -----------------------------

TEST(ObsConcurrency, MetricsAreExactUnderParallelMutation) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAllForTest();
  obs::Counter* counter = registry.GetCounter("obs_test.conc.counter");
  obs::TimerStat* timer = registry.GetTimer("obs_test.conc.timer");
  obs::Histogram* histogram = registry.GetHistogram(
      "obs_test.conc.hist", obs::DefaultLatencyBoundsNs());
  obs::Gauge* gauge = registry.GetGauge("obs_test.conc.gauge");

  constexpr int64_t kIters = 50000;
  ParallelFor(0, kIters, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      counter->Add(1);
      timer->Record(i % 1000);
      histogram->Record(static_cast<double>(i % 7));
      gauge->Set(static_cast<double>(i));
      // Phase scopes no-op inside the pool but must still be race-free.
      obs::PhaseScope scope(obs::Phase::kForward);
    }
  });
  EXPECT_EQ(counter->value(), kIters);
  EXPECT_EQ(timer->count(), kIters);
  EXPECT_EQ(timer->max_ns(), 999);
  EXPECT_EQ(histogram->total_count(), kIters);
}

TEST(ObsConcurrency, SnapshotsRaceSafelyWithWriters) {
  obs::Registry& registry = obs::Registry::Global();
  registry.ResetAllForTest();
  obs::Counter* counter = registry.GetCounter("obs_test.conc.snap.counter");
  obs::Series* series = registry.GetSeries("obs_test.conc.snap.series");

  std::atomic<bool> stop{false};
  std::thread reader([&stop] {
    while (!stop.load(std::memory_order_acquire)) {
      const obs::TelemetrySnapshot snapshot = obs::CaptureSnapshot();
      const std::string json = obs::ToJson(snapshot, 0);
      ASSERT_FALSE(json.empty());
    }
  });
  constexpr int64_t kIters = 20000;
  ParallelFor(0, kIters, 64, [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      counter->Add(1);
      if (i % 100 == 0) {
        series->Append(static_cast<double>(i));
      }
    }
  });
  stop.store(true, std::memory_order_release);
  reader.join();
  EXPECT_EQ(counter->value(), kIters);
  EXPECT_EQ(series->Values().size(), static_cast<size_t>(kIters / 100));
}

TEST(ObsConcurrency, RegistryLookupsRaceSafely) {
  obs::Registry::Global().ResetAllForTest();
  // Concurrent find-or-create on overlapping names must agree on one object
  // per name.
  std::vector<obs::Counter*> seen(64, nullptr);
  ParallelFor(0, 64, 1, [&seen](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const std::string name =
          "obs_test.conc.lookup." + std::to_string(i % 4);
      seen[static_cast<size_t>(i)] =
          obs::Registry::Global().GetCounter(name);
      seen[static_cast<size_t>(i)]->Add(1);
    }
  });
  for (int64_t i = 0; i < 64; ++i) {
    EXPECT_EQ(seen[static_cast<size_t>(i)],
              seen[static_cast<size_t>(i % 4)]);
  }
  EXPECT_EQ(
      obs::Registry::Global().GetCounter("obs_test.conc.lookup.0")->value(),
      16);
}

}  // namespace
}  // namespace adamel
