// Shared plumbing of the benchmark executor: clock and rusage reads, the
// seeded open-loop arrival schedule, the in-memory span recorder, a minimal
// JSON writer for replies, and the workload interface `main.cc` drives.
//
// The executor only measures. It answers one command per stdin line with
// one JSON line on stdout; `perfbench/run.py` decides what to run and turns
// the raw samples into metrics.
#ifndef PERFBENCH_EXEC_COMMON_H_
#define PERFBENCH_EXEC_COMMON_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/telemetry.h"

namespace perfbench {

/// `obs::NowNanos()`: the clock the serving layer stamps `done_ns` with.
int64_t Now();

/// Sleeps until `Now() >= deadline_ns`.
void SleepUntil(int64_t deadline_ns);

/// Process CPU time (all threads, CLOCK_PROCESS_CPUTIME_ID) in seconds, and
/// peak RSS (getrusage) in MB.
double CpuSeconds();
double PeakRssMb();

/// Offsets (ns from the phase start) of the first round(rate * seconds)
/// arrivals of a Poisson process at `rate` per second, from `seed`. A fixed
/// count keeps every percentile's sample count known in advance.
std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                     uint64_t seed);

/// One traced interval. `parent` is the id of the enclosing span (-1 for a
/// root); spans of one request share `request` (-1 when a span serves many
/// requests, like a coalesced batch).
struct Span {
  std::string name;
  int64_t start = 0;
  int64_t end = 0;
  int64_t id = 0;
  int64_t parent = -1;
  int64_t request = -1;
};

/// In-memory span store, safe to append from several threads. Spans are
/// shipped to run.py with the phase reply, which writes them out.
class SpanRecorder {
 public:
  int64_t Add(const std::string& name, int64_t start, int64_t end,
              int64_t parent, int64_t request);
  std::vector<Span> Take();

 private:
  std::mutex mutex_;
  int64_t next_id_ = 0;
  std::vector<Span> spans_;
};

/// Minimal JSON object writer for command replies.
class Json {
 public:
  Json& Num(const std::string& key, double value);
  Json& Int(const std::string& key, int64_t value);
  Json& Str(const std::string& key, const std::string& value);
  Json& Bool(const std::string& key, bool value);
  Json& Nums(const std::string& key, const std::vector<double>& values);
  Json& Raw(const std::string& key, const std::string& json);
  Json& SpansOf(const std::string& key, const std::vector<Span>& spans);
  std::string Done() const;

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// Current value of a telemetry counter / timer total (0 when unset).
int64_t CounterValue(const char* name);
int64_t TimerTotalNs(const char* name);

/// Telemetry counters the per-layer metrics are computed from, read as a
/// snapshot so phases can report deltas.
struct CounterSnapshot {
  int64_t embed_hits = 0;
  int64_t embed_misses = 0;
  int64_t gemm_calls = 0;
  int64_t gemm_flops = 0;
  int64_t train_steps = 0;
  int64_t train_skipped = 0;
  int64_t train_forward_ns = 0;
  int64_t train_backward_ns = 0;
  int64_t train_optimizer_ns = 0;
  static CounterSnapshot Take();
  /// Writes `this - before` into `json` under "counters".
  void WriteDelta(const CounterSnapshot& before, Json* json) const;
};

/// Arguments of one `phase` command.
struct PhaseArgs {
  std::string name;   // warmup / reference / ladder step label
  double rate = 0;    // offered operations per second
  double seconds = 0;
  bool traced = false;
  uint64_t seed = 0;  // schedule and input seed of this phase
};

/// One benchmark workload. `Setup` may be called repeatedly; each call
/// rebuilds the whole state from scratch (the previous one is freed first).
class Workload {
 public:
  virtual ~Workload() = default;
  virtual std::string Setup() = 0;
  virtual std::string Phase(const PhaseArgs& args) = 0;
  virtual std::string Layers() = 0;
  /// Threads this workload runs while measuring, by role (name -> count;
  /// the calling thread is one of them). `pool_workers` counts ParallelFor
  /// pool threads beyond the caller: every workload pins the pool to one
  /// thread, which runs chunks inline.
  virtual std::map<std::string, int> Threads() const = 0;
  /// Serving workloads: the offered rate of the reference phase, and the
  /// latency limit a `peak_rate` ladder step is judged by (0: no arrivals).
  virtual double ReferenceRate() const { return 0.0; }
  virtual double LatencyLimitMs() const { return 0.0; }
};

std::unique_ptr<Workload> MakeScoreWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeSearchWorkload(uint64_t seed);
std::unique_ptr<Workload> MakeTrainWorkload(uint64_t seed);

/// Mixes a base seed with a stream tag.
uint64_t MixSeed(uint64_t seed, uint64_t tag);

/// Bit-exact float equality (distinguishes -0/+0, equal NaN payloads).
bool SameBits(float a, float b);

}  // namespace perfbench

#endif  // PERFBENCH_EXEC_COMMON_H_
