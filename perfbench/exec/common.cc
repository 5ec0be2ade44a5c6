#include "exec/common.h"

#include <sys/resource.h>

#include <time.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <random>
#include <thread>

#include "obs/clock.h"

namespace perfbench {

int64_t Now() { return adamel::obs::NowNanos(); }

void SleepUntil(int64_t deadline_ns) {
  const int64_t now = Now();
  if (deadline_ns > now) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now));
  }
}

double CpuSeconds() {
  // The scheduler's exact runtime sum; getrusage's user/system split is
  // tick-sampled, too coarse for the 0.1 s train set-up.
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::vector<int64_t> PoissonSchedule(double rate, double seconds,
                                     uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::exponential_distribution<double> gap(rate);
  const auto count = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<int64_t> offsets;
  offsets.reserve(count);
  double t = 0.0;
  while (offsets.size() < count) {
    t += gap(rng);
    offsets.push_back(static_cast<int64_t>(t * 1e9));
  }
  return offsets;
}

int64_t SpanRecorder::Add(const std::string& name, int64_t start, int64_t end,
                          int64_t parent, int64_t request) {
  std::lock_guard<std::mutex> lock(mutex_);
  const int64_t id = next_id_++;
  spans_.push_back(Span{name, start, end, id, parent, request});
  return id;
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Span> out;
  out.swap(spans_);
  return out;
}

namespace {

std::string Number(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

std::string Quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buffer[8];
      std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
      out += buffer;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace

void Json::Key(const std::string& key) {
  if (!body_.empty()) {
    body_ += ',';
  }
  body_ += Quoted(key) + ':';
}

Json& Json::Num(const std::string& key, double value) {
  Key(key);
  body_ += Number(value);
  return *this;
}

Json& Json::Int(const std::string& key, int64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

Json& Json::Str(const std::string& key, const std::string& value) {
  Key(key);
  body_ += Quoted(value);
  return *this;
}

Json& Json::Bool(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

Json& Json::Nums(const std::string& key, const std::vector<double>& values) {
  Key(key);
  body_ += '[';
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) {
      body_ += ',';
    }
    body_ += Number(values[i]);
  }
  body_ += ']';
  return *this;
}

Json& Json::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

Json& Json::SpansOf(const std::string& key, const std::vector<Span>& spans) {
  // Compact rows: [name, start, end, id, parent, request].
  Key(key);
  body_ += '[';
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (i > 0) {
      body_ += ',';
    }
    body_ += '[' + Quoted(s.name) + ',' + std::to_string(s.start) + ',' +
             std::to_string(s.end) + ',' + std::to_string(s.id) + ',' +
             std::to_string(s.parent) + ',' + std::to_string(s.request) + ']';
  }
  body_ += ']';
  return *this;
}

std::string Json::Done() const { return '{' + body_ + '}'; }

int64_t CounterValue(const char* name) {
  return adamel::obs::Registry::Global().GetCounter(name)->value();
}

int64_t TimerTotalNs(const char* name) {
  return adamel::obs::Registry::Global().GetTimer(name)->total_ns();
}

CounterSnapshot CounterSnapshot::Take() {
  CounterSnapshot s;
  s.embed_hits = CounterValue("embed.cache.hits");
  s.embed_misses = CounterValue("embed.cache.misses");
  s.gemm_calls = CounterValue("nn.gemm.calls");
  s.gemm_flops = CounterValue("nn.gemm.flops");
  s.train_steps = CounterValue("train.steps");
  s.train_skipped = CounterValue("train.skipped_steps");
  s.train_forward_ns = TimerTotalNs("train.forward");
  s.train_backward_ns = TimerTotalNs("train.backward");
  s.train_optimizer_ns = TimerTotalNs("train.optimizer");
  return s;
}

void CounterSnapshot::WriteDelta(const CounterSnapshot& before,
                                 Json* json) const {
  Json delta;
  delta.Int("embed_hits", embed_hits - before.embed_hits)
      .Int("embed_misses", embed_misses - before.embed_misses)
      .Int("gemm_calls", gemm_calls - before.gemm_calls)
      .Int("gemm_flops", gemm_flops - before.gemm_flops)
      .Int("train_steps", train_steps - before.train_steps)
      .Int("train_skipped", train_skipped - before.train_skipped)
      .Int("train_forward_ns", train_forward_ns - before.train_forward_ns)
      .Int("train_backward_ns", train_backward_ns - before.train_backward_ns)
      .Int("train_optimizer_ns",
           train_optimizer_ns - before.train_optimizer_ns);
  json->Raw("counters", delta.Done());
}

uint64_t MixSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool SameBits(float a, float b) {
  return std::memcmp(&a, &b, sizeof(float)) == 0;
}

}  // namespace perfbench
