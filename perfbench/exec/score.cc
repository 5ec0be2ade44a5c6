// `score`: small-batch pair scoring through LinkageService::SubmitAsync.
//
// One issuer (the calling thread) sends requests on a seeded Poisson
// schedule to a service with two batcher workers. The traffic is
// bench_load's three-tenant mix on one AdaMEL model: single fp32 pairs,
// single int8 pairs, and bulk fp32 requests. Pairs are drawn Zipf-skewed
// from a fixed labeled pool so hot records repeat; every request carries a
// deadline. No gallery work happens here.
#include <algorithm>
#include <cmath>
#include <future>
#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "core/trainer.h"
#include "datagen/music_world.h"
#include "eval/metrics.h"
#include "exec/common.h"
#include "exec/layers.h"
#include "exec/serving.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using namespace adamel;

constexpr int kBatcherWorkers = 2;
// Tenant weights are bench_load's: fp32 0.5, int8 0.3, bulk 0.2.
// bench_load's bulk tenant sends 2 pairs to a smaller model with no
// deadline; here it sends 8-32 pairs (uniform) to the same model, and
// carries the fp32 deadline so that every request has one.
constexpr double kFp32Share = 0.5;
constexpr double kInt8Share = 0.3;
constexpr int kMinBulkPairs = 8;
constexpr int kMaxBulkPairs = 32;
// Deadlines keep bench_load's 2:1 fp32:int8 ratio, scaled from its 50/25 ms
// to 1 s/0.5 s so that a stall of the host (tens of ms with no CPU for the
// whole process) does not fail a request of the measured phase: at 25 ms a
// few in 10^5 failed in some runs and none in others. Both are far beyond
// the 2 ms batch window, so they never shorten a batch at the reference
// rate.
constexpr int64_t kFp32DeadlineNs = 1'000'000'000;  // after the due time
constexpr int64_t kInt8DeadlineNs = 500'000'000;
// The exponent of loadgen's skewed schedule, applied to pair popularity.
constexpr double kZipfExponent = 1.1;
// A `peak_rate` step passes when 99% of requests finish within bench_load's
// int8 deadline, the tightest of its mix.
constexpr double kLatencyLimitMs = 25.0;
// The reference rate is a third of the median measured `peak_rate` (see
// perfbench/README.md), so queueing is light and latency follows cost.
constexpr double kReferenceRate = 2600.0;
constexpr uint64_t kTaskSeed = 1;
constexpr uint64_t kPopularitySeed = 2;

struct Request {
  int64_t offset = 0;
  std::vector<int> pairs;  // pool indices
  bool quantized = false;
  int64_t deadline_ns = 0;  // after the due time
};

class ScoreWorkload : public Workload {
 public:
  std::map<std::string, int> Threads() const override {
    return {{"issuers", 1}, {"batcher_workers", kBatcherWorkers},
            {"pool_workers", 0}};
  }
  double ReferenceRate() const override { return kReferenceRate; }
  double LatencyLimitMs() const override { return kLatencyLimitMs; }

  std::string Setup() override {
    service_.reset();
    traced_.reset();
    model_.reset();
    SetNumThreads(1);
    const int64_t start = Now();
    const double cpu_start = CpuSeconds();

    datagen::MusicTaskOptions options;
    options.entity_type = datagen::MusicEntityType::kArtist;
    options.scale = datagen::MusicScale::k3K;
    options.seed = kTaskSeed;
    task_ = datagen::MakeMusicTask(options);
    auto model = std::make_shared<core::AdamelLinkage>(core::AdamelVariant::kHyb);
    core::MelInputs inputs;
    inputs.source_train = &task_.source_train;
    inputs.target_unlabeled = &task_.target_unlabeled;
    inputs.support = &task_.support;
    const Status fitted = model->Fit(inputs);
    ADAMEL_CHECK(fitted.ok()) << fitted.ToString();
    const Status quantized = model->EnableQuantizedScoring(task_.source_train);
    ADAMEL_CHECK(quantized.ok()) << quantized.ToString();
    model_ = model;

    // The pool: labeled target pairs, with their offline reference scores.
    pool_ = task_.test;
    offline_fp32_ = model_->ScorePairs(pool_).value();
    offline_int8_ = model_->ScorePairsQuantized(pool_).value();

    serve::ServiceOptions service_options;
    service_options.batcher.worker_threads = kBatcherWorkers;
    service_options.batcher.max_batch_pairs = 256;
    service_options.batcher.max_batch_delay_ns = 2'000'000;
    service_options.batcher.max_queue_pairs = 8192;
    // Adaptive windows: a lone request waits 0.1 ms for joiners instead of
    // the full 2 ms, so latency follows execution cost, not the window.
    service_options.batcher.adaptive = true;
    service_ = std::make_unique<serve::LinkageService>(service_options);
    traced_ = std::make_shared<TracedModel>(model_, &batch_spans_);
    ADAMEL_CHECK(service_->registry().Register("adamel", 1, model_).ok());
    ADAMEL_CHECK(service_->registry().Register("adamel_traced", 1, traced_).ok());
    const double seconds = static_cast<double>(Now() - start) * 1e-9;

    Json reply;
    reply.Num("wall_s", seconds)
        .Num("cpu_s", CpuSeconds() - cpu_start)
        .Int("pool_pairs", pool_.size())
        .Int("train_pairs", task_.source_train.size());
    return reply.Done();
  }

  std::string Phase(const PhaseArgs& args) override {
    const std::vector<Request> requests = MakeRequests(args);
    batch_spans_.Take();
    const serve::BatcherStats stats_before = service_->stats();
    const CounterSnapshot counters_before = CounterSnapshot::Take();
    const double cpu_before = CpuSeconds();
    std::vector<Outcome> outcomes(requests.size());
    std::vector<std::future<serve::ScoreResponse>> futures;
    futures.reserve(requests.size());
    const int64_t t0 = Now() + 1'000'000;
    for (size_t i = 0; i < requests.size(); ++i) {
      Outcome& o = outcomes[i];
      o.due = t0 + requests[i].offset;
      o.deadline = o.due + requests[i].deadline_ns;
      // Built just before it is due, so the generator holds one request's
      // pairs at a time and peak RSS stays the service's own.
      serve::ScoreRequest request;
      request.model = args.traced ? "adamel_traced" : "adamel";
      request.pairs.set_schema(pool_.schema());
      for (const int p : requests[i].pairs) {
        request.pairs.Add(pool_.pair(p));
      }
      request.quantized = requests[i].quantized;
      request.deadline_ns = o.deadline;
      SleepUntil(o.due);
      o.sent = Now();
      futures.push_back(service_->SubmitAsync(std::move(request)));
      o.returned = Now();
    }
    int64_t mismatches = 0;
    std::vector<float> served;
    std::vector<int> labels;
    for (size_t i = 0; i < requests.size(); ++i) {
      const serve::ScoreResponse response = futures[i].get();
      Outcome& o = outcomes[i];
      o.code = response.status.code();
      o.done = response.done_ns;
      o.queue_ns = response.status.ok() ? response.queue_ns : -1;
      if (!response.status.ok()) {
        continue;
      }
      const Request& r = requests[i];
      const std::vector<float>& reference =
          r.quantized ? offline_int8_ : offline_fp32_;
      if (response.scores.size() != r.pairs.size()) {
        ++mismatches;
        continue;
      }
      for (size_t k = 0; k < r.pairs.size(); ++k) {
        const int p = r.pairs[k];
        if (!SameBits(response.scores[k], reference[static_cast<size_t>(p)])) {
          ++mismatches;
        }
        served.push_back(response.scores[k]);
        labels.push_back(pool_.pair(p).label);
      }
    }
    const double cpu_s = CpuSeconds() - cpu_before;
    const double wall_s = static_cast<double>(Now() - t0) * 1e-9;

    Json reply;
    reply.Str("phase", args.name)
        .Num("rate", args.rate)
        .Num("cpu_s", cpu_s)
        .Num("wall_s", wall_s)
        .Int("mismatches", mismatches)
        .Num("quality", served.empty()
                            ? 0.0
                            : eval::AveragePrecision(served, labels));
    std::unique_ptr<SpanRecorder> spans;
    if (args.traced) {
      spans = std::make_unique<SpanRecorder>();
    }
    WriteOutcomes(outcomes, "serve.admit", batch_spans_.Take(), spans.get(),
                  &reply);
    WriteBatcherDelta(stats_before, service_->stats(), &reply);
    CounterSnapshot::Take().WriteDelta(counters_before, &reply);
    if (spans != nullptr) {
      reply.SpansOf("spans", spans->Take());
    }
    return reply.Done();
  }

  std::string Layers() override {
    const auto& adamel = dynamic_cast<const core::AdamelLinkage&>(*model_);
    Json reply;
    CoreLayers(adamel.trained(), pool_, &reply);
    TextLayers(pool_, adamel.trained().extractor().embed_dim(), &reply);
    return reply.Done();
  }

 private:
  // Zipf over pool ranks. The rank -> pool-index map is a fixed
  // permutation: which pairs are hot is part of the workload, while the
  // seed draws the arrivals, sizes, pairs and precision of each request.
  std::vector<Request> MakeRequests(const PhaseArgs& args) const {
    const int n = pool_.size();
    std::vector<double> cdf(static_cast<size_t>(n));
    double total = 0.0;
    for (int r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf[static_cast<size_t>(r)] = total;
    }
    std::vector<int> rank_to_pair(static_cast<size_t>(n));
    for (int i = 0; i < n; ++i) {
      rank_to_pair[static_cast<size_t>(i)] = i;
    }
    std::mt19937_64 perm_rng(kPopularitySeed);
    std::shuffle(rank_to_pair.begin(), rank_to_pair.end(), perm_rng);

    std::mt19937_64 rng(args.seed);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::uniform_int_distribution<int> bulk(kMinBulkPairs, kMaxBulkPairs);
    std::vector<Request> requests;
    for (const int64_t offset :
         PoissonSchedule(args.rate, args.seconds, MixSeed(args.seed, 2))) {
      Request r;
      r.offset = offset;
      const double tenant = unit(rng);
      r.quantized = tenant >= kFp32Share && tenant < kFp32Share + kInt8Share;
      r.deadline_ns = r.quantized ? kInt8DeadlineNs : kFp32DeadlineNs;
      const int size = tenant < kFp32Share + kInt8Share ? 1 : bulk(rng);
      for (int k = 0; k < size; ++k) {
        const double u = unit(rng) * total;
        const auto rank = std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
        r.pairs.push_back(rank_to_pair[static_cast<size_t>(
            std::min<std::ptrdiff_t>(rank, n - 1))]);
      }
      requests.push_back(std::move(r));
    }
    return requests;
  }

  datagen::MelTask task_;
  data::PairDataset pool_;
  std::vector<float> offline_fp32_;
  std::vector<float> offline_int8_;
  std::shared_ptr<const core::EntityLinkageModel> model_;
  SpanRecorder batch_spans_;
  std::shared_ptr<TracedModel> traced_;
  std::unique_ptr<serve::LinkageService> service_;
};

}  // namespace

// Every input of a score phase is drawn from that phase's own seed.
std::unique_ptr<Workload> MakeScoreWorkload(uint64_t /*seed*/) {
  return std::make_unique<ScoreWorkload>();
}

}  // namespace perfbench
