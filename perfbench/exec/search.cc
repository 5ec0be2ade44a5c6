// `search`: 1:N search through LinkageService::SearchAsync over a 200k-record
// gallery (50k entities x 4 sources) while a writer keeps enrolling.
//
// Two issuers (the calling thread and one more) share one seeded Poisson
// schedule; SearchAsync probes the gallery on the issuing thread, then the
// one batcher worker re-ranks the 64 probe candidates. Queries are fresh
// renderings of enrolled entities through a noisier source, so typos and
// abbreviations give them unseen tokens. One writer thread enrolls new,
// disjoint entities in small chunks at a fixed rate, so a search gain that
// costs enrollment (a longer shard-lock hold) shows up.
#include <algorithm>
#include <atomic>
#include <future>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "core/trainer.h"
#include "datagen/world.h"
#include "exec/common.h"
#include "exec/layers.h"
#include "exec/serving.h"
#include "gallery/gallery.h"
#include "serve/service.h"

namespace perfbench {
namespace {

using namespace adamel;

constexpr int kEntities = 50'000;
constexpr int kWriterEntities = 12'000;  // reserve the writer enrolls from
constexpr int kSetupThreads = 4;
constexpr int kIssuers = 2;
constexpr int kBatcherWorkers = 1;
constexpr int kK = 10;
constexpr int kProbeK = 64;
// The latency limit a `peak_rate` step is judged by is an assumption, about
// eight times the unloaded search p50 (~12 ms), so a step fails on
// queueing, not on one slow search. The deadline (after the due time) is
// 1 s, as for fp32 requests in `score`, so that a stall of the host does not
// fail a search of the measured phase.
constexpr double kLatencyLimitMs = 100.0;
constexpr int64_t kDeadlineNs = 1'000'000'000;
// The reference rate is a third of the median measured `peak_rate`, as in
// `score` (see perfbench/README.md).
constexpr double kReferenceRate = 60.0;
// Each writer chunk is one new entity: its records on the four sources.
// The writer's fixed rate, one entity per reference search, is an
// assumption: enrollment stays a small share of the CPU, so the probe
// dominates, and the writer gets as many latency samples as the searches.
constexpr int kWriterChunkRecords = 4;
constexpr double kWriterChunksPerSecond = kReferenceRate;
constexpr uint64_t kWorldSeed = 77;
constexpr int kLayerQueries = 1000;
constexpr int kRecallQueries = 20;
constexpr int kLayerPairQueries = 16;

// bench_gallery's world (5 attributes, families of 16) plus a "query"
// source that renders noisier than the four enrolled ones.
datagen::World MakeWorld() {
  datagen::WorldConfig config;
  config.num_entities = kEntities + kWriterEntities;
  config.family_size = 16;
  config.seed = kWorldSeed;
  datagen::AttributeSpec name;
  name.name = "name";
  name.kind = datagen::AttributeKind::kEntityName;
  datagen::AttributeSpec family;
  family.name = "performer";
  family.kind = datagen::AttributeKind::kFamilyName;
  datagen::AttributeSpec category;
  category.name = "genre";
  category.kind = datagen::AttributeKind::kCategory;
  category.category_cardinality = 50;
  category.vocab_seed = 3;
  datagen::AttributeSpec year;
  year.name = "year";
  year.kind = datagen::AttributeKind::kNumeric;
  datagen::AttributeSpec title;
  title.name = "page_title";
  title.kind = datagen::AttributeKind::kComposite;
  title.filler_tokens = 2;
  title.vocab_seed = 5;
  config.attributes = {name, family, category, year, title};
  datagen::World world(std::move(config));
  for (int s = 0; s <= 4; ++s) {
    const bool query = s == 4;
    datagen::SourceProfile profile;
    profile.name = query ? "query" : "site" + std::to_string(s);
    profile.decoration_vocab_seed = 100 + s;
    std::vector<datagen::AttributeRendering> renderings(5);
    renderings[0].abbrev_prob = query ? 0.25 : 0.05 * s;
    renderings[0].typo_prob = query ? 0.10 : 0.02;
    renderings[2].missing_prob = 0.1;
    renderings[4].decoration_prob = 0.2;
    renderings[4].typo_prob = query ? 0.05 : 0.0;
    profile.attributes = std::move(renderings);
    world.AddSource(profile);
  }
  return world;
}

std::vector<data::Record> RenderEntities(const datagen::World& world,
                                         int begin, int end, Rng* rng) {
  std::vector<data::Record> records;
  records.reserve(static_cast<size_t>(end - begin) * 4);
  for (int e = begin; e < end; ++e) {
    for (int s = 0; s < 4; ++s) {
      records.push_back(world.Render(e, "site" + std::to_string(s), rng));
    }
  }
  return records;
}

struct Query {
  int64_t offset = 0;
  data::Record record;
};

class SearchWorkload : public Workload {
 public:
  explicit SearchWorkload(uint64_t seed) : seed_(seed) {}

  std::map<std::string, int> Threads() const override {
    return {{"issuers", kIssuers}, {"writers", 1},
            {"batcher_workers", kBatcherWorkers}, {"pool_workers", 0}};
  }
  double ReferenceRate() const override { return kReferenceRate; }
  double LatencyLimitMs() const override { return kLatencyLimitMs; }

  std::string Setup() override {
    service_.reset();
    gallery_.reset();
    traced_.reset();
    model_.reset();
    world_.reset();
    writer_records_.clear();
    // Nothing else runs during set-up, so enrollment's embedding pass may
    // use every core; it appends in order, so the gallery is identical at
    // any thread count. Measurement runs with the pool pinned to one thread.
    SetNumThreads(kSetupThreads);
    const int64_t start = Now();
    const double cpu_start = CpuSeconds();

    world_ = std::make_unique<datagen::World>(MakeWorld());
    Rng render_rng(78);
    const std::vector<data::Record> records =
        RenderEntities(*world_, 0, kEntities, &render_rng);
    writer_records_ = RenderEntities(*world_, kEntities,
                                     kEntities + kWriterEntities, &render_rng);
    writer_next_ = 0;
    const int64_t rendered = Now();
    gallery::GalleryOptions gallery_options;
    gallery_options.embedding.dim = 128;
    gallery_options.num_shards = 16;
    auto created = gallery::Gallery::Create(world_->schema(), gallery_options);
    ADAMEL_CHECK(created.ok()) << created.status().ToString();
    gallery_ = std::shared_ptr<gallery::Gallery>(std::move(created).value());
    const data::RecordSpan all(records);
    constexpr int64_t kChunk = 50'000;
    for (int64_t offset = 0; offset < all.size(); offset += kChunk) {
      const Status enrolled = gallery_->Enroll(
          all.Subspan(offset, std::min(kChunk, all.size() - offset)));
      ADAMEL_CHECK(enrolled.ok()) << enrolled.ToString();
    }
    const double enroll_s = static_cast<double>(Now() - rendered) * 1e-9;

    // The re-rank model: bench_gallery's small AdaMEL on this world's pairs.
    datagen::PairSamplingOptions sampling;
    sampling.left_sources = {"site0", "site1"};
    sampling.right_sources = {"site2", "site3"};
    sampling.positives = 300;
    sampling.negatives = 300;
    Rng pair_rng(80);
    train_pairs_ = datagen::SamplePairs(*world_, sampling, &pair_rng);
    core::AdamelConfig config;
    config.epochs = 2;
    config.seed = 81;
    config.embed_dim = 24;
    config.latent_dim = 16;
    config.attention_dim = 16;
    config.hidden_dim = 32;
    auto model =
        std::make_shared<core::AdamelLinkage>(core::AdamelVariant::kBase, config);
    core::MelInputs inputs;
    inputs.source_train = &train_pairs_;
    const Status fitted = model->Fit(inputs);
    ADAMEL_CHECK(fitted.ok()) << fitted.ToString();
    model_ = model;
    SetNumThreads(1);

    serve::ServiceOptions service_options;
    service_options.batcher.worker_threads = kBatcherWorkers;
    service_options.batcher.max_batch_pairs = 512;
    service_options.batcher.max_batch_delay_ns = 2'000'000;
    service_options.batcher.max_queue_pairs = 1 << 14;
    service_options.batcher.adaptive = true;  // as in `score`
    service_options.gallery = gallery_;
    service_ = std::make_unique<serve::LinkageService>(service_options);
    traced_ = std::make_shared<TracedModel>(model_, &batch_spans_);
    ADAMEL_CHECK(service_->registry().Register("adamel", 1, model_).ok());
    ADAMEL_CHECK(service_->registry().Register("adamel_traced", 1, traced_).ok());
    const double seconds = static_cast<double>(Now() - start) * 1e-9;

    Json reply;
    reply.Num("wall_s", seconds)
        .Num("cpu_s", CpuSeconds() - cpu_start)
        .Num("render_s", static_cast<double>(rendered - start) * 1e-9)
        .Num("enroll_s", enroll_s)
        .Int("gallery_records", gallery_->size());
    return reply.Done();
  }

  std::string Phase(const PhaseArgs& args) override {
    const std::vector<Query> queries =
        MakeQueries(PoissonSchedule(args.rate, args.seconds,
                                    MixSeed(args.seed, 2)),
                    args.seed);
    const std::string model = args.traced ? "adamel_traced" : "adamel";

    batch_spans_.Take();
    const serve::BatcherStats stats_before = service_->stats();
    const CounterSnapshot counters_before = CounterSnapshot::Take();
    const double cpu_before = CpuSeconds();
    std::vector<Outcome> outcomes(queries.size());
    std::vector<std::future<serve::SearchResponse>> futures(queries.size());
    const int64_t t0 = Now() + 1'000'000;
    std::atomic<size_t> next{0};
    const auto issue = [&] {
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        Outcome& o = outcomes[i];
        o.due = t0 + queries[i].offset;
        o.deadline = o.due + kDeadlineNs;
        serve::SearchRequest request;
        request.model = model;
        request.query = queries[i].record;
        request.k = kK;
        request.probe_k = kProbeK;
        request.deadline_ns = o.deadline;
        SleepUntil(o.due);
        o.sent = Now();
        futures[i] = service_->SearchAsync(std::move(request));
        o.returned = Now();
      }
    };
    // Writer: chunk j is due at j / rate; latency runs from that due time.
    std::vector<double> write_ms;
    std::vector<double> enroll_call_ms;
    int64_t write_failures = 0;
    const auto write = [&] {
      const int64_t period = static_cast<int64_t>(1e9 / kWriterChunksPerSecond);
      const int64_t end = t0 + static_cast<int64_t>(args.seconds * 1e9);
      for (int64_t due = t0 + period; due < end; due += period) {
        if (writer_next_ + kWriterChunkRecords > writer_records_.size()) {
          ++write_failures;  // reserve exhausted: counts as a failed write
          continue;
        }
        SleepUntil(due);
        const int64_t call = Now();
        const Status enrolled = gallery_->Enroll(data::RecordSpan(
            writer_records_.data() + writer_next_, kWriterChunkRecords));
        const int64_t done = Now();
        writer_next_ += kWriterChunkRecords;
        if (!enrolled.ok()) {
          ++write_failures;
          continue;
        }
        write_ms.push_back(static_cast<double>(done - due) * 1e-6);
        enroll_call_ms.push_back(static_cast<double>(done - call) * 1e-6);
      }
    };
    std::thread writer(write);
    std::vector<std::thread> issuers;
    for (int t = 1; t < kIssuers; ++t) {
      issuers.emplace_back(issue);
    }
    issue();
    for (std::thread& t : issuers) {
      t.join();
    }
    writer.join();
    std::vector<serve::SearchResponse> responses;
    responses.reserve(queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      responses.push_back(futures[i].get());
      const serve::SearchResponse& response = responses.back();
      Outcome& o = outcomes[i];
      o.code = response.status.code();
      // An empty probe resolves without a re-rank batch (done_ns unset).
      o.done = response.done_ns != 0 ? response.done_ns : o.returned;
    }
    const double cpu_s = CpuSeconds() - cpu_before;
    const double wall_s = static_cast<double>(Now() - t0) * 1e-9;
    const CounterSnapshot counters_after = CounterSnapshot::Take();

    // Correctness and quality: every re-ranked score against offline
    // ScorePairs on the same (query, candidate record) pair.
    data::PairDataset offline(gallery_->schema());
    double quality_sum = 0.0;
    int64_t quality_count = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!responses[i].status.ok()) {
        continue;
      }
      const std::string prefix = queries[i].record.entity_id + "@";
      int found = 0;
      for (const gallery::Candidate& c : responses[i].candidates) {
        data::LabeledPair pair;
        pair.left = queries[i].record;
        pair.right = gallery_->GetRecord(c.index).value();
        offline.Add(std::move(pair));
        found += c.id.compare(0, prefix.size(), prefix) == 0 ? 1 : 0;
      }
      quality_sum += found / 4.0;
      ++quality_count;
    }
    const std::vector<float> reference = model_->ScorePairs(offline).value();
    int64_t mismatches = 0;
    size_t at = 0;
    for (size_t i = 0; i < queries.size(); ++i) {
      if (!responses[i].status.ok()) {
        continue;
      }
      for (const gallery::Candidate& c : responses[i].candidates) {
        mismatches += SameBits(c.score, reference[at++]) ? 0 : 1;
      }
    }

    Json reply;
    reply.Str("phase", args.name)
        .Num("rate", args.rate)
        .Num("cpu_s", cpu_s)
        .Num("wall_s", wall_s)
        .Int("mismatches", mismatches)
        .Num("quality", quality_count > 0 ? quality_sum / quality_count : 0.0)
        .Nums("write_ms", write_ms)
        .Nums("enroll_call_ms", enroll_call_ms)
        .Int("write_failures", write_failures)
        .Int("write_chunk_records", kWriterChunkRecords);
    std::unique_ptr<SpanRecorder> spans;
    if (args.traced) {
      spans = std::make_unique<SpanRecorder>();
    }
    WriteOutcomes(outcomes, "serve.search_call", batch_spans_.Take(),
                  spans.get(), &reply);
    WriteBatcherDelta(stats_before, service_->stats(), &reply);
    counters_after.WriteDelta(counters_before, &reply);
    if (spans != nullptr) {
      reply.SpansOf("spans", spans->Take());
    }
    return reply.Done();
  }

  std::string Layers() override {
    std::vector<int64_t> offsets(kLayerQueries, 0);
    const std::vector<Query> queries =
        MakeQueries(offsets, MixSeed(seed_, 7));
    std::vector<double> search_ms;
    std::vector<std::vector<gallery::Candidate>> hits;
    for (const Query& q : queries) {
      const int64_t start = Now();
      auto found = gallery_->Search(q.record, kProbeK);
      search_ms.push_back(static_cast<double>(Now() - start) * 1e-6);
      ADAMEL_CHECK(found.ok()) << found.status().ToString();
      hits.push_back(std::move(found).value());
    }
    int64_t fetched = 0;
    const int64_t fetch_start = Now();
    for (const auto& list : hits) {
      for (const gallery::Candidate& c : list) {
        const auto record = gallery_->GetRecord(c.index);
        ADAMEL_CHECK(record.ok()) << record.status().ToString();
        ++fetched;
      }
    }
    const double get_record_us =
        static_cast<double>(Now() - fetch_start) * 1e-3 /
        static_cast<double>(std::max<int64_t>(1, fetched));
    int64_t recall_hits = 0;
    int64_t recall_total = 0;
    for (int q = 0; q < kRecallQueries; ++q) {
      const auto exhaustive =
          gallery_->SearchExhaustive(queries[static_cast<size_t>(q)].record, kProbeK);
      ADAMEL_CHECK(exhaustive.ok()) << exhaustive.status().ToString();
      std::vector<int64_t> probed;
      for (const gallery::Candidate& c : hits[static_cast<size_t>(q)]) {
        probed.push_back(c.index);
      }
      std::sort(probed.begin(), probed.end());
      for (const gallery::Candidate& c : exhaustive.value()) {
        ++recall_total;
        recall_hits += std::binary_search(probed.begin(), probed.end(), c.index);
      }
    }
    // The re-rank pairs: (query, probe candidate) for a few queries.
    data::PairDataset pairs(gallery_->schema());
    for (int q = 0; q < kLayerPairQueries; ++q) {
      for (const gallery::Candidate& c : hits[static_cast<size_t>(q)]) {
        data::LabeledPair pair;
        pair.left = queries[static_cast<size_t>(q)].record;
        pair.right = gallery_->GetRecord(c.index).value();
        pairs.Add(std::move(pair));
      }
    }
    const auto& adamel = dynamic_cast<const core::AdamelLinkage&>(*model_);
    Json reply;
    reply.Nums("gallery_search_ms", search_ms)
        .Num("gallery.get_record_us", get_record_us)
        .Num("gallery.probe_recall",
             recall_total > 0 ? static_cast<double>(recall_hits) / recall_total
                              : 0.0);
    CoreLayers(adamel.trained(), pairs, &reply);
    TextLayers(pairs, adamel.trained().extractor().embed_dim(), &reply);
    return reply.Done();
  }

 private:
  std::vector<Query> MakeQueries(const std::vector<int64_t>& offsets,
                                 uint64_t seed) const {
    Rng rng(MixSeed(seed, 3));
    std::mt19937_64 pick(MixSeed(seed, 4));
    std::uniform_int_distribution<int> entity(0, kEntities - 1);
    std::vector<Query> queries;
    queries.reserve(offsets.size());
    for (const int64_t offset : offsets) {
      queries.push_back(Query{offset, world_->Render(entity(pick), "query", &rng)});
    }
    return queries;
  }

  const uint64_t seed_;
  std::unique_ptr<datagen::World> world_;
  std::vector<data::Record> writer_records_;
  size_t writer_next_ = 0;
  data::PairDataset train_pairs_;
  std::shared_ptr<gallery::Gallery> gallery_;
  std::shared_ptr<const core::EntityLinkageModel> model_;
  SpanRecorder batch_spans_;
  std::shared_ptr<TracedModel> traced_;
  std::unique_ptr<serve::LinkageService> service_;
};

}  // namespace

std::unique_ptr<Workload> MakeSearchWorkload(uint64_t seed) {
  return std::make_unique<SearchWorkload>(seed);
}

}  // namespace perfbench
