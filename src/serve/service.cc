#include "serve/service.h"

#include <algorithm>
#include <memory>

#include "common/status.h"
#include "core/linkage_model.h"
#include "obs/telemetry.h"

namespace adamel::serve {
namespace {

/// Immediately-fulfilled error future for fail-fast search paths.
std::future<SearchResponse> FailedSearch(Status status, int served_version) {
  std::promise<SearchResponse> promise;
  std::future<SearchResponse> future = promise.get_future();
  SearchResponse response;
  response.status = std::move(status);
  response.served_version = served_version;
  promise.set_value(std::move(response));
  return future;
}

}  // namespace

LinkageService::LinkageService(ServiceOptions options)
    : batcher_(options.batcher), gallery_(std::move(options.gallery)) {}

std::future<ScoreResponse> LinkageService::SubmitAsync(ScoreRequest request) {
  StatusOr<ResolvedModel> resolved =
      registry_.Resolve(request.model, request.version);
  if (!resolved.ok()) {
    std::promise<ScoreResponse> promise;
    std::future<ScoreResponse> future = promise.get_future();
    ScoreResponse response;
    response.status = resolved.status();
    promise.set_value(std::move(response));
    return future;
  }
  BatchWorkItem item;
  item.model = std::move(resolved.value().model);
  if (request.quantized && !item.model->SupportsQuantizedScoring()) {
    // Fail at submission, not mid-batch: the caller learns immediately that
    // this model has no quantized twin instead of poisoning a coalesced
    // batch's execution. Still an erroneous outcome — counted under
    // BatcherStats::failed like any other non-reject, non-timeout error.
    batcher_.RecordFailedSubmission();
    std::promise<ScoreResponse> promise;
    std::future<ScoreResponse> future = promise.get_future();
    ScoreResponse response;
    response.status = FailedPreconditionError(
        "model '" + request.model +
        "' does not support quantized scoring; submit with quantized=false "
        "or enable quantized scoring before registering");
    response.served_version = resolved.value().version;
    promise.set_value(std::move(response));
    return future;
  }
  item.pairs = std::move(request.pairs);
  item.deadline_ns = request.deadline_ns;
  item.quantized = request.quantized;
  // Pin the request to the concrete version it resolved to: from here on a
  // registry Publish (hot-swap) cannot retarget it, and the version rides in
  // the coalescing key so pre-swap and post-swap requests never share a
  // batch.
  item.version = resolved.value().version;
  return batcher_.Submit(std::move(item));
}

std::future<ScoreResponse> LinkageService::SubmitPinned(
    std::shared_ptr<const core::EntityLinkageModel> model,
    data::PairDataset pairs, int64_t deadline_ns, bool quantized,
    int version_tag) {
  BatchWorkItem item;
  item.model = std::move(model);
  item.pairs = std::move(pairs);
  item.deadline_ns = deadline_ns;
  item.quantized = quantized;
  item.version = version_tag;
  return batcher_.Submit(std::move(item));
}

ScoreResponse LinkageService::Score(ScoreRequest request) {
  return SubmitAsync(std::move(request)).get();
}

std::future<SearchResponse> LinkageService::SearchAsync(SearchRequest request) {
  if (gallery_ == nullptr) {
    return FailedSearch(
        FailedPreconditionError(
            "this service was built without a gallery; pass one in "
            "ServiceOptions::gallery to serve searches"),
        /*served_version=*/0);
  }
  if (request.k < 1 || request.probe_k < request.k) {
    return FailedSearch(
        InvalidArgumentError("SearchAsync: need 1 <= k <= probe_k, got k=" +
                             std::to_string(request.k) + " probe_k=" +
                             std::to_string(request.probe_k)),
        /*served_version=*/0);
  }
  StatusOr<ResolvedModel> resolved =
      registry_.Resolve(request.model, request.version);
  if (!resolved.ok()) {
    return FailedSearch(resolved.status(), /*served_version=*/0);
  }
  const int served_version = resolved.value().version;
  if (request.quantized && !resolved.value().model->SupportsQuantizedScoring()) {
    batcher_.RecordFailedSubmission();
    return FailedSearch(
        FailedPreconditionError(
            "model '" + request.model +
            "' does not support quantized scoring; submit with "
            "quantized=false or enable quantized scoring before registering"),
        served_version);
  }

  // Index probe on the calling thread, so that a failure here (malformed
  // query) never occupies batcher admission. It is not cheap: in a traced
  // perfbench `search` run (200k records, 4 vCPUs) its p50 was 9.1 ms,
  // ~20x the 0.47 ms of the batch-64 model forward that re-ranks its hits.
  StatusOr<std::vector<gallery::Candidate>> hits_or =
      gallery_->Search(request.query, request.probe_k);
  if (!hits_or.ok()) {
    return FailedSearch(hits_or.status(), served_version);
  }
  std::vector<gallery::Candidate> hits = std::move(hits_or).value();
  ADAMEL_COUNTER_ADD("serve.search.requests", 1);
  ADAMEL_COUNTER_ADD("serve.search.probed", static_cast<double>(hits.size()));
  if (hits.empty()) {
    SearchResponse response;
    response.served_version = served_version;
    std::promise<SearchResponse> promise;
    std::future<SearchResponse> future = promise.get_future();
    promise.set_value(std::move(response));
    return future;
  }

  data::PairDataset pairs(gallery_->schema());
  for (const gallery::Candidate& hit : hits) {
    StatusOr<data::Record> record = gallery_->GetRecord(hit.index);
    if (!record.ok()) {
      // store_records=false galleries land here; enrolled indices cannot
      // otherwise disappear (the gallery only grows).
      return FailedSearch(record.status(), served_version);
    }
    data::LabeledPair pair;
    pair.left = request.query;
    pair.right = std::move(record).value();
    pair.label = data::kUnlabeled;
    pairs.Add(std::move(pair));
  }

  BatchWorkItem item;
  item.model = std::move(resolved.value().model);
  item.pairs = std::move(pairs);
  item.deadline_ns = request.deadline_ns;
  item.quantized = request.quantized;
  item.version = served_version;
  std::future<ScoreResponse> scored = batcher_.Submit(std::move(item));

  // Deferred adapter: ranks the batch scores into the final top-k when the
  // caller collects the future. The candidate list rides along by move.
  const int k = request.k;
  return std::async(
      std::launch::deferred,
      [scored = std::move(scored), hits = std::move(hits), k,
       served_version]() mutable -> SearchResponse {
        ScoreResponse scores = scored.get();
        SearchResponse response;
        response.batch_pairs = scores.batch_pairs;
        response.done_ns = scores.done_ns;
        response.served_version = served_version;
        if (!scores.status.ok()) {
          response.status = std::move(scores.status);
          return response;
        }
        for (size_t i = 0; i < hits.size(); ++i) {
          hits[i].score = scores.scores[i];
        }
        std::sort(hits.begin(), hits.end(),
                  [](const gallery::Candidate& a, const gallery::Candidate& b) {
                    if (a.score != b.score) {
                      return a.score > b.score;
                    }
                    return a.index < b.index;
                  });
        if (static_cast<int>(hits.size()) > k) {
          hits.resize(static_cast<size_t>(k));
        }
        response.candidates = std::move(hits);
        return response;
      });
}

}  // namespace adamel::serve
