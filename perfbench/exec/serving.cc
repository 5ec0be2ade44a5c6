#include "exec/serving.h"

#include <algorithm>
#include <limits>
#include <utility>

namespace perfbench {

TracedModel::TracedModel(
    std::shared_ptr<const adamel::core::EntityLinkageModel> inner,
    SpanRecorder* spans)
    : inner_(std::move(inner)), spans_(spans) {}

std::string TracedModel::Name() const { return inner_->Name(); }

adamel::Status TracedModel::Fit(const adamel::core::MelInputs& /*inputs*/) {
  return adamel::FailedPreconditionError("TracedModel wraps a fitted model");
}

adamel::StatusOr<std::vector<float>> TracedModel::ScorePairs(
    adamel::data::PairSpan batch) const {
  const int64_t start = Now();
  adamel::StatusOr<std::vector<float>> scores = inner_->ScorePairs(batch);
  spans_->Add("core.score_pairs", start, Now(), -1, -1);
  return scores;
}

int64_t TracedModel::ParameterCount() const {
  return inner_->ParameterCount();
}

bool TracedModel::SupportsQuantizedScoring() const {
  return inner_->SupportsQuantizedScoring();
}

adamel::StatusOr<std::vector<float>> TracedModel::ScorePairsQuantized(
    adamel::data::PairSpan batch) const {
  const int64_t start = Now();
  adamel::StatusOr<std::vector<float>> scores =
      inner_->ScorePairsQuantized(batch);
  spans_->Add("core.score_pairs", start, Now(), -1, -1);
  return scores;
}

namespace {

// Batch spans start at most this long before a request's execution start
// as reconstructed from outside (admission is stamped inside the submit
// call, which the reconstruction cannot see).
constexpr int64_t kMatchSlackNs = 100'000;

}  // namespace

void WriteOutcomes(const std::vector<Outcome>& outcomes,
                   const std::string& call_span,
                   const std::vector<Span>& batch_spans, SpanRecorder* spans,
                   Json* out) {
  std::vector<double> latency_ms;
  std::vector<double> lateness_ms;
  std::vector<double> call_us;
  std::vector<double> queue_ms;
  std::vector<double> execute_ms;
  int64_t ok = 0;
  int64_t rejected = 0;
  int64_t expired = 0;
  int64_t late = 0;
  int64_t errors = 0;
  for (const Outcome& o : outcomes) {
    lateness_ms.push_back(static_cast<double>(o.sent - o.due) * 1e-6);
    call_us.push_back(static_cast<double>(o.returned - o.sent) * 1e-3);
    if (o.ok()) {
      ++ok;
      latency_ms.push_back(static_cast<double>(o.done - o.due) * 1e-6);
    } else {
      latency_ms.push_back(std::numeric_limits<double>::infinity());
      if (o.code == adamel::StatusCode::kResourceExhausted) {
        ++rejected;
      } else if (o.code == adamel::StatusCode::kDeadlineExceeded) {
        ++expired;
      } else if (o.code == adamel::StatusCode::kOk) {
        ++late;
      } else {
        ++errors;
      }
    }
    if (o.code == adamel::StatusCode::kOk && o.queue_ns >= 0) {
      queue_ms.push_back(static_cast<double>(o.queue_ns) * 1e-6);
      execute_ms.push_back(
          static_cast<double>(o.done - o.returned - o.queue_ns) * 1e-6);
    }
  }
  out->Int("sent", static_cast<int64_t>(outcomes.size()))
      .Int("ok", ok)
      .Int("rejected", rejected)
      .Int("expired", expired)
      .Int("late", late)
      .Int("errors", errors)
      .Nums("latency_ms", latency_ms)
      .Nums("lateness_ms", lateness_ms)
      .Nums("call_us", call_us)
      .Nums("queue_ms", queue_ms)
      .Nums("execute_ms", execute_ms);
  if (spans == nullptr) {
    return;
  }
  std::vector<Span> batches = batch_spans;
  std::sort(batches.begin(), batches.end(),
            [](const Span& a, const Span& b) { return a.end < b.end; });
  for (size_t r = 0; r < outcomes.size(); ++r) {
    const Outcome& o = outcomes[r];
    if (o.code != adamel::StatusCode::kOk || o.done == 0) {
      continue;
    }
    const auto request = static_cast<int64_t>(r);
    const int64_t root = spans->Add("request", o.due, o.done, -1, request);
    spans->Add("load.lateness", o.due, o.sent, root, request);
    spans->Add(call_span, o.sent, o.returned, root, request);
    int64_t waiting_from = o.returned;
    int64_t execute = -1;
    if (o.queue_ns >= 0) {
      waiting_from = o.returned + o.queue_ns;
      spans->Add("serve.queue_wait", o.returned, waiting_from, root, request);
      execute = spans->Add("serve.execute", waiting_from, o.done, root, request);
    } else {
      execute =
          spans->Add("serve.rerank_wait", o.returned, o.done, root, request);
    }
    // The request's batch: the latest model call ending by its completion.
    auto it = std::upper_bound(
        batches.begin(), batches.end(), o.done,
        [](int64_t done, const Span& s) { return done < s.end; });
    if (it != batches.begin()) {
      const Span& batch = *std::prev(it);
      if (batch.start + kMatchSlackNs >= waiting_from) {
        spans->Add(batch.name, batch.start, batch.end, execute, request);
      }
    }
  }
}

void WriteBatcherDelta(const adamel::serve::BatcherStats& before,
                       const adamel::serve::BatcherStats& after, Json* out) {
  Json delta;
  delta.Int("submitted", after.submitted - before.submitted)
      .Int("rejected", after.rejected - before.rejected)
      .Int("timed_out", after.timed_out - before.timed_out)
      .Int("failed", after.failed - before.failed)
      .Int("batches", after.batches - before.batches)
      .Int("pairs_scored", after.pairs_scored - before.pairs_scored)
      .Int("coalesced_requests",
           after.coalesced_requests - before.coalesced_requests);
  out->Raw("batcher", delta.Done());
}

}  // namespace perfbench
