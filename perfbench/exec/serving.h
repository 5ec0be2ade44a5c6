// Pieces the two serving workloads (score, search) share: the span-recording
// model decorator, the open-loop outcome record, and reply assembly.
#ifndef PERFBENCH_EXEC_SERVING_H_
#define PERFBENCH_EXEC_SERVING_H_

#include <memory>
#include <string>
#include <vector>

#include "core/linkage_model.h"
#include "exec/common.h"
#include "serve/batcher.h"

namespace perfbench {

/// Forwards every call to `inner` and, around the batcher's calls into the
/// model (`ScorePairs` / `ScorePairsQuantized`), records a
/// `core.score_pairs` span. Registered beside the plain model so traced and
/// untraced phases share one fitted model and stay bitwise comparable.
class TracedModel : public adamel::core::EntityLinkageModel {
 public:
  TracedModel(std::shared_ptr<const adamel::core::EntityLinkageModel> inner,
              SpanRecorder* spans);

  std::string Name() const override;
  adamel::Status Fit(const adamel::core::MelInputs& inputs) override;
  adamel::StatusOr<std::vector<float>> ScorePairs(
      adamel::data::PairSpan batch) const override;
  int64_t ParameterCount() const override;
  bool SupportsQuantizedScoring() const override;
  adamel::StatusOr<std::vector<float>> ScorePairsQuantized(
      adamel::data::PairSpan batch) const override;

 private:
  std::shared_ptr<const adamel::core::EntityLinkageModel> inner_;
  SpanRecorder* spans_;
};

/// One open-loop operation as seen from outside: when it was due, sent,
/// returned from the submit call, admitted work started executing, and
/// completed, plus its outcome.
struct Outcome {
  int64_t due = 0;
  int64_t sent = 0;
  int64_t returned = 0;
  int64_t queue_ns = -1;  // -1: failed, or unknown (searches do not report it)
  int64_t done = 0;
  int64_t deadline = 0;   // 0: none
  adamel::StatusCode code = adamel::StatusCode::kOk;
  /// Succeeded and completed by its deadline.
  bool ok() const {
    return code == adamel::StatusCode::kOk && (deadline == 0 || done <= deadline);
  }
};

/// Writes the per-operation samples of a phase: latency from the due time
/// (null for failed, refused or late operations), generator lateness,
/// submit-call time, queue wait and execute time, and outcome counts. With
/// `spans`, also records each request's span tree: request >
/// load.lateness, `call_span` (the submit call), then either
/// serve.queue_wait + serve.execute (when the queue wait is known) or
/// serve.rerank_wait, whose child core.score_pairs is the request's batch
/// call into the model, matched by time among `batch_spans`.
void WriteOutcomes(const std::vector<Outcome>& outcomes,
                   const std::string& call_span,
                   const std::vector<Span>& batch_spans, SpanRecorder* spans,
                   Json* out);

/// BatcherStats difference, as reply fields.
void WriteBatcherDelta(const adamel::serve::BatcherStats& before,
                       const adamel::serve::BatcherStats& after, Json* out);

}  // namespace perfbench

#endif  // PERFBENCH_EXEC_SERVING_H_
