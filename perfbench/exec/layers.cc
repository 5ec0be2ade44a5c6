#include "exec/layers.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "text/embedding.h"
#include "text/tokenizer.h"

namespace perfbench {
namespace {

using adamel::data::PairSpan;

constexpr int kBatchSizes[] = {1, 16, 64};
// Pairs processed per batch size and round; the reported figure is the
// median over rounds.
constexpr int kPairsPerRound = 1024;
constexpr int kRounds = 5;

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Median over rounds of `body(batch_index)` timed across one round of
// kPairsPerRound pairs in batches of `b`; returns microseconds per pair.
template <typename Body>
double UsPerPair(int b, int batches_available, const Body& body) {
  const int calls = kPairsPerRound / b;
  std::vector<double> rounds;
  for (int r = 0; r < kRounds; ++r) {
    const int64_t start = Now();
    for (int c = 0; c < calls; ++c) {
      body(c % batches_available);
    }
    rounds.push_back(static_cast<double>(Now() - start) * 1e-3 /
                     (calls * b));
  }
  return Median(rounds);
}

}  // namespace

void CoreLayers(const adamel::core::TrainedAdamel& trained, PairSpan pairs,
                Json* out) {
  const adamel::core::FeatureExtractor& extractor = trained.extractor();
  const adamel::core::AdamelModel& model = trained.model();
  const adamel::core::FeaturizedPairs all = extractor.Featurize(pairs);
  const int cols = all.matrix.cols();
  for (const int b : kBatchSizes) {
    const int available = pairs.size() / b;
    const double featurize = UsPerPair(b, available, [&](int i) {
      const auto features = extractor.Featurize(pairs.Subspan(i * b, b));
      (void)features;
    });
    std::vector<adamel::nn::Tensor> inputs;
    for (int i = 0; i < available; ++i) {
      const auto begin = all.matrix.data().begin() +
                         static_cast<std::ptrdiff_t>(i) * b * cols;
      inputs.push_back(adamel::nn::Tensor::FromVector(
          b, cols, std::vector<float>(begin, begin + b * cols)));
    }
    const double forward = UsPerPair(b, available, [&](int i) {
      const auto output = model.Forward(inputs[static_cast<size_t>(i)]);
      (void)output;
    });
    const std::string suffix = ".b" + std::to_string(b);
    out->Num("core.featurize_us_per_pair" + suffix, featurize);
    out->Num("core.forward_us_per_pair" + suffix, forward);
    if (b == 16 && trained.HasQuantized()) {
      const double scored = UsPerPair(b, available, [&](int i) {
        const auto scores =
            trained.ScorePairsQuantized(pairs.Subspan(i * b, b));
        (void)scores;
      });
      out->Num("core.qscore_us_per_pair.b16", scored - featurize);
    }
  }
}

void TextLayers(PairSpan pairs, int dim, Json* out) {
  const adamel::text::Tokenizer tokenizer;
  std::vector<std::string> values;
  for (const adamel::data::LabeledPair& pair : pairs) {
    for (const adamel::data::Record* record : {&pair.left, &pair.right}) {
      values.insert(values.end(), record->values.begin(),
                    record->values.end());
    }
  }
  std::vector<double> tokenize_rounds;
  std::set<std::string> distinct;
  for (int r = 0; r < kRounds; ++r) {
    const int64_t start = Now();
    for (const std::string& value : values) {
      const std::vector<std::string> tokens = tokenizer.Tokenize(value);
      if (r == 0) {
        distinct.insert(tokens.begin(), tokens.end());
      }
    }
    tokenize_rounds.push_back(static_cast<double>(Now() - start) * 1e-3 /
                              std::max<size_t>(1, values.size()));
  }
  out->Num("text.tokenize_us_per_value", Median(tokenize_rounds));

  const std::vector<std::string> tokens(distinct.begin(), distinct.end());
  constexpr size_t kChunk = 8;
  std::vector<double> embed_rounds;
  for (int r = 0; r < kRounds; ++r) {
    adamel::text::EmbeddingOptions options;
    options.dim = dim;
    const adamel::text::HashTextEmbedding cold(options);
    const int64_t start = Now();
    for (size_t i = 0; i < tokens.size(); i += kChunk) {
      const std::vector<std::string> chunk(
          tokens.begin() + static_cast<std::ptrdiff_t>(i),
          tokens.begin() + static_cast<std::ptrdiff_t>(
                               std::min(tokens.size(), i + kChunk)));
      const std::vector<float> embedded = cold.EmbedTokens(chunk);
      (void)embedded;
    }
    embed_rounds.push_back(static_cast<double>(Now() - start) * 1e-3 /
                           std::max<size_t>(1, tokens.size()));
  }
  out->Num("text.embed_us_per_token", Median(embed_rounds));
}

}  // namespace perfbench
