// Per-layer microbenchmarks, timed from outside around the public entry
// points of the core and text modules, on a workload's own pairs.
#ifndef PERFBENCH_EXEC_LAYERS_H_
#define PERFBENCH_EXEC_LAYERS_H_

#include "core/trainer.h"
#include "data/pair_dataset.h"
#include "exec/common.h"

namespace perfbench {

/// core.featurize_us_per_pair.b{1,16,64} and core.forward_us_per_pair.b*
/// (`FeatureExtractor::Featurize`, `AdamelModel::Forward`), plus
/// core.qscore_us_per_pair.b16 (`ScorePairsQuantized` minus `Featurize`)
/// when the model has an int8 twin. `pairs` needs at least 64 pairs.
void CoreLayers(const adamel::core::TrainedAdamel& trained,
                adamel::data::PairSpan pairs, Json* out);

/// text.tokenize_us_per_value (`Tokenizer::Tokenize` over every attribute
/// value of `pairs`) and text.embed_us_per_token (`EmbedTokens` of the
/// distinct tokens on a fresh, cold `HashTextEmbedding` of width `dim`).
void TextLayers(adamel::data::PairSpan pairs, int dim, Json* out);

}  // namespace perfbench

#endif  // PERFBENCH_EXEC_LAYERS_H_
