// Tests for src/gallery: enrollment/search correctness properties (probe vs
// exhaustive recall, deterministic tie-breaking), Status-first validation,
// bitwise save/load round trips, bucket-overflow stop-wording, concurrent
// Enroll/Search (the TSan target), the CandidateSource adapter, and model
// re-ranking. Corruption sweeps over the persisted format live in
// corruption_test.cpp.

#include <algorithm>
#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/status.h"
#include "data/candidate_source.h"
#include "data/record.h"
#include "gallery/gallery.h"
#include "gallery/gallery_source.h"
#include "nn/serialize.h"

namespace adamel::gallery {
namespace {

data::Record MakeRecord(const std::string& id, const std::string& name,
                        const std::string& extra = "") {
  data::Record record;
  record.id = id;
  record.source = "test";
  record.values = {name, extra};
  return record;
}

data::Schema TwoAttrSchema() { return data::Schema({"name", "extra"}); }

GalleryOptions SmallOptions() {
  GalleryOptions options;
  options.embedding.dim = 32;
  options.num_shards = 4;
  return options;
}

// Random multi-token names from a moderate vocabulary: records share tokens
// often enough that bucket probes have real work to do.
std::vector<data::Record> RandomRecords(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<data::Record> records;
  records.reserve(n);
  for (int i = 0; i < n; ++i) {
    std::string name;
    const int tokens = 2 + static_cast<int>(rng.UniformInt(3));
    for (int t = 0; t < tokens; ++t) {
      if (t > 0) name += ' ';
      name += "tok" + std::to_string(rng.UniformInt(40));
    }
    records.push_back(MakeRecord("rec" + std::to_string(i), name,
                                 "extra" + std::to_string(rng.UniformInt(8))));
  }
  return records;
}

std::vector<int64_t> Indices(const std::vector<Candidate>& hits) {
  std::vector<int64_t> out;
  out.reserve(hits.size());
  for (const Candidate& hit : hits) {
    out.push_back(hit.index);
  }
  return out;
}

// ------------------------------------------------------------- validation

TEST(GalleryTest, CreateRejectsBadConfiguration) {
  EXPECT_EQ(Gallery::Create(data::Schema(), SmallOptions()).status().code(),
            StatusCode::kInvalidArgument);

  GalleryOptions bad_shards = SmallOptions();
  bad_shards.num_shards = 0;
  EXPECT_EQ(Gallery::Create(TwoAttrSchema(), bad_shards).status().code(),
            StatusCode::kInvalidArgument);

  GalleryOptions bad_key = SmallOptions();
  bad_key.key_attributes = {"no_such_attribute"};
  const Status status =
      Gallery::Create(TwoAttrSchema(), bad_key).status();
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("no_such_attribute"), std::string::npos);
}

TEST(GalleryTest, EnrollRejectsMalformedRecordsWithoutMutating) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  std::vector<data::Record> records = {MakeRecord("a", "fine record")};
  records.push_back(records[0]);
  records[1].id = "b";
  records[1].values.pop_back();  // wrong arity
  EXPECT_EQ(gallery->Enroll(records).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(gallery->size(), 0);  // record "a" was not half-enrolled
}

TEST(GalleryTest, SearchValidatesQueryAndK) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const std::vector<data::Record> records = {MakeRecord("a", "abbey road")};
  ASSERT_TRUE(gallery->Enroll(records).ok());
  EXPECT_EQ(gallery->Search(records[0], 0).status().code(),
            StatusCode::kInvalidArgument);
  data::Record short_query = records[0];
  short_query.values.pop_back();
  EXPECT_EQ(gallery->Search(short_query, 5).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(GalleryTest, EmptyGallerySearchIsEmptyNotAnError) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const auto hits = gallery->Search(MakeRecord("q", "anything"), 5);
  ASSERT_TRUE(hits.ok());
  EXPECT_TRUE(hits.value().empty());
}

// ------------------------------------------------------- search properties

TEST(GalleryTest, FindsEnrolledDuplicate) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  std::vector<data::Record> records = RandomRecords(100, 7);
  records.push_back(MakeRecord("dup", records[3].values[0],
                               records[3].values[1]));
  ASSERT_TRUE(gallery->Enroll(records).ok());
  // Searching with record 3's content must put the two identical records
  // on top (identical codes; ties broken by index).
  const auto hits = gallery->Search(records[3], 2).value();
  ASSERT_EQ(hits.size(), 2u);
  std::set<std::string> top = {hits[0].id, hits[1].id};
  EXPECT_TRUE(top.count("rec3"));
  EXPECT_TRUE(top.count("dup"));
  EXPECT_FLOAT_EQ(hits[0].score, hits[1].score);
}

TEST(GalleryTest, SharedTokenMakesProbeExactlyExhaustive) {
  // Every record shares the token "anchor", so with unlimited buckets one
  // probe reaches the whole gallery: Search must equal SearchExhaustive
  // exactly, hit for hit.
  GalleryOptions options = SmallOptions();
  options.max_bucket_postings = 0;
  auto gallery = Gallery::Create(TwoAttrSchema(), options).value();
  std::vector<data::Record> records = RandomRecords(80, 11);
  for (auto& record : records) {
    record.values[0] = "anchor " + record.values[0];
  }
  ASSERT_TRUE(gallery->Enroll(records).ok());
  for (int q = 0; q < 10; ++q) {
    const auto probed = gallery->Search(records[q * 7], 15).value();
    const auto exhaustive =
        gallery->SearchExhaustive(records[q * 7], 15).value();
    ASSERT_EQ(Indices(probed), Indices(exhaustive)) << "query " << q;
    for (size_t i = 0; i < probed.size(); ++i) {
      EXPECT_EQ(probed[i].score, exhaustive[i].score);
      EXPECT_EQ(probed[i].id, exhaustive[i].id);
    }
  }
}

TEST(GalleryTest, ProbeRecallAgainstExhaustiveOracle) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const std::vector<data::Record> records = RandomRecords(400, 13);
  ASSERT_TRUE(gallery->Enroll(records).ok());
  constexpr int kTop = 10;
  int found = 0;
  int total = 0;
  for (int q = 0; q < 40; ++q) {
    const data::Record& query = records[q * 9];
    const auto probed = Indices(gallery->Search(query, kTop).value());
    const auto oracle = Indices(gallery->SearchExhaustive(query, kTop).value());
    const std::set<int64_t> probed_set(probed.begin(), probed.end());
    for (int64_t want : oracle) {
      ++total;
      found += probed_set.count(want) ? 1 : 0;
    }
  }
  ASSERT_GT(total, 0);
  const double recall = static_cast<double>(found) / total;
  EXPECT_GE(recall, 0.95) << found << "/" << total;
}

TEST(GalleryTest, TiesBreakByAscendingIndexDeterministically) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  // Five identical records: all scores tie, so top-k order must be exactly
  // ascending gallery index, run after run.
  std::vector<data::Record> records;
  for (int i = 0; i < 5; ++i) {
    records.push_back(MakeRecord("same" + std::to_string(i), "identical twin"));
  }
  const auto indices = gallery->EnrollAssigningIndices(records).value();
  std::vector<int64_t> sorted = indices;
  std::sort(sorted.begin(), sorted.end());
  for (int repeat = 0; repeat < 3; ++repeat) {
    const auto hits = gallery->Search(records[0], 5).value();
    ASSERT_EQ(Indices(hits), sorted);
  }
}

TEST(GalleryTest, OverflowedBucketsStopMatching) {
  GalleryOptions options = SmallOptions();
  options.num_shards = 1;  // all postings share one shard's buckets
  options.max_bucket_postings = 4;
  auto gallery = Gallery::Create(TwoAttrSchema(), options).value();
  std::vector<data::Record> records;
  for (int i = 0; i < 10; ++i) {
    records.push_back(MakeRecord("r" + std::to_string(i), "stopword"));
  }
  ASSERT_TRUE(gallery->Enroll(records).ok());
  // The only token every record carries overflowed its bucket, so a probe
  // by that token alone reaches nothing...
  EXPECT_TRUE(gallery->Search(records[0], 5).value().empty());
  // ...while the exhaustive oracle still sees every record.
  EXPECT_EQ(gallery->SearchExhaustive(records[0], 5).value().size(), 5u);
}

TEST(GalleryTest, BucketAtExactlyTheCapIsStillProbed) {
  // The stop-word cap is inclusive: a token with exactly
  // max_bucket_postings postings still matches, and one more posting
  // overflows it.
  GalleryOptions options = SmallOptions();
  options.num_shards = 1;
  options.max_bucket_postings = 4;
  auto gallery = Gallery::Create(TwoAttrSchema(), options).value();
  std::vector<data::Record> records;
  for (int i = 0; i < 4; ++i) {
    records.push_back(MakeRecord("r" + std::to_string(i), "stopword"));
  }
  ASSERT_TRUE(gallery->Enroll(records).ok());
  EXPECT_EQ(gallery->Search(records[0], 10).value().size(), 4u);
  const std::vector<data::Record> fifth = {MakeRecord("r4", "stopword")};
  ASSERT_TRUE(gallery->Enroll(fifth).ok());
  EXPECT_TRUE(gallery->Search(records[0], 10).value().empty());
}

TEST(GalleryTest, GetRecordRoundTripsAndRejectsUnknownIndices) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const std::vector<data::Record> records = RandomRecords(20, 17);
  const auto indices = gallery->EnrollAssigningIndices(records).value();
  for (size_t r = 0; r < records.size(); ++r) {
    const data::Record loaded = gallery->GetRecord(indices[r]).value();
    EXPECT_EQ(loaded.id, records[r].id);
    EXPECT_EQ(loaded.values, records[r].values);
  }
  EXPECT_EQ(gallery->GetRecord(-1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(gallery->GetRecord(1'000'000).status().code(),
            StatusCode::kNotFound);
}

TEST(GalleryTest, StoreRecordsOffSavesMemoryButRefusesGetRecord) {
  GalleryOptions options = SmallOptions();
  options.store_records = false;
  auto gallery = Gallery::Create(TwoAttrSchema(), options).value();
  const std::vector<data::Record> records = RandomRecords(10, 19);
  const auto indices = gallery->EnrollAssigningIndices(records).value();
  EXPECT_EQ(gallery->GetRecord(indices[0]).status().code(),
            StatusCode::kFailedPrecondition);
  // Search still works: the index needs codes and buckets, not records.
  EXPECT_FALSE(gallery->Search(records[0], 3).value().empty());
}

// ------------------------------------------------------------ persistence

TEST(GalleryTest, SaveLoadRoundTripIsBitwise) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const std::vector<data::Record> records = RandomRecords(150, 23);
  ASSERT_TRUE(gallery->Enroll(records).ok());
  const std::string path = ::testing::TempDir() + "/gallery_roundtrip.idx";
  ASSERT_TRUE(gallery->Save(path).ok());

  const auto loaded = Gallery::Load(path).value();
  EXPECT_EQ(loaded->size(), gallery->size());
  EXPECT_TRUE(loaded->schema() == gallery->schema());
  // Bitwise: re-serializing the loaded gallery reproduces the bytes.
  EXPECT_EQ(loaded->Serialize(), gallery->Serialize());
  // And the loaded index answers searches identically.
  for (int q = 0; q < 10; ++q) {
    const auto before = gallery->Search(records[q * 11], 8).value();
    const auto after = loaded->Search(records[q * 11], 8).value();
    ASSERT_EQ(before.size(), after.size());
    for (size_t i = 0; i < before.size(); ++i) {
      EXPECT_EQ(before[i].index, after[i].index);
      EXPECT_EQ(before[i].score, after[i].score);
    }
  }
}

TEST(GalleryTest, RoundTripWithoutStoredRecords) {
  GalleryOptions options = SmallOptions();
  options.store_records = false;
  auto gallery = Gallery::Create(TwoAttrSchema(), options).value();
  const std::vector<data::Record> records = RandomRecords(30, 29);
  ASSERT_TRUE(gallery->Enroll(records).ok());
  const auto loaded = Gallery::Deserialize(gallery->Serialize()).value();
  EXPECT_EQ(loaded->size(), gallery->size());
  EXPECT_FALSE(loaded->options().store_records);
  EXPECT_EQ(loaded->Serialize(), gallery->Serialize());
}

TEST(GalleryTest, LoadOfMissingFileIsNotFound) {
  EXPECT_EQ(Gallery::Load(::testing::TempDir() + "/no_such_gallery.idx")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST(GalleryTest, LoadOfForeignFileIsDataLoss) {
  const std::string path = ::testing::TempDir() + "/not_a_gallery.idx";
  ASSERT_TRUE(nn::AtomicWriteFile(path, "these are not index bytes").ok());
  EXPECT_EQ(Gallery::Load(path).status().code(), StatusCode::kDataLoss);
}

TEST(GalleryTest, DeserializeRejectsForeignCheckpointAsDataLoss) {
  // A valid *container* that is not a gallery (wrong sections) must still be
  // kDataLoss, not a crash or a half-built index.
  nn::BlobWriter blob;
  blob.WriteU32(42);
  nn::CheckpointWriter writer;
  writer.AddSection("weights", blob.TakeBuffer());
  EXPECT_EQ(Gallery::Deserialize(writer.Serialize()).status().code(),
            StatusCode::kDataLoss);
}

// ------------------------------------------------------------- concurrency

TEST(GalleryTest, ConcurrentEnrollAndSearchKeepInvariants) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const std::vector<data::Record> seed_records = RandomRecords(50, 31);
  ASSERT_TRUE(gallery->Enroll(seed_records).ok());

  constexpr int kEnrollers = 2;
  constexpr int kSearchers = 2;
  constexpr int kBatches = 8;
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  for (int e = 0; e < kEnrollers; ++e) {
    threads.emplace_back([&, e] {
      for (int b = 0; b < kBatches; ++b) {
        const auto records =
            RandomRecords(20, 1000 + static_cast<uint64_t>(e) * 100 + b);
        std::vector<data::Record> renamed = records;
        for (auto& record : renamed) {
          record.id += "_e" + std::to_string(e) + "b" + std::to_string(b);
        }
        if (!gallery->Enroll(renamed).ok()) {
          failed = true;
        }
      }
    });
  }
  for (int s = 0; s < kSearchers; ++s) {
    threads.emplace_back([&, s] {
      for (int b = 0; b < kBatches * 4; ++b) {
        const auto hits =
            gallery->Search(seed_records[(s * 13 + b) % seed_records.size()],
                            10);
        if (!hits.ok()) {
          failed = true;
          continue;
        }
        // Scores must arrive ranked even while shards grow underneath.
        for (size_t i = 1; i < hits.value().size(); ++i) {
          if (hits.value()[i - 1].score < hits.value()[i].score) {
            failed = true;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_FALSE(failed.load());
  EXPECT_EQ(gallery->size(),
            50 + static_cast<int64_t>(kEnrollers) * kBatches * 20);
}

// -------------------------------------------------------- candidate source

TEST(GallerySourceTest, FindsDuplicatePairs) {
  const data::Schema schema = TwoAttrSchema();
  std::vector<data::Record> records = RandomRecords(60, 37);
  // Plant an exact duplicate of record 5 at the end.
  records.push_back(records[5]);
  records.back().id = "planted";
  GallerySourceOptions options;
  options.gallery = SmallOptions();
  options.probe_k = 5;
  const GalleryCandidateSource source(options);
  EXPECT_EQ(source.Name(), "gallery-index");
  const auto pairs = source.CandidatePairs(records, schema).value();
  bool found = false;
  int last_left = -1;
  int last_right = -1;
  for (const data::CandidatePair& pair : pairs) {
    EXPECT_LT(pair.left, pair.right);
    // Sorted, duplicate-free output (the CandidateSource contract).
    EXPECT_TRUE(pair.left > last_left ||
                (pair.left == last_left && pair.right > last_right));
    last_left = pair.left;
    last_right = pair.right;
    if (pair.left == 5 && pair.right == static_cast<int>(records.size()) - 1) {
      found = true;
    }
  }
  EXPECT_TRUE(found) << "duplicate pair (5, planted) not surfaced";
}

TEST(GallerySourceTest, ValidatesLikeEveryCandidateSource) {
  const GalleryCandidateSource source;
  const std::vector<data::Record> empty;
  EXPECT_EQ(source.CandidatePairs(empty, TwoAttrSchema()).status().code(),
            StatusCode::kInvalidArgument);

  GallerySourceOptions bad;
  bad.gallery.key_attributes = {"nope"};
  const GalleryCandidateSource bad_source(bad);
  const std::vector<data::Record> records = {MakeRecord("a", "x")};
  EXPECT_EQ(bad_source.CandidatePairs(records, TwoAttrSchema())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

// --------------------------------------------------------------- re-rank

// Deterministic stand-in scorer: prefers candidates whose name length is
// close to the query's (so re-ranking visibly reorders index hits).
class LengthAffinityModel : public core::EntityLinkageModel {
 public:
  std::string Name() const override { return "length-affinity-stub"; }
  Status Fit(const core::MelInputs& /*inputs*/) override { return OkStatus(); }
  int64_t ParameterCount() const override { return 0; }
  StatusOr<std::vector<float>> ScorePairs(
      data::PairSpan batch) const override {
    std::vector<float> scores;
    scores.reserve(static_cast<size_t>(batch.size()));
    for (const data::LabeledPair& pair : batch) {
      const float gap = static_cast<float>(pair.left.values[0].size()) -
                        static_cast<float>(pair.right.values[0].size());
      scores.push_back(1.0f / (1.0f + gap * gap));
    }
    return scores;
  }
};

TEST(RerankTest, ModelScoresReplaceIndexScores) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const std::vector<data::Record> records = RandomRecords(40, 41);
  ASSERT_TRUE(gallery->Enroll(records).ok());
  const data::Record& query = records[0];
  auto hits = gallery->Search(query, 10).value();
  ASSERT_FALSE(hits.empty());

  const LengthAffinityModel model;
  const auto reranked =
      RerankCandidates(model, *gallery, query, hits, 5).value();
  ASSERT_LE(reranked.size(), 5u);
  for (size_t i = 0; i < reranked.size(); ++i) {
    // Every returned score is the model's, recomputable offline from the
    // same pair — the bitwise-identical contract in miniature.
    const data::Record right = gallery->GetRecord(reranked[i].index).value();
    data::PairDataset one(gallery->schema());
    data::LabeledPair pair;
    pair.left = query;
    pair.right = right;
    one.Add(std::move(pair));
    EXPECT_EQ(reranked[i].score, model.ScorePairs(one).value()[0]);
    if (i > 0) {
      EXPECT_GE(reranked[i - 1].score, reranked[i].score);
    }
  }
}

TEST(RerankTest, RejectsBadKAndMissingRecords) {
  auto gallery = Gallery::Create(TwoAttrSchema(), SmallOptions()).value();
  const std::vector<data::Record> records = RandomRecords(5, 43);
  ASSERT_TRUE(gallery->Enroll(records).ok());
  const LengthAffinityModel model;
  EXPECT_EQ(RerankCandidates(model, *gallery, records[0], {}, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  Candidate bogus;
  bogus.index = 999'999;
  EXPECT_EQ(RerankCandidates(model, *gallery, records[0], {bogus}, 3)
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace adamel::gallery
