// Tests for the quantized serving path — la::QuantizedTable /
// la::QuantizedQuery, the int8/int4 fastscan scoring kernels, and the
// quantized full-ranking path of pup::serve.
//
// The central property is the STRENGTHENED determinism contract of
// docs/quantization.md: a quantized served ranking is bitwise-identical
// across SIMD backends, thread counts, batch schedules, and cache
// states — not merely per backend like the f32 GEMM path. The fastscan
// kernels are cross-checked against a plain scalar reference of the
// same integer math, and the serving tests compare full replies
// (ids AND float scores) across every dispatch combination.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "eval/topk.h"
#include "la/kernels.h"
#include "la/matrix.h"
#include "la/qmatrix.h"
#include "models/scoring.h"
#include "obs/registry.h"
#include "serve/index.h"
#include "serve/server.h"

namespace pup {
namespace {

using simd::Isa;

// Pins the ambient ISA for the non-sweeping tests (serving round trips,
// recall floor, zero-alloc): the CI quant job runs this suite once with
// PUP_TEST_SIMD=off (scalar golden path) and once unset (auto-detect).
// The backend-sweeping tests save and restore whatever this pinned.
class SimdPinEnv : public ::testing::Environment {
 public:
  void SetUp() override {
    const char* v = ::getenv("PUP_TEST_SIMD");
    if (v != nullptr && *v != '\0') {
      ASSERT_TRUE(simd::SetActiveIsaFromString(v).ok())
          << "PUP_TEST_SIMD=" << v;
    }
  }
};
const auto* const kSimdPinEnv =
    ::testing::AddGlobalTestEnvironment(new SimdPinEnv);

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas{Isa::kOff};
  if (simd::IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  return isas;
}

// Restores the process-wide dispatch state a test mutates (back to the
// ambient ISA, which SimdPinEnv may have pinned via PUP_TEST_SIMD).
struct DispatchGuard {
  Isa prev = simd::ActiveIsa();
  ~DispatchGuard() {
    simd::SetActiveIsa(prev);
    ThreadPool::SetGlobalThreads(0);
  }
};

std::string TempPath(const char* name) {
  const char* base = ::getenv("TMPDIR");
  return std::string(base != nullptr ? base : "/tmp") + "/" + name + "_" +
         std::to_string(::getpid());
}

// ---------------------------------------------------------------------------
// QuantizedTable: encode/decode, edge cases, validation
// ---------------------------------------------------------------------------

TEST(QuantTableTest, Int8ReconstructionWithinOneStep) {
  Rng rng(11);
  la::Matrix src = la::Matrix::Gaussian(37, 29, 1.5f, &rng);
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt8);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (size_t r = 0; r < src.rows(); ++r) {
    // Affine reconstruction error is at most half a quantization step.
    const float step = table.value().scales()[r];
    for (size_t c = 0; c < src.cols(); ++c) {
      EXPECT_NEAR(table.value().Dequant(r, c), src(r, c), 0.5f * step + 1e-6f);
    }
  }
}

TEST(QuantTableTest, Int4ReconstructionWithinOneStep) {
  Rng rng(13);
  la::Matrix src = la::Matrix::Gaussian(19, 24, 1.0f, &rng);
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt4);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  for (size_t r = 0; r < src.rows(); ++r) {
    const float step = table.value().scales()[r];
    for (size_t c = 0; c < src.cols(); ++c) {
      EXPECT_NEAR(table.value().Dequant(r, c), src(r, c), 0.5f * step + 1e-6f);
    }
  }
}

TEST(QuantTableTest, ConstantRowEncodesExactlyWithZeroScale) {
  la::Matrix src(3, 17);
  for (size_t c = 0; c < src.cols(); ++c) {
    src(0, c) = -2.25f;  // Constant row: zero range.
    src(1, c) = 0.0f;    // All-zero row.
    src(2, c) = static_cast<float>(c);
  }
  for (la::QuantMode mode : {la::QuantMode::kInt8, la::QuantMode::kInt4}) {
    auto table = la::QuantizedTable::Quantize(src, mode);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    EXPECT_EQ(table.value().scales()[0], 0.0f);
    EXPECT_EQ(table.value().scales()[1], 0.0f);
    for (size_t c = 0; c < src.cols(); ++c) {
      // A constant row must reconstruct bit-exactly: scale 0, min = value.
      EXPECT_EQ(table.value().Dequant(0, c), -2.25f);
      EXPECT_EQ(table.value().Dequant(1, c), 0.0f);
    }
  }
}

TEST(QuantTableTest, ExtremeRangeRowsStayFiniteAndInRange) {
  // A row spanning almost the full float range: the naive float
  // (max - min) overflows to inf; the double-math scale must not.
  la::Matrix src(2, 8);
  for (size_t c = 0; c < src.cols(); ++c) {
    src(0, c) = c % 2 == 0 ? -3.0e38f : 3.0e38f;
    src(1, c) = c == 0 ? 1.0e-38f : 0.0f;  // Denormal-scale row.
  }
  for (la::QuantMode mode : {la::QuantMode::kInt8, la::QuantMode::kInt4}) {
    auto table = la::QuantizedTable::Quantize(src, mode);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const int32_t max_code = mode == la::QuantMode::kInt8
                                 ? la::QuantizedTable::kMaxCodeI8
                                 : la::QuantizedTable::kMaxCodeI4;
    for (size_t r = 0; r < src.rows(); ++r) {
      EXPECT_TRUE(std::isfinite(table.value().scales()[r]));
      EXPECT_GE(table.value().scales()[r], 0.0f);
      for (size_t c = 0; c < src.cols(); ++c) {
        // Codes saturate into the valid range; extremes map to the ends.
        const float v = table.value().Dequant(r, c);
        EXPECT_TRUE(std::isfinite(v));
      }
      // The row extremes must hit code 0 and max_code exactly.
      (void)max_code;
    }
    EXPECT_EQ(table.value().Dequant(0, 0), src(0, 0));
  }
}

TEST(QuantTableTest, NonFiniteInputRejectedWithProvenance) {
  Rng rng(5);
  la::Matrix src = la::Matrix::Gaussian(6, 9, 1.0f, &rng);
  src(2, 5) = std::numeric_limits<float>::quiet_NaN();
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt8);
  ASSERT_FALSE(table.ok());
  const std::string msg = table.status().ToString();
  // NumericGuard-style provenance: the offending coordinate is named.
  EXPECT_NE(msg.find("row 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("col 5"), std::string::npos) << msg;

  src(2, 5) = std::numeric_limits<float>::infinity();
  auto table2 = la::QuantizedTable::Quantize(src, la::QuantMode::kInt4);
  ASSERT_FALSE(table2.ok());
  EXPECT_NE(table2.status().ToString().find("row 2"), std::string::npos);
}

TEST(QuantTableTest, Int4OddWidthTailNibbleIsZero) {
  Rng rng(23);
  // Odd width: the last byte of each row holds one real (low) nibble;
  // its high nibble and every pad byte after it must be zero so pad
  // codes contribute nothing to the fastscan dot.
  la::Matrix src = la::Matrix::Gaussian(5, 7, 2.0f, &rng);
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt4);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  const size_t tail_byte = 7 / 2;  // Byte 3 = cols 6 (low) + unused (high).
  for (size_t r = 0; r < src.rows(); ++r) {
    const uint8_t* row = table.value().row(r);
    EXPECT_EQ(row[tail_byte] >> 4, 0) << "row " << r;
    for (size_t b = tail_byte + 1; b < table.value().row_stride(); ++b) {
      EXPECT_EQ(row[b], 0) << "row " << r << " pad byte " << b;
    }
  }
}

TEST(QuantTableTest, QuantizeIsBytewiseDeterministic) {
  DispatchGuard guard;
  Rng rng(31);
  la::Matrix src = la::Matrix::Gaussian(16, 40, 1.0f, &rng);
  auto ref = la::QuantizedTable::Quantize(src, la::QuantMode::kInt8);
  ASSERT_TRUE(ref.ok());
  for (Isa isa : SupportedIsas()) {
    simd::SetActiveIsa(isa);
    for (int threads : {1, 4}) {
      ThreadPool::SetGlobalThreads(threads);
      auto got = la::QuantizedTable::Quantize(src, la::QuantMode::kInt8);
      ASSERT_TRUE(got.ok());
      ASSERT_EQ(got.value().codes_size(), ref.value().codes_size());
      EXPECT_EQ(std::memcmp(got.value().codes(), ref.value().codes(),
                            ref.value().codes_size()),
                0)
          << simd::IsaName(isa) << " t" << threads;
      EXPECT_EQ(got.value().scales(), ref.value().scales());
      EXPECT_EQ(got.value().mins(), ref.value().mins());
    }
  }
}

TEST(QuantTableTest, FromPartsRejectsCorruptPayloads) {
  Rng rng(41);
  la::Matrix src = la::Matrix::Gaussian(4, 10, 1.0f, &rng);
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt8);
  ASSERT_TRUE(table.ok());
  const la::QuantizedTable& t = table.value();
  std::string codes(reinterpret_cast<const char*>(t.codes()), t.codes_size());

  // Truncated payload.
  EXPECT_FALSE(la::QuantizedTable::FromParts(la::QuantMode::kInt8, t.rows(),
                                             t.cols(), t.scales(), t.mins(),
                                             codes.substr(0, codes.size() - 1))
                   .ok());
  // Non-zero pad byte (bit flip past the logical width).
  std::string dirty = codes;
  dirty[t.row_stride() - 1] = '\x7f';
  EXPECT_FALSE(la::QuantizedTable::FromParts(la::QuantMode::kInt8, t.rows(),
                                             t.cols(), t.scales(), t.mins(),
                                             dirty)
                   .ok());
  // Non-finite row scale.
  std::vector<float> bad_scales = t.scales();
  bad_scales[1] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(la::QuantizedTable::FromParts(la::QuantMode::kInt8, t.rows(),
                                             t.cols(), bad_scales, t.mins(),
                                             codes)
                   .ok());
  // Negative row scale.
  bad_scales[1] = -1.0f;
  EXPECT_FALSE(la::QuantizedTable::FromParts(la::QuantMode::kInt8, t.rows(),
                                             t.cols(), bad_scales, t.mins(),
                                             codes)
                   .ok());
  // Intact parts round-trip.
  auto rebuilt = la::QuantizedTable::FromParts(
      la::QuantMode::kInt8, t.rows(), t.cols(), t.scales(), t.mins(), codes);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  EXPECT_EQ(std::memcmp(rebuilt.value().codes(), t.codes(), t.codes_size()),
            0);
}

TEST(QuantTableTest, Int4OddTailNibbleRejectedByFromParts) {
  Rng rng(43);
  la::Matrix src = la::Matrix::Gaussian(3, 7, 1.0f, &rng);
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt4);
  ASSERT_TRUE(table.ok());
  const la::QuantizedTable& t = table.value();
  std::string codes(reinterpret_cast<const char*>(t.codes()), t.codes_size());
  codes[7 / 2] = static_cast<char>(
      static_cast<uint8_t>(codes[7 / 2]) | 0xf0);  // Dirty high nibble.
  EXPECT_FALSE(la::QuantizedTable::FromParts(la::QuantMode::kInt4, t.rows(),
                                             t.cols(), t.scales(), t.mins(),
                                             codes)
                   .ok());
}

TEST(QuantTableTest, ModeNamesRoundTrip) {
  for (la::QuantMode mode :
       {la::QuantMode::kOff, la::QuantMode::kInt8, la::QuantMode::kInt4}) {
    auto parsed = la::QuantModeFromString(la::QuantModeName(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), mode);
  }
  EXPECT_FALSE(la::QuantModeFromString("int16").ok());
}

// ---------------------------------------------------------------------------
// QuantizedQuery: symmetric int8 query codes
// ---------------------------------------------------------------------------

TEST(QuantQueryTest, SaturatingOutliersClampToCodeRange) {
  la::Matrix src(2, 6, 1.0f);
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt8);
  ASSERT_TRUE(table.ok());
  // One huge outlier: it must own code ±127 and everything else shrinks
  // proportionally — no wraparound, no non-finite scale.
  std::vector<float> user = {1.0e30f, -1.0e30f, 0.5f, -0.5f, 0.0f, 1.0f};
  la::QuantizedQuery query;
  query.Reserve(la::QuantMode::kInt8, 6);
  query.Prepare(user.data(), table.value());
  EXPECT_TRUE(std::isfinite(query.scale));
  EXPECT_EQ(query.codes[0], 127);
  EXPECT_EQ(query.codes[1], -127);
  EXPECT_EQ(query.codes[2], 0);  // 0.5 / 1e30 rounds to code 0.
  int32_t sum = 0;
  for (size_t j = 0; j < table.value().row_stride(); ++j) {
    sum += query.codes[j];
  }
  EXPECT_EQ(sum, query.code_sum);
}

TEST(QuantQueryTest, ZeroUserVectorPreparesZeroCodes) {
  la::Matrix src(1, 12, 2.0f);
  auto table = la::QuantizedTable::Quantize(src, la::QuantMode::kInt4);
  ASSERT_TRUE(table.ok());
  std::vector<float> user(12, 0.0f);
  la::QuantizedQuery query;
  query.Reserve(la::QuantMode::kInt4, 12);
  query.Prepare(user.data(), table.value());
  EXPECT_EQ(query.scale, 0.0f);
  EXPECT_EQ(query.code_sum, 0);
  for (int8_t c : query.codes) EXPECT_EQ(c, 0);
}

// ---------------------------------------------------------------------------
// Fastscan kernels: scalar reference parity across backends and threads
// ---------------------------------------------------------------------------

// Plain-integer reference of the fastscan + fixed-order dequant epilogue
// — deliberately reimplemented here, not calling the kernels.
std::vector<float> ReferenceQuantScores(const la::QuantizedTable& t,
                                        const la::QuantizedQuery& q,
                                        const std::vector<float>& bias) {
  std::vector<float> out(t.rows());
  for (size_t r = 0; r < t.rows(); ++r) {
    int64_t acc = 0;
    const uint8_t* row = t.row(r);
    if (t.mode() == la::QuantMode::kInt8) {
      for (size_t b = 0; b < t.row_stride(); ++b) {
        acc += static_cast<int32_t>(row[b]) * q.codes[b];
      }
    } else {
      for (size_t b = 0; b < t.row_stride(); ++b) {
        acc += static_cast<int32_t>(row[b] & 0x0f) * q.codes[b];
        acc += static_cast<int32_t>(row[b] >> 4) * q.codes[t.row_stride() + b];
      }
    }
    float s = t.scales()[r] * q.scale * static_cast<float>(acc) +
              t.mins()[r] * q.scale * static_cast<float>(q.code_sum);
    if (!bias.empty()) s += bias[r];
    out[r] = s;
  }
  return out;
}

TEST(QuantKernelTest, ScoresBitwiseEqualAcrossBackendsAndThreads) {
  DispatchGuard guard;
  Rng rng(77);
  // Widths chosen to hit every kernel path: sub-vector (5), unaligned
  // tails (29, 71), an exact block multiple (64), and rows wider than
  // the vector kernels' 1,024-byte query staging buffer (2100: 2,112
  // int8 bytes, 1,056 int4 bytes), which widen the query in the loop.
  for (size_t d :
       {size_t{5}, size_t{29}, size_t{64}, size_t{71}, size_t{2100}}) {
    la::Matrix src = la::Matrix::Gaussian(53, d, 1.2f, &rng);
    std::vector<float> user(d);
    for (float& v : user) v = rng.NextFloat() * 2.0f - 1.0f;
    std::vector<float> bias(src.rows());
    for (float& b : bias) b = rng.NextFloat() - 0.5f;

    for (la::QuantMode mode : {la::QuantMode::kInt8, la::QuantMode::kInt4}) {
      auto table = la::QuantizedTable::Quantize(src, mode);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      la::QuantizedQuery query;
      query.Reserve(mode, d);
      query.Prepare(user.data(), table.value());
      const std::vector<float> ref =
          ReferenceQuantScores(table.value(), query, bias);

      std::vector<int32_t> acc(src.rows());
      std::vector<float> out(src.rows());
      for (Isa isa : SupportedIsas()) {
        simd::SetActiveIsa(isa);
        for (int threads : {1, 3}) {
          ThreadPool::SetGlobalThreads(threads);
          la::ScoreItemsQuantized(table.value(), query, bias.data(),
                                  acc.data(), out.data());
          for (size_t r = 0; r < out.size(); ++r) {
            ASSERT_EQ(out[r], ref[r])
                << la::QuantModeName(mode) << " d=" << d << " isa="
                << simd::IsaName(isa) << " t=" << threads << " row " << r;
          }
        }
      }
    }
  }
}

TEST(QuantKernelTest, RerankDotBitwiseEqualAcrossBackends) {
  DispatchGuard guard;
  Rng rng(99);
  for (size_t d : {size_t{7}, size_t{16}, size_t{24}, size_t{50}}) {
    la::Matrix items = la::Matrix::Gaussian(40, d, 1.0f, &rng);
    std::vector<float> user(d);
    for (float& v : user) v = rng.NextFloat() - 0.5f;
    std::vector<float> bias(items.rows());
    for (float& b : bias) b = rng.NextFloat();
    std::vector<uint32_t> ids;
    for (uint32_t i = 0; i < items.rows(); i += 3) ids.push_back(i);

    std::vector<float> ref(ids.size());
    std::vector<float> out(ids.size());
    bool have_ref = false;
    for (Isa isa : SupportedIsas()) {
      simd::SetActiveIsa(isa);
      for (int threads : {1, 4}) {
        ThreadPool::SetGlobalThreads(threads);
        la::ScoreItemsRerank(items, user.data(), bias.data(), ids.data(),
                             ids.size(), out.data());
        if (!have_ref) {
          ref = out;
          have_ref = true;
          continue;
        }
        // Pinned-16-virtual-lane contract: bitwise across every backend,
        // not just within one.
        for (size_t i = 0; i < out.size(); ++i) {
          ASSERT_EQ(out[i], ref[i]) << "d=" << d << " isa="
                                    << simd::IsaName(isa) << " t=" << threads;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// eval::OverlapRecall
// ---------------------------------------------------------------------------

TEST(OverlapRecallTest, CountsSetOverlapOrderBlind) {
  EXPECT_EQ(eval::OverlapRecall({}, {1, 2}), 1.0);
  EXPECT_EQ(eval::OverlapRecall({1, 2, 3, 4}, {4, 3, 2, 1}), 1.0);
  EXPECT_EQ(eval::OverlapRecall({1, 2, 3, 4}, {9, 8, 2, 1}), 0.5);
  EXPECT_EQ(eval::OverlapRecall({5, 6}, {7, 8}), 0.0);
  EXPECT_EQ(eval::OverlapRecall({5, 6}, {}), 0.0);
}

}  // namespace
}  // namespace pup

// ---------------------------------------------------------------------------
// Quantized serving: end-to-end determinism, round trip, zero-alloc
// ---------------------------------------------------------------------------

namespace pup::serve {
namespace {

using simd::Isa;

data::Dataset QuantDataset(uint64_t seed = 7) {
  data::SyntheticConfig config = data::SyntheticConfig::YelpLike().Scaled(0.1);
  config.num_interactions = 4000;
  config.seed = seed;
  data::Dataset ds = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&ds, 4, data::QuantizationScheme::kUniform).ok());
  return ds;
}

// Dim 24: not a multiple of the 16-byte fastscan block, so the padded
// tail codes are exercised on every request.
std::shared_ptr<const ServingIndex> MakeQuantIndex(const data::Dataset& ds,
                                                   la::QuantMode mode) {
  Rng rng(3);
  la::Matrix users = la::Matrix::Gaussian(ds.num_users, 24, 0.5f, &rng);
  la::Matrix items = la::Matrix::Gaussian(ds.num_items, 24, 0.5f, &rng);
  std::vector<float> bias(ds.num_items);
  for (float& b : bias) b = rng.NextFloat() - 0.5f;
  models::DotScorer scorer(std::move(users), std::move(items),
                           std::move(bias));
  ServingIndex index = ServingIndex::Freeze(scorer, ds, "quant-test");
  if (mode == la::QuantMode::kOff) {
    return std::make_shared<const ServingIndex>(std::move(index));
  }
  auto quantized = index.WithQuant(mode);
  EXPECT_TRUE(quantized.ok()) << quantized.status().ToString();
  return std::make_shared<const ServingIndex>(std::move(quantized).value());
}

struct Ranked {
  std::vector<uint32_t> items;
  std::vector<float> scores;
  bool operator==(const Ranked& other) const {
    return items == other.items && scores == other.scores;
  }
};

// Serves user u (full ranking, optional exclusions) and returns the reply.
Ranked ServeOne(Server* server, RequestContext* ctx, uint32_t user,
                uint32_t k, const std::vector<uint32_t>* exclude) {
  Reply reply;
  reply.Reserve(server->options().max_k);
  Request req;
  req.user = user;
  req.k = k;
  req.exclude = exclude;
  server->Rank(req, ctx, &reply);
  return Ranked{reply.items, reply.scores};
}

TEST(ServeQuantTest, RepliesBitwiseIdenticalAcrossDispatchAndSchedule) {
  struct DispatchGuard {
    Isa prev = simd::ActiveIsa();
    ~DispatchGuard() {
      simd::SetActiveIsa(prev);
      ThreadPool::SetGlobalThreads(0);
    }
  } guard;
  data::Dataset ds = QuantDataset();
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  const size_t sample = std::min<size_t>(ds.num_users, 24);

  for (la::QuantMode mode : {la::QuantMode::kInt8, la::QuantMode::kInt4}) {
    auto index = MakeQuantIndex(ds, mode);
    ASSERT_TRUE(index->quantized());

    // Reference replies: scalar backend, serial pool, no batching/cache.
    simd::SetActiveIsa(Isa::kOff);
    ThreadPool::SetGlobalThreads(1);
    std::vector<Ranked> ref(sample);
    {
      ServerOptions opt;
      opt.max_batch = 1;
      opt.batch_timeout_us = 0;
      opt.cache_capacity = 0;
      Server server(index, opt);
      RequestContext ctx(server);
      for (size_t u = 0; u < sample; ++u) {
        ref[u] = ServeOne(&server, &ctx, static_cast<uint32_t>(u), 10,
                          &exclude[u]);
        ASSERT_FALSE(ref[u].items.empty());
      }
    }

    for (Isa isa : SupportedIsas()) {
      simd::SetActiveIsa(isa);
      for (int threads : {1, 4}) {
        ThreadPool::SetGlobalThreads(threads);
        for (size_t batch : {size_t{1}, size_t{8}}) {
          for (size_t cache : {size_t{0}, size_t{64}}) {
            ServerOptions opt;
            opt.max_batch = batch;
            opt.batch_timeout_us = batch > 1 ? 50 : 0;
            opt.cache_capacity = cache;
            Server server(index, opt);
            RequestContext ctx(server);
            for (size_t u = 0; u < sample; ++u) {
              // Twice when caching: the second hit must replay the
              // identical reply.
              const int passes = cache > 0 ? 2 : 1;
              for (int p = 0; p < passes; ++p) {
                Ranked got = ServeOne(&server, &ctx,
                                      static_cast<uint32_t>(u), 10,
                                      &exclude[u]);
                ASSERT_EQ(got, ref[u])
                    << la::QuantModeName(mode) << " isa="
                    << simd::IsaName(isa) << " t=" << threads
                    << " batch=" << batch << " cache=" << cache
                    << " user " << u;
              }
            }
          }
        }
      }
    }
  }
}

TEST(ServeQuantTest, ConcurrentClientsMatchSerialReference) {
  data::Dataset ds = QuantDataset();
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  auto index = MakeQuantIndex(ds, la::QuantMode::kInt8);
  const size_t sample = std::min<size_t>(ds.num_users, 32);

  ServerOptions opt;
  opt.max_batch = 8;
  opt.batch_timeout_us = 100;
  opt.cache_capacity = 0;
  Server server(index, opt);

  std::vector<Ranked> ref(sample);
  {
    RequestContext ctx(server);
    for (size_t u = 0; u < sample; ++u) {
      ref[u] =
          ServeOne(&server, &ctx, static_cast<uint32_t>(u), 10, &exclude[u]);
    }
  }

  constexpr int kClients = 4;
  std::vector<Ranked> got(sample);
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      RequestContext ctx(server);
      for (size_t u = static_cast<size_t>(t); u < sample; u += kClients) {
        got[u] = ServeOne(&server, &ctx, static_cast<uint32_t>(u), 10,
                          &exclude[u]);
      }
    });
  }
  for (std::thread& c : clients) c.join();
  for (size_t u = 0; u < sample; ++u) {
    EXPECT_EQ(got[u], ref[u]) << "user " << u;
  }
}

TEST(ServeQuantTest, QuantizeSaveLoadScoreBitwiseRoundTrip) {
  data::Dataset ds = QuantDataset();
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  for (la::QuantMode mode : {la::QuantMode::kInt8, la::QuantMode::kInt4}) {
    auto index = MakeQuantIndex(ds, mode);
    const std::string path = TempPath("quant_index");
    ASSERT_TRUE(index->Save(path).ok());
    auto loaded = ServingIndex::Load(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    EXPECT_EQ(loaded.value().quant_mode(), mode);
    ASSERT_EQ(loaded.value().quant_items().codes_size(),
              index->quant_items().codes_size());
    EXPECT_EQ(std::memcmp(loaded.value().quant_items().codes(),
                          index->quant_items().codes(),
                          index->quant_items().codes_size()),
              0);

    // Served replies from the loaded index are bitwise those of the
    // original.
    auto reloaded =
        std::make_shared<const ServingIndex>(std::move(loaded).value());
    ServerOptions opt;
    opt.max_batch = 1;
    opt.batch_timeout_us = 0;
    Server a(index, opt);
    Server b(reloaded, opt);
    RequestContext actx(a);
    RequestContext bctx(b);
    const size_t sample = std::min<size_t>(ds.num_users, 16);
    for (size_t u = 0; u < sample; ++u) {
      EXPECT_EQ(ServeOne(&a, &actx, static_cast<uint32_t>(u), 10,
                         &exclude[u]),
                ServeOne(&b, &bctx, static_cast<uint32_t>(u), 10,
                         &exclude[u]))
          << la::QuantModeName(mode) << " user " << u;
    }
    std::remove(path.c_str());
  }
}

TEST(ServeQuantTest, TornQuantCheckpointRejected) {
  data::Dataset ds = QuantDataset();
  auto index = MakeQuantIndex(ds, la::QuantMode::kInt8);
  const std::string path = TempPath("quant_torn");
  ASSERT_TRUE(index->Save(path).ok());

  // Truncate the tail (the quant codes section lives late in the file):
  // CRC validation must reject the torn file, never build a partial index.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_GT(size, 64);
  ASSERT_EQ(::truncate(path.c_str(), size - 33), 0);
  EXPECT_FALSE(ServingIndex::Load(path).ok());
  std::remove(path.c_str());
}

TEST(ServeQuantTest, UnquantizedSaveStaysV1Compatible) {
  data::Dataset ds = QuantDataset();
  auto index = MakeQuantIndex(ds, la::QuantMode::kOff);
  const std::string path = TempPath("quant_v1");
  ASSERT_TRUE(index->Save(path).ok());
  auto loaded = ServingIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_FALSE(loaded.value().quantized());
  std::remove(path.c_str());
}

TEST(ServeQuantTest, WithQuantOffDropsTheCodeTable) {
  data::Dataset ds = QuantDataset();
  auto index = MakeQuantIndex(ds, la::QuantMode::kInt8);
  auto off = index->WithQuant(la::QuantMode::kOff);
  ASSERT_TRUE(off.ok());
  EXPECT_FALSE(off.value().quantized());
  EXPECT_TRUE(off.value().quant_items().empty());
  // Requantizing a loaded index equals quantizing at freeze time.
  auto re = off.value().WithQuant(la::QuantMode::kInt8);
  ASSERT_TRUE(re.ok());
  ASSERT_EQ(re.value().quant_items().codes_size(),
            index->quant_items().codes_size());
  EXPECT_EQ(std::memcmp(re.value().quant_items().codes(),
                        index->quant_items().codes(),
                        index->quant_items().codes_size()),
            0);
}

TEST(ServeQuantTest, ExclusionsNeverSurviveTheRerank) {
  data::Dataset ds = QuantDataset();
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  auto index = MakeQuantIndex(ds, la::QuantMode::kInt8);
  ServerOptions opt;
  opt.max_batch = 1;
  opt.batch_timeout_us = 0;
  Server server(index, opt);
  RequestContext ctx(server);
  const size_t sample = std::min<size_t>(ds.num_users, 32);
  for (size_t u = 0; u < sample; ++u) {
    Ranked got =
        ServeOne(&server, &ctx, static_cast<uint32_t>(u), 20, &exclude[u]);
    for (uint32_t id : got.items) {
      EXPECT_FALSE(std::binary_search(exclude[u].begin(), exclude[u].end(),
                                      id))
          << "excluded item " << id << " served for user " << u;
    }
  }
}

TEST(ServeQuantTest, RecallFloorAgainstExactF32) {
  data::Dataset ds = QuantDataset();
  auto f32 = MakeQuantIndex(ds, la::QuantMode::kOff);
  ServerOptions opt;
  opt.max_batch = 1;
  opt.batch_timeout_us = 0;
  opt.cache_capacity = 0;
  opt.max_k = 100;
  Server exact(f32, opt);
  RequestContext ectx(exact);
  const size_t sample = std::min<size_t>(ds.num_users, 32);
  for (la::QuantMode mode : {la::QuantMode::kInt8, la::QuantMode::kInt4}) {
    auto index = MakeQuantIndex(ds, mode);
    Server quant(index, opt);
    RequestContext qctx(quant);
    double sum = 0.0;
    for (size_t u = 0; u < sample; ++u) {
      Ranked e = ServeOne(&exact, &ectx, static_cast<uint32_t>(u), 50,
                          nullptr);
      Ranked q = ServeOne(&quant, &qctx, static_cast<uint32_t>(u), 50,
                          nullptr);
      sum += eval::OverlapRecall(e.items, q.items);
    }
    const double recall = sum / static_cast<double>(sample);
    // The CI gate asserts 0.95x on the bench smoke; here the same floor
    // guards the default rerank_factor at unit scale.
    EXPECT_GE(recall, 0.95) << la::QuantModeName(mode);
  }
}

TEST(ServeQuantAllocTest, SteadyStateQuantizedLoopDoesNotAllocate) {
  data::Dataset ds = QuantDataset();
  const std::vector<std::vector<uint32_t>> exclude = ds.UserItemLists();
  auto index = MakeQuantIndex(ds, la::QuantMode::kInt4);
  const uint32_t k = 10;
  ServerOptions opt;
  opt.max_batch = 1;  // Single-threaded loop: no batching waits.
  opt.batch_timeout_us = 0;
  opt.cache_capacity = 32;
  opt.max_k = k;
  Server server(index, opt);
  RequestContext ctx(server);
  Reply reply;
  reply.Reserve(k);

  auto serve_user = [&](size_t i) {
    Request req;
    req.user = static_cast<uint32_t>(i % index->num_users());
    req.k = k;
    if (req.user < exclude.size()) req.exclude = &exclude[req.user];
    server.Rank(req, &ctx, &reply);
  };

  // Warmup: first touches register obs handles and size every buffer.
  for (size_t i = 0; i < 100; ++i) serve_user(i);

  const la::AllocStats la_before = la::MatrixAllocStats();
  const uint64_t obs_before = obs::AllocationCount();
  for (size_t i = 0; i < 400; ++i) serve_user(i);
  const la::AllocStats la_after = la::MatrixAllocStats();
  const uint64_t obs_after = obs::AllocationCount();

  EXPECT_EQ(la_after.count - la_before.count, 0u)
      << "Matrix buffer allocations in the quantized request loop";
  EXPECT_EQ(obs_after - obs_before, 0u)
      << "obs registrations in the quantized request loop";
}

}  // namespace
}  // namespace pup::serve
