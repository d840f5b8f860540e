// Tests for pup::ckpt — format round-trips, corruption rejection, and
// bitwise-deterministic training resume.
//
// Suites named CkptFormatTest are sub-second and carry the `smoke` ctest
// label (plus `asan`); CkptResumeTest trains real models and runs in the
// full suite only.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <utility>

#include "autograd/ops.h"
#include "autograd/optimizer.h"
#include "ckpt/checkpoint.h"
#include "ckpt/optimizer_state.h"
#include "common/rng.h"
#include "common/simd.h"
#include "common/thread_pool.h"
#include "core/extended_pup.h"
#include "core/pup_model.h"
#include "data/quantization.h"
#include "data/synthetic.h"
#include "models/bpr_mf.h"
#include "models/deep_fm.h"
#include "models/fm.h"
#include "models/gc_mc.h"
#include "models/ngcf.h"
#include "serve/index.h"
#include "tiny_mf.h"
#include "train/trainer.h"

namespace pup {
namespace {

namespace fs = std::filesystem;

std::string FreshDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/pup_ckpt_" + name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

data::Dataset SmallDataset(uint64_t seed = 3) {
  data::SyntheticConfig config = data::SyntheticConfig::YelpLike().Scaled(0.04);
  config.num_interactions = 2000;
  config.seed = seed;
  data::Dataset ds = data::GenerateSynthetic(config);
  EXPECT_TRUE(
      data::QuantizeDataset(&ds, 5, data::QuantizationScheme::kRank).ok());
  return ds;
}

ckpt::DatasetFingerprint TestFingerprint() {
  ckpt::DatasetFingerprint fp;
  fp.num_users = 10;
  fp.num_items = 20;
  fp.num_categories = 3;
  fp.num_price_levels = 5;
  fp.interaction_hash = 0xfeedface;
  return fp;
}

// Overwrites `count` bytes at `offset` with their complement.
void FlipBytes(const std::string& path, size_t offset, size_t count = 1) {
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(f.good());
  f.seekg(static_cast<std::streamoff>(offset));
  std::string bytes(count, '\0');
  f.read(bytes.data(), static_cast<std::streamsize>(count));
  for (char& c : bytes) c = static_cast<char>(~c);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(bytes.data(), static_cast<std::streamsize>(count));
}

TEST(CkptFormatTest, Crc32MatchesKnownVectors) {
  // zlib convention: crc32("123456789") == 0xCBF43926.
  EXPECT_EQ(ckpt::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(ckpt::Crc32("", 0), 0u);
  // Incremental == one-shot.
  uint32_t partial = ckpt::Crc32("12345", 5);
  EXPECT_EQ(ckpt::Crc32("6789", 4, partial), 0xCBF43926u);
}

// The textbook CRC-32: one bit at a time over the reflected IEEE
// polynomial, no tables. ckpt::Crc32 must agree with it on every input.
uint32_t BitwiseCrc32(const unsigned char* p, size_t len, uint32_t seed = 0) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < len; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

// Every length 0-300 at every start offset 0-7, so the 8-byte steps meet
// every alignment and every tail length; and a continuation seeded with
// the CRC of a prefix, split at every point, equals one call.
TEST(CkptFormatTest, Crc32MatchesBytewiseReference) {
  std::vector<unsigned char> buf(8 + 300);
  Rng rng(5);
  for (unsigned char& b : buf) b = static_cast<unsigned char>(rng.NextU64());
  for (size_t start = 0; start < 8; ++start) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(ckpt::Crc32(buf.data() + start, len),
                BitwiseCrc32(buf.data() + start, len))
          << "start " << start << " len " << len;
    }
  }
  const uint32_t seed = ckpt::Crc32("PUPC", 4);
  const uint32_t whole = ckpt::Crc32(buf.data(), buf.size(), seed);
  ASSERT_EQ(whole, BitwiseCrc32(buf.data(), buf.size(), seed));
  for (size_t split = 0; split <= buf.size(); ++split) {
    const uint32_t head = ckpt::Crc32(buf.data(), split, seed);
    ASSERT_EQ(ckpt::Crc32(buf.data() + split, buf.size() - split, head), whole)
        << "split " << split;
  }
}

// The writer borrows a matrix until WriteFile, so a temporary must not
// compile: the rvalue overload is deleted.
template <typename M>
constexpr bool kAddMatrixAccepts = requires(ckpt::Writer& w, M&& m) {
  w.AddMatrix("model/emb", std::forward<M>(m));
};
static_assert(kAddMatrixAccepts<const la::Matrix&>);
static_assert(kAddMatrixAccepts<la::Matrix&>);
static_assert(!kAddMatrixAccepts<la::Matrix>);

template <typename T>
void AppendLe(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

// A matrix section holds the logical elements densely, whatever the
// in-memory stride: a 5 x 7 matrix (stride 16, written row by row) and a
// 3 x 64 one (dense, written in one run) produce exactly the bytes built
// here by hand, their pad lanes never reach the file, and both read back
// bit for bit.
TEST(CkptFormatTest, StridedMatrixSectionBytesAreDense) {
  const std::string path = FreshDir("strided") + "/a.pupc";
  la::Matrix narrow(5, 7), wide(3, 64);
  ASSERT_EQ(narrow.stride(), 16u);
  ASSERT_FALSE(narrow.IsContiguous());
  ASSERT_TRUE(wide.IsContiguous());
  for (la::Matrix* m : {&narrow, &wide}) {
    m->Fill(std::nanf(""));  // Pad lanes: must not be written.
    for (size_t r = 0; r < m->rows(); ++r) {
      for (size_t c = 0; c < m->cols(); ++c) {
        (*m)(r, c) = static_cast<float>(r) * 100.0f + static_cast<float>(c) +
                     0.25f;
      }
    }
  }
  ckpt::Writer writer(TestFingerprint());
  writer.AddMatrix("m/narrow", narrow);
  writer.AddMatrix("m/wide", wide);
  ASSERT_TRUE(writer.WriteFile(path).ok());

  const ckpt::DatasetFingerprint fp = TestFingerprint();
  std::string want = "PUPC";
  AppendLe<uint32_t>(&want, ckpt::kFormatVersion);
  for (uint64_t v : {fp.num_users, fp.num_items, fp.num_categories,
                     fp.num_price_levels, fp.interaction_hash}) {
    AppendLe(&want, v);
  }
  AppendLe<uint32_t>(&want, 2);
  AppendLe(&want, BitwiseCrc32(
                      reinterpret_cast<const unsigned char*>(want.data()),
                      want.size()));
  for (const auto& [name, m] : {std::pair<std::string, const la::Matrix*>{
                                    "m/narrow", &narrow},
                                {"m/wide", &wide}}) {
    std::string payload;
    AppendLe<uint64_t>(&payload, m->rows());
    AppendLe<uint64_t>(&payload, m->cols());
    for (size_t r = 0; r < m->rows(); ++r) {
      for (size_t c = 0; c < m->cols(); ++c) AppendLe(&payload, (*m)(r, c));
    }
    const std::string covered = name + payload;
    AppendLe<uint32_t>(&want, static_cast<uint32_t>(name.size()));
    want += name;
    AppendLe<uint64_t>(&want, payload.size());
    want += payload;
    AppendLe(&want, BitwiseCrc32(
                        reinterpret_cast<const unsigned char*>(covered.data()),
                        covered.size()));
  }
  std::ifstream in(path, std::ios::binary);
  const std::string got((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
  ASSERT_EQ(got.size(), want.size());
  EXPECT_TRUE(got == want);

  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  for (const auto& [name, m] : {std::pair<std::string, const la::Matrix*>{
                                    "m/narrow", &narrow},
                                {"m/wide", &wide}}) {
    auto back = reader->GetMatrix(name);
    ASSERT_TRUE(back.ok()) << name;
    la::Matrix into(m->rows(), m->cols());
    ASSERT_TRUE(reader->ReadMatrixInto(name, &into).ok()) << name;
    ASSERT_TRUE(back->SameShape(*m)) << name;
    for (size_t r = 0; r < m->rows(); ++r) {
      EXPECT_EQ(std::memcmp(back->Row(r), m->Row(r), m->cols() * 4), 0);
      EXPECT_EQ(std::memcmp(into.Row(r), m->Row(r), m->cols() * 4), 0);
    }
  }
}

TEST(CkptFormatTest, WriterReaderRoundTrip) {
  std::string path = FreshDir("roundtrip") + "/a.pupc";
  Rng source(42);
  source.NextGaussian();  // Populate the cached-gaussian half of the state.
  RngState rng_state = source.SaveState();

  la::Matrix m(3, 4);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) m(r, c) = static_cast<float>(r * 10 + c);
  }

  ckpt::Writer writer(TestFingerprint());
  writer.AddMatrix("model/emb", m);
  writer.AddU64("meta/epochs", 7);
  writer.AddF32("trainer/lr", 0.125f);
  writer.AddString("meta/key", "bpr-mf");
  writer.AddRng("model/rng", rng_state);
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_TRUE(reader->fingerprint() == TestFingerprint());
  EXPECT_TRUE(reader->CheckFingerprint(TestFingerprint()).ok());
  EXPECT_TRUE(reader->Has("model/emb"));
  EXPECT_FALSE(reader->Has("model/missing"));
  EXPECT_EQ(reader->SectionNames().size(), 5u);

  auto back = reader->GetMatrix("model/emb");
  ASSERT_TRUE(back.ok());
  ASSERT_EQ(back->rows(), 3u);
  ASSERT_EQ(back->cols(), 4u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t c = 0; c < 4; ++c) EXPECT_EQ((*back)(r, c), m(r, c));
  }
  EXPECT_EQ(reader->GetU64("meta/epochs").value(), 7u);
  EXPECT_EQ(reader->GetF32("trainer/lr").value(), 0.125f);
  EXPECT_EQ(reader->GetString("meta/key").value(), "bpr-mf");
  auto rng_back = reader->GetRng("model/rng");
  ASSERT_TRUE(rng_back.ok());
  EXPECT_TRUE(*rng_back == rng_state);

  // The restored RNG continues the source's exact stream.
  Rng restored(0);
  restored.RestoreState(*rng_back);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(restored.NextU64(), source.NextU64());
    EXPECT_EQ(restored.NextGaussian(), source.NextGaussian());
  }
}

TEST(CkptFormatTest, MissingSectionIsNotFound) {
  std::string path = FreshDir("missing") + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  writer.AddU64("meta/epochs", 1);
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->GetU64("meta/other").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(reader->GetMatrix("model/none").status().code(),
            StatusCode::kNotFound);
}

TEST(CkptFormatTest, WrongTypeSizeRejected) {
  std::string path = FreshDir("wrongtype") + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  writer.AddString("meta/key", "pup");
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  // A 3-byte string section is not a u64/f32/rng payload.
  EXPECT_FALSE(reader->GetU64("meta/key").ok());
  EXPECT_FALSE(reader->GetF32("meta/key").ok());
  EXPECT_FALSE(reader->GetRng("meta/key").ok());
}

TEST(CkptFormatTest, TruncatedFileRejected) {
  std::string dir = FreshDir("truncated");
  std::string path = dir + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  const la::Matrix emb(8, 8, 1.0f);
  writer.AddMatrix("model/emb", emb);
  writer.AddU64("meta/epochs", 3);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  const auto full_size = static_cast<size_t>(fs::file_size(path));

  // Cutting the file anywhere — inside the header, a section header, a
  // payload, or the trailing CRC — must be rejected.
  for (size_t keep : {size_t{0}, size_t{20}, size_t{55}, size_t{70},
                      full_size - 1}) {
    std::string cut = dir + "/cut.pupc";
    std::string blob(keep, '\0');
    {
      std::ifstream in(path, std::ios::binary);
      in.read(blob.data(), static_cast<std::streamsize>(keep));
      std::ofstream out(cut, std::ios::binary | std::ios::trunc);
      out.write(blob.data(), static_cast<std::streamsize>(keep));
    }
    EXPECT_FALSE(ckpt::Reader::Open(cut).ok()) << "kept " << keep << " bytes";
  }

  // Trailing garbage after the last section is corruption too.
  std::string padded = dir + "/padded.pupc";
  fs::copy_file(path, padded);
  std::ofstream(padded, std::ios::binary | std::ios::app) << "junk";
  EXPECT_FALSE(ckpt::Reader::Open(padded).ok());
}

TEST(CkptFormatTest, BitFlippedSectionRejected) {
  std::string dir = FreshDir("bitflip");
  std::string path = dir + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  const la::Matrix emb(4, 4, 0.5f);
  writer.AddMatrix("model/emb", emb);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  ASSERT_TRUE(ckpt::Reader::Open(path).ok());

  // Flip one byte inside the section payload (past the 56-byte header and
  // the section name) — the section CRC must catch it.
  std::string corrupt = dir + "/corrupt.pupc";
  fs::copy_file(path, corrupt);
  FlipBytes(corrupt, 90);
  auto bad = ckpt::Reader::Open(corrupt);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kIOError);

  // Flip a byte inside the header — the header CRC must catch it.
  std::string bad_header = dir + "/bad_header.pupc";
  fs::copy_file(path, bad_header);
  FlipBytes(bad_header, 10);
  EXPECT_FALSE(ckpt::Reader::Open(bad_header).ok());

  // Clobber the magic — rejected as a foreign file.
  std::string foreign = dir + "/foreign.pupc";
  fs::copy_file(path, foreign);
  FlipBytes(foreign, 0, 4);
  auto not_pupc = ckpt::Reader::Open(foreign);
  ASSERT_FALSE(not_pupc.ok());
  EXPECT_EQ(not_pupc.status().code(), StatusCode::kInvalidArgument);
}

TEST(CkptFormatTest, UnsupportedVersionRejected) {
  std::string dir = FreshDir("version");
  std::string path = dir + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  writer.AddU64("meta/epochs", 1);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  // Bytes 4..7 hold the format version; a bumped version must be refused
  // even though that also breaks the header CRC — either error is fine,
  // but the file must not load.
  FlipBytes(path, 4);
  EXPECT_FALSE(ckpt::Reader::Open(path).ok());
}

TEST(CkptFormatTest, FingerprintMismatchRejected) {
  std::string path = FreshDir("fingerprint") + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  writer.AddU64("meta/epochs", 1);
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  ckpt::DatasetFingerprint other = TestFingerprint();
  other.interaction_hash ^= 1;
  Status st = reader->CheckFingerprint(other);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(CkptFormatTest, FingerprintSeparatesDatasets) {
  data::Dataset a = SmallDataset(3);
  data::Dataset b = SmallDataset(4);
  EXPECT_TRUE(ckpt::DatasetFingerprint::Of(a) ==
              ckpt::DatasetFingerprint::Of(a));
  EXPECT_FALSE(ckpt::DatasetFingerprint::Of(a) ==
               ckpt::DatasetFingerprint::Of(b));
}

TEST(CkptFormatTest, AtomicWriteKeepsPreviousFileOnOverwrite) {
  std::string path = FreshDir("atomic") + "/a.pupc";
  ckpt::Writer first(TestFingerprint());
  first.AddU64("meta/epochs", 1);
  ASSERT_TRUE(first.WriteFile(path).ok());
  ckpt::Writer second(TestFingerprint());
  second.AddU64("meta/epochs", 2);
  ASSERT_TRUE(second.WriteFile(path).ok());
  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->GetU64("meta/epochs").value(), 2u);
  // No stray tmp file left behind.
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// A matrix section starts with u64 rows and u64 cols. rows = cols = 2^32
// multiply to 0 in u64, so a size check on the product lets the header
// through and the parser copies 2^32 rows into an empty matrix. The CRCs
// are valid, so only the shape check stands between the file and a crash.
TEST(CkptFormatTest, MatrixSectionWhoseShapeOverflowsIsRejected) {
  const std::string dir = FreshDir("shape_overflow");
  const uint64_t shape[2] = {uint64_t{1} << 32, uint64_t{1} << 32};
  const std::string header(reinterpret_cast<const char*>(shape),
                           sizeof(shape));

  const std::string path = dir + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  writer.AddBytes("model/emb", header);
  ASSERT_TRUE(writer.WriteFile(path).ok());
  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  EXPECT_EQ(reader->GetMatrix("model/emb").status().code(),
            StatusCode::kInvalidArgument);

  // The same header as the user table of a serving index.
  const std::string index_path = dir + "/index.pupc";
  ckpt::Writer index(TestFingerprint());
  index.AddU64("serve/format", 1);
  index.AddString("serve/model", "pup");
  index.AddBytes("serve/users", header);
  ASSERT_TRUE(index.WriteFile(index_path).ok());
  EXPECT_EQ(serve::ServingIndex::Load(index_path).status().code(),
            StatusCode::kInvalidArgument);
}

// A section's u64 payload length comes from the file. One near 2^64 must
// not wrap `offset + length` past the end-of-file check: here the sum
// wraps to 1, which is inside the 97-byte file, so a check done in u64
// lets the section through and only the CRC would stop it. The reader
// must call it what it is, a truncated section.
TEST(CkptFormatTest, SectionLengthThatWrapsIsRejectedAsTruncated) {
  const std::string path = FreshDir("wrap") + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  writer.AddBytes("model/emb", std::string(16, 'x'));
  ASSERT_TRUE(writer.WriteFile(path).ok());
  // Header 56, name length 4, name 9, payload length 8, payload 16, CRC 4.
  ASSERT_EQ(fs::file_size(path), 97u);

  // The payload starts at offset 77; 77 + (2^64 - 76) wraps to 1.
  constexpr size_t kLengthOffset = 56 + 4 + 9;
  constexpr size_t kPayloadOffset = kLengthOffset + 8;
  const uint64_t wrapping_len = ~uint64_t{0} - (kPayloadOffset - 2);
  ASSERT_EQ(kPayloadOffset + wrapping_len, 1u);
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(static_cast<std::streamoff>(kLengthOffset));
    f.write(reinterpret_cast<const char*>(&wrapping_len),
            sizeof(wrapping_len));
  }

  auto reader = ckpt::Reader::Open(path);
  ASSERT_FALSE(reader.ok());
  EXPECT_EQ(reader.status().code(), StatusCode::kIOError);
  EXPECT_NE(reader.status().message().find("truncated"), std::string::npos)
      << reader.status().ToString();
}

TEST(CkptFormatTest, OptimizerStateRoundTrip) {
  // Train a few steps so the moments are non-trivial, snapshot, restore
  // into a fresh optimizer, and compare every slot bitwise.
  Rng rng(11);
  auto make_params = [&rng]() {
    return std::vector<ag::Tensor>{
        ag::Param(la::Matrix::Gaussian(6, 4, 0.1f, &rng)),
        ag::Param(la::Matrix::Gaussian(3, 4, 0.1f, &rng))};
  };
  auto params = make_params();
  ag::Adam adam(params, {.learning_rate = 0.05f});
  for (int step = 0; step < 5; ++step) {
    for (auto& p : params) {
      p->EnsureGrad();
      for (size_t i = 0; i < p->value.size(); ++i) {
        p->grad.FlatAt(i) = 0.01f * static_cast<float>(i + step);
      }
    }
    adam.Step();
    adam.ZeroGrad();
  }

  std::string path = FreshDir("optim") + "/a.pupc";
  ckpt::Writer writer(TestFingerprint());
  ASSERT_TRUE(ckpt::SaveOptimizerState(adam, &writer).ok());
  ASSERT_TRUE(writer.WriteFile(path).ok());

  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok());
  auto params2 = make_params();
  ag::Adam restored(params2, {.learning_rate = 0.5f});
  ASSERT_TRUE(ckpt::LoadOptimizerState(*reader, &restored).ok());

  ag::OptimizerState before = adam.ExportState();
  ag::OptimizerState after = restored.ExportState();
  EXPECT_EQ(before.step, after.step);
  EXPECT_EQ(before.learning_rate, after.learning_rate);
  ASSERT_EQ(before.slots.size(), after.slots.size());
  for (size_t s = 0; s < before.slots.size(); ++s) {
    ASSERT_EQ(before.slots[s].size(), after.slots[s].size());
    for (size_t i = 0; i < before.slots[s].size(); ++i) {
      EXPECT_EQ(before.slots[s].FlatAt(i), after.slots[s].FlatAt(i));
    }
  }

  // Mismatched parameter shapes must be refused without mutating.
  auto small = std::vector<ag::Tensor>{
      ag::Param(la::Matrix::Gaussian(2, 2, 0.1f, &rng))};
  ag::Adam wrong(small, {.learning_rate = 0.5f});
  EXPECT_FALSE(ckpt::LoadOptimizerState(*reader, &wrong).ok());
  EXPECT_EQ(wrong.ExportState().learning_rate, 0.5f);
}

// FNV-1a 64 over every byte of the file at `path`.
uint64_t FileFnv1a64(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  uint64_t h = 0xcbf29ce484222325ull;
  char c;
  while (in.get(c)) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

// What one model's epoch-2 training snapshot holds.
struct PinnedSnapshot {
  // The model's own sections, "model/" dropped, sorted, space-separated.
  std::string model_sections;
  // The trainer's sections: 7 of its own plus two Adam moments per tensor.
  size_t trainer_sections = 0;
  // FNV-1a 64 of the whole file.
  uint64_t fnv = 0;
};

// Fits `config` for 2 epochs with a snapshot after epoch 2 and describes
// that snapshot.
template <typename Model, typename Config>
PinnedSnapshot FitAndSnapshot(Config config, const data::Dataset& ds,
                              const std::string& tag) {
  const std::string dir = FreshDir("pin_" + tag);
  config.train.epochs = 2;
  config.train.batch_size = 256;
  config.train.seed = 17;
  config.train.checkpoint.directory = dir;
  config.train.checkpoint.save_every = 2;
  Model model(config);
  model.Fit(ds, ds.interactions);

  const std::string path = dir + "/ckpt-000002.pupc";
  PinnedSnapshot snapshot;
  auto reader = ckpt::Reader::Open(path);
  EXPECT_TRUE(reader.ok()) << tag << ": " << reader.status().ToString();
  if (!reader.ok()) return snapshot;
  for (const std::string& name : reader->SectionNames()) {
    if (!name.starts_with("model/")) {
      ++snapshot.trainer_sections;
      continue;
    }
    if (!snapshot.model_sections.empty()) snapshot.model_sections += " ";
    snapshot.model_sections += name.substr(6);
  }
  snapshot.fnv = FileFnv1a64(path);
  return snapshot;
}

// What each production model checkpoints, pinned byte for byte at
// --threads=1 --simd=off: its sections and the FNV-1a 64 of the whole
// epoch-2 snapshot. A refactor of how models declare their state must
// leave every file identical, so old snapshots keep resuming.
TEST(CkptFormatTest, ProductionModelSnapshotsAreByteStable) {
  ThreadPool::SetGlobalThreads(1);
  simd::SetActiveIsa(simd::Isa::kOff);
  const data::Dataset ds = SmallDataset();

  core::PupConfig pup = core::PupConfig::Full();
  pup.embedding_dim = 16;
  pup.category_branch_dim = 4;
  PinnedSnapshot s = FitAndSnapshot<core::Pup>(pup, ds, "pup");
  EXPECT_EQ(s.model_sections, "category_emb dropout_rng global_emb");
  EXPECT_EQ(s.trainer_sections, 11u);
  EXPECT_EQ(s.fnv, 0xa9a4c7a5e7505c4bull);

  core::ExtendedPupConfig extended;
  extended.embedding_dim = 16;
  extended.attributes = {
      {"category", ds.num_categories, ds.item_category, false},
      {"price", ds.num_price_levels, ds.item_price_level, false},
  };
  s = FitAndSnapshot<core::ExtendedPup>(extended, ds, "extended_pup");
  EXPECT_EQ(s.model_sections, "dropout_rng node_emb");
  EXPECT_EQ(s.trainer_sections, 9u);
  EXPECT_EQ(s.fnv, 0x96c6db69205414abull);

  models::BprMfConfig mf;
  mf.embedding_dim = 16;
  s = FitAndSnapshot<models::BprMf>(mf, ds, "bpr_mf");
  EXPECT_EQ(s.model_sections, "item_emb user_emb");
  EXPECT_EQ(s.trainer_sections, 11u);
  EXPECT_EQ(s.fnv, 0x20dff894ee19d76aull);

  models::FmConfig fm;
  fm.embedding_dim = 16;
  s = FitAndSnapshot<models::Fm>(fm, ds, "fm");
  EXPECT_EQ(s.model_sections, "feature_bias feature_emb");
  EXPECT_EQ(s.trainer_sections, 11u);
  EXPECT_EQ(s.fnv, 0xf2f73a4c3d97c3f1ull);

  models::DeepFmConfig deep_fm;
  deep_fm.embedding_dim = 16;
  s = FitAndSnapshot<models::DeepFm>(deep_fm, ds, "deep_fm");
  EXPECT_EQ(s.model_sections, "b1 b2 b3 feature_bias feature_emb w1 w2 w3");
  EXPECT_EQ(s.trainer_sections, 23u);
  EXPECT_EQ(s.fnv, 0xdc79b7274059bab8ull);

  models::GcMcConfig gc_mc;
  gc_mc.embedding_dim = 16;
  s = FitAndSnapshot<models::GcMc>(gc_mc, ds, "gc_mc");
  EXPECT_EQ(s.model_sections, "dropout_rng node_emb weight");
  EXPECT_EQ(s.trainer_sections, 11u);
  EXPECT_EQ(s.fnv, 0x14f64c1121a46eafull);

  models::NgcfConfig ngcf;
  ngcf.embedding_dim = 16;
  s = FitAndSnapshot<models::Ngcf>(ngcf, ds, "ngcf");
  EXPECT_EQ(s.model_sections, "dropout_rng node_emb price_emb w1 w2");
  EXPECT_EQ(s.trainer_sections, 15u);
  EXPECT_EQ(s.fnv, 0xd1181ec1f60b5e0cull);

  simd::SetActiveIsa(simd::DetectBestIsa());
}

// ---------------------------------------------------------------------------
// Resume parity: K epochs + resume == N epochs straight, bit for bit.
// ---------------------------------------------------------------------------

void ExpectParamsBitwiseEqual(std::vector<ag::Tensor> a,
                              std::vector<ag::Tensor> b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t p = 0; p < a.size(); ++p) {
    ASSERT_EQ(a[p]->value.size(), b[p]->value.size());
    for (size_t i = 0; i < a[p]->value.size(); ++i) {
      ASSERT_EQ(a[p]->value.FlatAt(i), b[p]->value.FlatAt(i))
          << "param " << p << " index " << i;
    }
  }
}

train::TrainOptions ResumeTestOptions() {
  train::TrainOptions options;
  options.epochs = 10;
  options.batch_size = 256;
  options.seed = 17;
  return options;
}

TEST(CkptResumeTest, GenericModelLossParityAtEveryThreadCount) {
  data::Dataset ds = SmallDataset();
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ThreadPool::SetGlobalThreads(threads);
    std::string dir = FreshDir("tinymf_t" + std::to_string(threads));

    // Uninterrupted 10-epoch run, snapshotting every 4 epochs.
    TinyMf full(ds.num_users, ds.num_items, 16, 5);
    train::TrainOptions options = ResumeTestOptions();
    options.checkpoint.directory = dir;
    options.checkpoint.save_every = 4;
    auto h_full = train::TrainBpr(&full, ds, ds.interactions, options);
    ASSERT_EQ(h_full.size(), 10u);
    ASSERT_TRUE(fs::exists(dir + "/ckpt-000004.pupc"));

    // Fresh model resumed from the epoch-4 snapshot (identical to a run
    // killed right after that save).
    TinyMf resumed(ds.num_users, ds.num_items, 16, 5);
    train::TrainOptions resume = ResumeTestOptions();
    resume.checkpoint.resume_from = dir + "/ckpt-000004.pupc";
    auto h_resumed = train::TrainBpr(&resumed, ds, ds.interactions, resume);

    // The 6 resumed epochs replay epochs 4..9 bit for bit: same losses,
    // same final parameters.
    ASSERT_EQ(h_resumed.size(), 6u);
    for (size_t i = 0; i < h_resumed.size(); ++i) {
      EXPECT_EQ(h_resumed[i].epoch, static_cast<int>(4 + i));
      EXPECT_EQ(h_resumed[i].mean_loss, h_full[4 + i].mean_loss)
          << "epoch " << 4 + i;
    }
    ExpectParamsBitwiseEqual(full.Parameters(), resumed.Parameters());
  }
  ThreadPool::SetGlobalThreads(1);
}

// Full-model parity through Fit(): identical final embeddings and
// identical recommendation scores. `save_every` covers epoch 4 so the
// resumed run replays epochs 4..9. The lr-decay epochs (5 and 7 for 10
// epochs) land inside the resumed stretch, so schedule restoration is
// exercised too.
template <typename Model, typename Config>
void RunFitResumeParity(Config config, const std::string& tag) {
  data::Dataset ds = SmallDataset();
  for (int threads : {1, 4}) {
    SCOPED_TRACE(tag + " threads=" + std::to_string(threads));
    ThreadPool::SetGlobalThreads(threads);
    std::string dir = FreshDir(tag + "_t" + std::to_string(threads));

    Config full_config = config;
    full_config.train.checkpoint.directory = dir;
    full_config.train.checkpoint.save_every = 4;
    Model full(full_config);
    full.Fit(ds, ds.interactions);

    Config resume_config = config;
    resume_config.train.checkpoint.resume_from = dir + "/ckpt-000004.pupc";
    Model resumed(resume_config);
    resumed.Fit(ds, ds.interactions);

    ExpectParamsBitwiseEqual(full.Parameters(), resumed.Parameters());
    std::vector<float> scores_full, scores_resumed;
    full.ScoreItems(0, &scores_full);
    resumed.ScoreItems(0, &scores_resumed);
    ASSERT_EQ(scores_full.size(), scores_resumed.size());
    for (size_t i = 0; i < scores_full.size(); ++i) {
      ASSERT_EQ(scores_full[i], scores_resumed[i]) << "item " << i;
    }
  }
  ThreadPool::SetGlobalThreads(1);
}

TEST(CkptResumeTest, BprMfFitParityAtEveryThreadCount) {
  models::BprMfConfig config;
  config.embedding_dim = 16;
  config.train = ResumeTestOptions();
  RunFitResumeParity<models::BprMf>(config, "bprmf");
}

TEST(CkptResumeTest, PupFitParityAtEveryThreadCount) {
  core::PupConfig config = core::PupConfig::Full();
  config.embedding_dim = 16;
  config.category_branch_dim = 4;
  config.train = ResumeTestOptions();
  RunFitResumeParity<core::Pup>(config, "pup");
}

TEST(CkptResumeTest, CorruptNewestFallsBackToOlderSnapshot) {
  data::Dataset ds = SmallDataset();
  ThreadPool::SetGlobalThreads(1);
  std::string dir = FreshDir("fallback");

  TinyMf full(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions options = ResumeTestOptions();
  options.checkpoint.directory = dir;
  options.checkpoint.save_every = 2;
  auto h_full = train::TrainBpr(&full, ds, ds.interactions, options);

  // Corrupt the newest snapshots; resume must fall back to epoch 4 and —
  // because the trajectory is deterministic — still reproduce the same
  // final state.
  FlipBytes(dir + "/ckpt-000008.pupc", 100);
  FlipBytes(dir + "/ckpt-000006.pupc", 100);
  fs::remove(dir + "/ckpt-000010.pupc");

  TinyMf resumed(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions resume = ResumeTestOptions();
  resume.checkpoint.resume_from = dir;
  auto h_resumed = train::TrainBpr(&resumed, ds, ds.interactions, resume);

  ASSERT_EQ(h_resumed.size(), 6u);
  EXPECT_EQ(h_resumed.front().epoch, 4);
  EXPECT_EQ(h_resumed.back().mean_loss, h_full.back().mean_loss);
  ExpectParamsBitwiseEqual(full.Parameters(), resumed.Parameters());
}

TEST(CkptResumeTest, MismatchedDatasetStartsFresh) {
  data::Dataset ds_a = SmallDataset(3);
  data::Dataset ds_b = SmallDataset(4);
  ThreadPool::SetGlobalThreads(1);
  std::string dir = FreshDir("mismatch");

  TinyMf first(ds_a.num_users, ds_a.num_items, 16, 5);
  train::TrainOptions options = ResumeTestOptions();
  options.epochs = 4;
  options.checkpoint.directory = dir;
  options.checkpoint.save_every = 2;
  train::TrainBpr(&first, ds_a, ds_a.interactions, options);

  // Resuming against a different dataset must refuse every snapshot and
  // train from scratch rather than corrupting state or aborting.
  TinyMf second(ds_b.num_users, ds_b.num_items, 16, 5);
  train::TrainOptions resume = ResumeTestOptions();
  resume.epochs = 4;
  resume.checkpoint.resume_from = dir;
  auto history = train::TrainBpr(&second, ds_b, ds_b.interactions, resume);
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history.front().epoch, 0);
}

// Rewrites the checkpoint at `path` so every CRC still validates but the
// matrix section `section` is semantically broken: it is replaced by a
// 1x1 matrix no tensor shape can match. Reader::Open accepts the file;
// only the resume's staged shape checks can reject it. With
// "optim/slot/0" this is the torn-restore scenario where the model
// sections are fine and the tail is not.
void BreakSectionKeepingCrcsValid(const std::string& path,
                                  const std::string& section) {
  auto reader = ckpt::Reader::Open(path);
  ASSERT_TRUE(reader.ok()) << reader.status().message();
  ckpt::Writer writer(reader->fingerprint());
  const la::Matrix broken(1, 1);
  for (const std::string& name : reader->SectionNames()) {
    if (name == section) {
      writer.AddMatrix(name, broken);
    } else {
      auto payload = reader->GetString(name);
      ASSERT_TRUE(payload.ok());
      writer.AddBytes(name, *payload);
    }
  }
  ASSERT_TRUE(writer.WriteFile(path).ok());
}

// The all-or-nothing contract of TryResumeCheckpoint, proven directly: a
// checkpoint whose CRCs pass but whose optimizer section is broken must
// be rejected WITHOUT touching the model — before the staged-commit fix,
// the model kept the checkpoint weights while the optimizer (and the
// epoch cursor) trained "from scratch", a torn hybrid of both runs.
TEST(CkptResumeTest, TornOptimizerSectionLeavesModelUntouched) {
  data::Dataset ds = SmallDataset();
  ThreadPool::SetGlobalThreads(1);
  std::string dir = FreshDir("torn_direct");

  TinyMf trained(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions options = ResumeTestOptions();
  options.epochs = 4;
  options.checkpoint.directory = dir;
  options.checkpoint.save_every = 4;
  train::TrainBpr(&trained, ds, ds.interactions, options);
  const std::string path = dir + "/ckpt-000004.pupc";
  ASSERT_TRUE(fs::exists(path));
  BreakSectionKeepingCrcsValid(path, "optim/slot/0");

  // Two bitwise-identical fresh models: `victim` attempts the resume,
  // `reference` never sees the checkpoint.
  TinyMf victim(ds.num_users, ds.num_items, 16, 5);
  TinyMf reference(ds.num_users, ds.num_items, 16, 5);
  ag::Adam optimizer(victim.Parameters(), {.learning_rate = 1e-2f});
  data::NegativeSampler sampler(ds.num_users, ds.num_items, ds.interactions,
                                options.seed);
  const RngState sampler_rng_before = sampler.rng_state();

  auto point = train::TryResumeCheckpoint(
      path, ckpt::DatasetFingerprint::Of(ds), &victim, &optimizer, &sampler,
      options.epochs);
  ASSERT_FALSE(point.ok());

  // The rejected file must not have mutated anything: parameters are
  // bitwise the fresh initialization, and the sampler stream is intact.
  ExpectParamsBitwiseEqual(victim.Parameters(), reference.Parameters());
  EXPECT_TRUE(sampler.rng_state() == sampler_rng_before);
}

// The model side of the same contract: the last model section has the
// wrong shape, so the tensors staged before it, the optimizer state and
// the sampler stream must all stay as they were.
TEST(CkptResumeTest, TornModelSectionLeavesEverythingUntouched) {
  data::Dataset ds = SmallDataset();
  ThreadPool::SetGlobalThreads(1);
  std::string dir = FreshDir("torn_model");

  TinyMf trained(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions options = ResumeTestOptions();
  options.epochs = 4;
  options.checkpoint.directory = dir;
  options.checkpoint.save_every = 4;
  train::TrainBpr(&trained, ds, ds.interactions, options);
  const std::string path = dir + "/ckpt-000004.pupc";
  BreakSectionKeepingCrcsValid(path, "model/items");

  TinyMf victim(ds.num_users, ds.num_items, 16, 5);
  TinyMf reference(ds.num_users, ds.num_items, 16, 5);
  ag::Adam optimizer(victim.Parameters(), {.learning_rate = 1e-2f});
  data::NegativeSampler sampler(ds.num_users, ds.num_items, ds.interactions,
                                options.seed);
  const RngState sampler_rng_before = sampler.rng_state();

  auto point = train::TryResumeCheckpoint(
      path, ckpt::DatasetFingerprint::Of(ds), &victim, &optimizer, &sampler,
      options.epochs);
  ASSERT_FALSE(point.ok());
  EXPECT_NE(point.status().message().find("model/items"), std::string::npos)
      << point.status().message();

  ExpectParamsBitwiseEqual(victim.Parameters(), reference.Parameters());
  EXPECT_EQ(optimizer.ExportState().step, 0);
  EXPECT_EQ(optimizer.ExportState().learning_rate, 1e-2f);
  EXPECT_TRUE(sampler.rng_state() == sampler_rng_before);
}

// End-to-end flavor of the same bug: the newest snapshot is CRC-valid
// but optimizer-torn, so TrainBpr must reject it wholesale and resume
// from the sibling — reproducing the uninterrupted run bit for bit. A
// torn (partial) restore of ckpt-000008 would poison every later epoch.
TEST(CkptResumeTest, TornNewestFallsBackToSiblingBitwise) {
  data::Dataset ds = SmallDataset();
  ThreadPool::SetGlobalThreads(1);
  std::string dir = FreshDir("torn_fallback");

  TinyMf full(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions options = ResumeTestOptions();
  options.checkpoint.directory = dir;
  options.checkpoint.save_every = 2;
  auto h_full = train::TrainBpr(&full, ds, ds.interactions, options);

  fs::remove(dir + "/ckpt-000010.pupc");
  BreakSectionKeepingCrcsValid(dir + "/ckpt-000008.pupc", "optim/slot/0");

  TinyMf resumed(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions resume = ResumeTestOptions();
  resume.checkpoint.resume_from = dir;
  auto h_resumed = train::TrainBpr(&resumed, ds, ds.interactions, resume);

  ASSERT_EQ(h_resumed.size(), 4u);
  EXPECT_EQ(h_resumed.front().epoch, 6);
  EXPECT_EQ(h_resumed.back().mean_loss, h_full.back().mean_loss);
  ExpectParamsBitwiseEqual(full.Parameters(), resumed.Parameters());
}

// Resume from a snapshot taken AFTER the first lr decay (epoch 5 of 10)
// but BEFORE the second (epoch 7): the restored run must carry the
// already-decayed rate forward without re-applying the first decay, then
// apply the second exactly once. EpochStats.lr makes the schedule
// directly observable.
TEST(CkptResumeTest, ResumeStraddlingDecayEpochKeepsSchedule) {
  data::Dataset ds = SmallDataset();
  ThreadPool::SetGlobalThreads(1);
  std::string dir = FreshDir("decay_straddle");

  TinyMf full(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions options = ResumeTestOptions();
  options.checkpoint.directory = dir;
  options.checkpoint.save_every = 3;  // Snapshots at epochs 3, 6, 9, 10.
  auto h_full = train::TrainBpr(&full, ds, ds.interactions, options);
  ASSERT_EQ(h_full.size(), 10u);
  const float lr0 = options.learning_rate;
  EXPECT_EQ(h_full[4].lr, lr0);  // Decays land at epochs 5 and 7.
  EXPECT_EQ(h_full[5].lr, lr0 * 0.1f);
  EXPECT_EQ(h_full[7].lr, lr0 * 0.1f * 0.1f);

  TinyMf resumed(ds.num_users, ds.num_items, 16, 5);
  train::TrainOptions resume = ResumeTestOptions();
  resume.checkpoint.resume_from = dir + "/ckpt-000006.pupc";
  auto h_resumed = train::TrainBpr(&resumed, ds, ds.interactions, resume);

  ASSERT_EQ(h_resumed.size(), 4u);
  for (size_t i = 0; i < h_resumed.size(); ++i) {
    EXPECT_EQ(h_resumed[i].epoch, static_cast<int>(6 + i));
    EXPECT_EQ(h_resumed[i].lr, h_full[6 + i].lr) << "epoch " << 6 + i;
    EXPECT_EQ(h_resumed[i].mean_loss, h_full[6 + i].mean_loss)
        << "epoch " << 6 + i;
  }
  ExpectParamsBitwiseEqual(full.Parameters(), resumed.Parameters());
}

TEST(CkptResumeTest, WrongModelKeyStartsFresh) {
  data::Dataset ds = SmallDataset();
  ThreadPool::SetGlobalThreads(1);
  std::string dir = FreshDir("wrongkey");

  models::BprMfConfig mf_config;
  mf_config.embedding_dim = 16;
  mf_config.train = ResumeTestOptions();
  mf_config.train.epochs = 4;
  mf_config.train.checkpoint.directory = dir;
  mf_config.train.checkpoint.save_every = 2;
  models::BprMf mf(mf_config);
  mf.Fit(ds, ds.interactions);

  // A PUP run pointed at BPR-MF snapshots must skip them all.
  core::PupConfig pup_config = core::PupConfig::Full();
  pup_config.embedding_dim = 16;
  pup_config.category_branch_dim = 4;
  pup_config.train = ResumeTestOptions();
  pup_config.train.epochs = 4;
  pup_config.train.checkpoint.resume_from = dir;
  core::Pup pup(pup_config);
  pup.Fit(ds, ds.interactions);  // Must not crash or load foreign state.
  std::vector<float> scores;
  pup.ScoreItems(0, &scores);
  EXPECT_EQ(scores.size(), ds.num_items);
}

}  // namespace
}  // namespace pup
