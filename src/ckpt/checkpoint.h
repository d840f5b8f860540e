// pup::ckpt — versioned, corruption-detecting binary checkpoints.
//
// A checkpoint is a single file holding named binary sections (embedding
// tables, optimizer moments, RNG streams, cursors), each protected by a
// CRC32, behind a fixed header that pins the format version and a
// fingerprint of the dataset the state was trained on:
//
//   ┌──────────────────────────────────────────────────────────┐
//   │ "PUPC"  u32 version  DatasetFingerprint (5×u64)          │
//   │ u32 section_count  u32 header_crc                        │ 56 B
//   ├──────────────────────────────────────────────────────────┤
//   │ section: u32 name_len │ name │ u64 size │ payload │ CRC32│ ×N
//   └──────────────────────────────────────────────────────────┘
//
// Writes are atomic (tmp file + rename), so a crash mid-save never
// clobbers the previous snapshot. Reader::Open validates every CRC up
// front: a truncated or bit-flipped file is rejected with a descriptive
// Status before any state is touched. All integers are little-endian.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "la/matrix.h"

namespace pup::ckpt {

/// Current checkpoint format version. Readers reject files written by a
/// different major format (see docs/checkpointing.md for compat rules).
inline constexpr uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) of `len` bytes.
/// Pass a previous return value as `seed` to checksum incrementally.
uint32_t Crc32(const void* data, size_t len, uint32_t seed = 0);

/// Identity of the dataset a checkpoint belongs to: the id-space sizes
/// plus an order-sensitive hash of every interaction. Loading state into
/// a mismatched dataset is refused — resumed training would silently
/// corrupt embeddings otherwise.
struct DatasetFingerprint {
  uint64_t num_users = 0;
  uint64_t num_items = 0;
  uint64_t num_categories = 0;
  uint64_t num_price_levels = 0;
  uint64_t interaction_hash = 0;

  static DatasetFingerprint Of(const data::Dataset& dataset);

  bool operator==(const DatasetFingerprint&) const = default;

  /// "users=U items=I cats=C levels=L hash=0x…".
  std::string ToString() const;
};

/// Accumulates named sections, then writes the checkpoint atomically.
class Writer {
 public:
  explicit Writer(DatasetFingerprint fingerprint)
      : fingerprint_(fingerprint) {}

  /// Adds a raw binary section. Names must be unique per file; the
  /// "model/"-prefix is reserved for the trainer's snapshot of a model's
  /// train::TrainableState.
  void AddBytes(const std::string& name, std::string payload);

  void AddMatrix(const std::string& name, const la::Matrix& m);
  void AddU64(const std::string& name, uint64_t v);
  void AddF32(const std::string& name, float v);
  void AddString(const std::string& name, const std::string& s);
  void AddRng(const std::string& name, const RngState& state);

  /// Serializes header + sections to `path` via a temporary file and an
  /// atomic rename; on any error the previous file at `path` is intact.
  Status WriteFile(const std::string& path) const;

 private:
  DatasetFingerprint fingerprint_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

/// Parses and fully validates a checkpoint file; all section getters are
/// cheap lookups afterwards.
class Reader {
 public:
  /// Reads `path`, checks magic, format version, and every CRC. Returns
  /// IOError for truncation/corruption, InvalidArgument for foreign files.
  static Result<Reader> Open(const std::string& path);

  const DatasetFingerprint& fingerprint() const { return fingerprint_; }

  /// FailedPrecondition (with both fingerprints spelled out) unless the
  /// checkpoint was written for `expected`.
  Status CheckFingerprint(const DatasetFingerprint& expected) const;

  bool Has(const std::string& name) const;
  std::vector<std::string> SectionNames() const;

  Result<la::Matrix> GetMatrix(const std::string& name) const;
  Result<uint64_t> GetU64(const std::string& name) const;
  Result<float> GetF32(const std::string& name) const;
  Result<std::string> GetString(const std::string& name) const;
  Result<RngState> GetRng(const std::string& name) const;

  /// Loads a matrix section into `dst`, requiring the stored shape to
  /// match `dst`'s — the in-place path for resuming into live tensors.
  Status ReadMatrixInto(const std::string& name, la::Matrix* dst) const;

 private:
  Reader() = default;

  Result<const std::string*> Section(const std::string& name) const;

  DatasetFingerprint fingerprint_;
  std::map<std::string, std::string> sections_;
};

}  // namespace pup::ckpt
