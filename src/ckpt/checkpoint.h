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
// Writer::WriteFile streams the file: each section goes from its source
// (a matrix section straight from the live tensor's memory) through one
// CRC pass into a tmp file, which is renamed over the target, so a crash
// mid-save never clobbers the previous snapshot. Reader::Open reads the
// file into one buffer and validates every CRC up front: a truncated or
// bit-flipped file is rejected with a descriptive Status before any state
// is touched, and the getters parse from that buffer afterwards. All
// integers are little-endian.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "data/dataset.h"
#include "la/matrix.h"

namespace pup::ckpt {

/// Current checkpoint format version. Readers reject files written by a
/// different major format (see docs/checkpointing.md for compat rules).
inline constexpr uint32_t kFormatVersion = 1;

/// CRC-32 (IEEE 802.3 polynomial, the zlib convention) of `len` bytes,
/// eight bytes per step (slicing-by-8). Pass a previous return value as
/// `seed` to checksum incrementally.
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

  /// Adds a matrix section WITHOUT copying `m`: the writer keeps a
  /// reference, and WriteFile reads the rows from `m`'s own memory. `m`
  /// must outlive WriteFile and stay unchanged until it returns. A
  /// temporary would dangle, so an rvalue matrix does not compile.
  void AddMatrix(const std::string& name, const la::Matrix& m);
  void AddMatrix(const std::string& name, la::Matrix&& m) = delete;

  void AddU64(const std::string& name, uint64_t v);
  void AddF32(const std::string& name, float v);
  void AddString(const std::string& name, const std::string& s);
  void AddRng(const std::string& name, const RngState& state);

  /// Streams header + sections to `path` via a temporary file and an
  /// atomic rename; on any error the previous file at `path` is intact.
  Status WriteFile(const std::string& path) const;

 private:
  // One section: `bytes` is the whole payload, or for a matrix its
  // 16-byte rows/cols header followed on disk by `matrix`'s rows.
  struct Section {
    std::string name;
    std::string bytes;
    const la::Matrix* matrix = nullptr;
  };

  void AddSection(const std::string& name, std::string bytes,
                  const la::Matrix* matrix);

  DatasetFingerprint fingerprint_;
  std::vector<Section> sections_;
};

/// Parses and fully validates a checkpoint file. The reader keeps the file
/// in one buffer; the getters parse from it, and only GetString copies a
/// payload out.
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
  // Where a section's payload lies in `file_`. Offsets, not views: a view
  // into `file_` would dangle once the Reader moves.
  struct Span {
    size_t offset = 0;
    size_t size = 0;
  };

  Reader() = default;

  Result<std::string_view> Payload(const std::string& name) const;

  DatasetFingerprint fingerprint_;
  std::string file_;
  std::map<std::string, Span> sections_;
};

}  // namespace pup::ckpt
