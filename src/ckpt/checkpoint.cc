#include "ckpt/checkpoint.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "common/check.h"
#include "obs/registry.h"

namespace pup::ckpt {
namespace {

static_assert(std::endian::native == std::endian::little,
              "checkpoint serialization assumes a little-endian host");

constexpr char kMagic[4] = {'P', 'U', 'P', 'C'};
constexpr size_t kHeaderSize = 4 + 4 + 5 * 8 + 4 + 4;

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

template <typename T>
void AppendPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

template <typename T>
Status ReadPod(const std::string& buf, size_t* offset, T* out) {
  if (*offset + sizeof(T) > buf.size()) {
    return Status::IOError("checkpoint truncated inside a fixed field");
  }
  std::memcpy(out, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return Status::OK();
}

// Per-byte CRC-32 table for the reflected IEEE polynomial 0xEDB88320,
// built on first use.
const uint32_t* Crc32Table() {
  static const uint32_t* table = [] {
    static uint32_t t[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
    return t;
  }();
  return table;
}

// A matrix section is u64 rows, u64 cols, then rows*cols float32, all
// dense row-major over the LOGICAL elements: the padded leading
// dimension (matrix.h) is an in-memory layout detail, so the bytes do not
// depend on the stride.
void AppendMatrixBytes(const la::Matrix& m, std::string* out) {
  AppendPod(out, static_cast<uint64_t>(m.rows()));
  AppendPod(out, static_cast<uint64_t>(m.cols()));
  for (size_t r = 0; r < m.rows(); ++r) {
    out->append(reinterpret_cast<const char*>(m.Row(r)),
                m.cols() * sizeof(float));
  }
}

Result<la::Matrix> ParseMatrixBytes(const std::string& buf, size_t* offset) {
  uint64_t rows = 0, cols = 0;
  if (*offset + 2 * sizeof(uint64_t) > buf.size()) {
    return Status::OutOfRange("matrix header past end of buffer");
  }
  std::memcpy(&rows, buf.data() + *offset, sizeof(rows));
  std::memcpy(&cols, buf.data() + *offset + sizeof(rows), sizeof(cols));
  const size_t pos = *offset + 2 * sizeof(uint64_t);
  // Divide instead of multiplying: rows * cols wraps in u64 (2^32 x 2^32
  // is 0), and a wrapped count would pass both size checks.
  constexpr uint64_t kMaxElements = 1ull << 32;
  if (cols != 0 && rows > kMaxElements / cols) {
    return Status::InvalidArgument("matrix too large in serialized header");
  }
  const size_t bytes = static_cast<size_t>(rows * cols) * sizeof(float);
  if (pos + bytes > buf.size()) {
    return Status::OutOfRange("matrix data past end of buffer (truncated?)");
  }
  la::Matrix m(static_cast<size_t>(rows), static_cast<size_t>(cols));
  const size_t row_bytes = m.cols() * sizeof(float);
  for (size_t r = 0; r < m.rows(); ++r) {
    std::memcpy(m.Row(r), buf.data() + pos + r * row_bytes, row_bytes);
  }
  *offset = pos + bytes;
  return m;
}

// FNV-1a 64-bit over a POD value, continuing from `h`.
template <typename T>
uint64_t FnvMix(uint64_t h, const T& v) {
  const auto* p = reinterpret_cast<const unsigned char*>(&v);
  for (size_t i = 0; i < sizeof(T); ++i) {
    h ^= p[i];
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

uint32_t Crc32(const void* data, size_t len, uint32_t seed) {
  const uint32_t* table = Crc32Table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

DatasetFingerprint DatasetFingerprint::Of(const data::Dataset& dataset) {
  DatasetFingerprint fp;
  fp.num_users = dataset.num_users;
  fp.num_items = dataset.num_items;
  fp.num_categories = dataset.num_categories;
  fp.num_price_levels = dataset.num_price_levels;
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a offset basis.
  for (const data::Interaction& x : dataset.interactions) {
    h = FnvMix(h, x.user);
    h = FnvMix(h, x.item);
    h = FnvMix(h, x.timestamp);
  }
  fp.interaction_hash = h;
  return fp;
}

std::string DatasetFingerprint::ToString() const {
  std::ostringstream out;
  out << "users=" << num_users << " items=" << num_items
      << " cats=" << num_categories << " levels=" << num_price_levels
      << " hash=0x" << std::hex << interaction_hash;
  return out.str();
}

void Writer::AddBytes(const std::string& name, std::string payload) {
  PUP_CHECK_MSG(!name.empty(), "checkpoint section needs a name");
  for (const auto& [existing, _] : sections_) {
    PUP_CHECK_MSG(existing != name, "duplicate checkpoint section");
  }
  sections_.emplace_back(name, std::move(payload));
}

void Writer::AddMatrix(const std::string& name, const la::Matrix& m) {
  std::string payload;
  payload.reserve(2 * sizeof(uint64_t) + m.size() * sizeof(float));
  AppendMatrixBytes(m, &payload);
  AddBytes(name, std::move(payload));
}

void Writer::AddU64(const std::string& name, uint64_t v) {
  std::string payload;
  AppendPod(&payload, v);
  AddBytes(name, std::move(payload));
}

void Writer::AddF32(const std::string& name, float v) {
  std::string payload;
  AppendPod(&payload, v);
  AddBytes(name, std::move(payload));
}

void Writer::AddString(const std::string& name, const std::string& s) {
  AddBytes(name, s);
}

void Writer::AddRng(const std::string& name, const RngState& state) {
  std::string payload;
  for (uint64_t word : state.s) AppendPod(&payload, word);
  AppendPod(&payload,
            static_cast<uint64_t>(state.have_cached_gaussian ? 1 : 0));
  AppendPod(&payload, std::bit_cast<uint64_t>(state.cached_gaussian));
  AddBytes(name, std::move(payload));
}

Status Writer::WriteFile(const std::string& path) const {
  PUP_OBS_SCOPED_TIMER("ckpt/write");
  std::string blob;
  blob.reserve(kHeaderSize);
  blob.append(kMagic, 4);
  AppendPod(&blob, kFormatVersion);
  AppendPod(&blob, fingerprint_.num_users);
  AppendPod(&blob, fingerprint_.num_items);
  AppendPod(&blob, fingerprint_.num_categories);
  AppendPod(&blob, fingerprint_.num_price_levels);
  AppendPod(&blob, fingerprint_.interaction_hash);
  AppendPod(&blob, static_cast<uint32_t>(sections_.size()));
  AppendPod(&blob, Crc32(blob.data(), blob.size()));
  PUP_CHECK_EQ(blob.size(), kHeaderSize);

  for (const auto& [name, payload] : sections_) {
    AppendPod(&blob, static_cast<uint32_t>(name.size()));
    blob.append(name);
    AppendPod(&blob, static_cast<uint64_t>(payload.size()));
    blob.append(payload);
    uint32_t crc = Crc32(name.data(), name.size());
    crc = Crc32(payload.data(), payload.size(), crc);
    AppendPod(&blob, crc);
  }

  const std::string tmp = path + ".tmp";
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return Status::IOError("cannot open for write: " + tmp);
    if (std::fwrite(blob.data(), 1, blob.size(), f.get()) != blob.size()) {
      std::remove(tmp.c_str());
      return Status::IOError("short write: " + tmp);
    }
    if (std::fflush(f.get()) != 0) {
      std::remove(tmp.c_str());
      return Status::IOError("flush failed: " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("rename to " + path + " failed");
  }
  PUP_OBS_COUNT("ckpt/files_written", 1);
  PUP_OBS_COUNT("ckpt/bytes_written", blob.size());
  return Status::OK();
}

Result<Reader> Reader::Open(const std::string& path) {
  PUP_OBS_SCOPED_TIMER("ckpt/open");
  std::string blob;
  {
    FilePtr f(std::fopen(path.c_str(), "rb"));
    if (!f) return Status::IOError("cannot open checkpoint: " + path);
    std::fseek(f.get(), 0, SEEK_END);
    const long size = std::ftell(f.get());
    if (size < 0) return Status::IOError("cannot stat checkpoint: " + path);
    std::fseek(f.get(), 0, SEEK_SET);
    blob.resize(static_cast<size_t>(size));
    if (!blob.empty() &&
        std::fread(blob.data(), 1, blob.size(), f.get()) != blob.size()) {
      return Status::IOError("cannot read checkpoint: " + path);
    }
  }
  if (blob.size() < kHeaderSize) {
    return Status::IOError("checkpoint header truncated: " + path);
  }
  if (std::memcmp(blob.data(), kMagic, 4) != 0) {
    return Status::InvalidArgument("not a PUPC checkpoint: " + path);
  }

  // Everything from here to the return is header parsing plus the
  // upfront CRC sweep over every section — the cost of the
  // all-CRCs-validated-at-Open design, reported as its own span.
  PUP_OBS_SCOPED_TIMER("ckpt/crc_validate");
  size_t offset = 4;
  uint32_t version = 0;
  Reader reader;
  PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &version));
  if (version != kFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (expected " + std::to_string(kFormatVersion) + "): " + path);
  }
  PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &reader.fingerprint_.num_users));
  PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &reader.fingerprint_.num_items));
  PUP_RETURN_NOT_OK(
      ReadPod(blob, &offset, &reader.fingerprint_.num_categories));
  PUP_RETURN_NOT_OK(
      ReadPod(blob, &offset, &reader.fingerprint_.num_price_levels));
  PUP_RETURN_NOT_OK(
      ReadPod(blob, &offset, &reader.fingerprint_.interaction_hash));
  uint32_t section_count = 0, header_crc = 0;
  PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &section_count));
  const size_t crc_offset = offset;
  PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &header_crc));
  if (Crc32(blob.data(), crc_offset) != header_crc) {
    return Status::IOError("checkpoint header CRC mismatch: " + path);
  }

  for (uint32_t i = 0; i < section_count; ++i) {
    uint32_t name_len = 0;
    PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &name_len));
    if (offset + name_len > blob.size()) {
      return Status::IOError("checkpoint truncated in section name: " + path);
    }
    std::string name(blob, offset, name_len);
    offset += name_len;
    // The name itself may be the corrupted part — keep error messages
    // printable.
    for (char& c : name) {
      if (c < 0x20 || c == 0x7f) c = '?';
    }
    uint64_t payload_len = 0;
    PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &payload_len));
    if (offset + payload_len > blob.size()) {
      return Status::IOError("checkpoint truncated in section '" + name +
                             "': " + path);
    }
    std::string payload(blob, offset, static_cast<size_t>(payload_len));
    offset += static_cast<size_t>(payload_len);
    uint32_t stored_crc = 0;
    PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &stored_crc));
    uint32_t crc = Crc32(name.data(), name.size());
    crc = Crc32(payload.data(), payload.size(), crc);
    if (crc != stored_crc) {
      return Status::IOError("checkpoint CRC mismatch in section '" + name +
                             "' (corrupt data): " + path);
    }
    reader.sections_.emplace(std::move(name), std::move(payload));
  }
  if (offset != blob.size()) {
    return Status::IOError("checkpoint has trailing garbage: " + path);
  }
  PUP_OBS_COUNT("ckpt/files_read", 1);
  PUP_OBS_COUNT("ckpt/bytes_read", blob.size());
  return reader;
}

Status Reader::CheckFingerprint(const DatasetFingerprint& expected) const {
  if (fingerprint_ == expected) return Status::OK();
  return Status::FailedPrecondition(
      "checkpoint was written for a different dataset (checkpoint: " +
      fingerprint_.ToString() + "; current: " + expected.ToString() + ")");
}

bool Reader::Has(const std::string& name) const {
  return sections_.contains(name);
}

std::vector<std::string> Reader::SectionNames() const {
  std::vector<std::string> names;
  names.reserve(sections_.size());
  for (const auto& [name, _] : sections_) names.push_back(name);
  return names;
}

Result<const std::string*> Reader::Section(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    return Status::NotFound("checkpoint has no section '" + name + "'");
  }
  return &it->second;
}

Result<la::Matrix> Reader::GetMatrix(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(const std::string* payload, Section(name));
  size_t offset = 0;
  PUP_ASSIGN_OR_RETURN(la::Matrix m, ParseMatrixBytes(*payload, &offset));
  if (offset != payload->size()) {
    return Status::IOError("matrix section '" + name + "' has trailing bytes");
  }
  return m;
}

Result<uint64_t> Reader::GetU64(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(const std::string* payload, Section(name));
  uint64_t v = 0;
  size_t offset = 0;
  PUP_RETURN_NOT_OK(ReadPod(*payload, &offset, &v));
  return v;
}

Result<float> Reader::GetF32(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(const std::string* payload, Section(name));
  float v = 0.0f;
  size_t offset = 0;
  PUP_RETURN_NOT_OK(ReadPod(*payload, &offset, &v));
  return v;
}

Result<std::string> Reader::GetString(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(const std::string* payload, Section(name));
  return *payload;
}

Result<RngState> Reader::GetRng(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(const std::string* payload, Section(name));
  if (payload->size() != 6 * sizeof(uint64_t)) {
    return Status::IOError("RNG section '" + name + "' has wrong size");
  }
  RngState state;
  size_t offset = 0;
  for (uint64_t& word : state.s) {
    PUP_RETURN_NOT_OK(ReadPod(*payload, &offset, &word));
  }
  uint64_t have = 0, cached = 0;
  PUP_RETURN_NOT_OK(ReadPod(*payload, &offset, &have));
  PUP_RETURN_NOT_OK(ReadPod(*payload, &offset, &cached));
  state.have_cached_gaussian = have != 0;
  state.cached_gaussian = std::bit_cast<double>(cached);
  return state;
}

Status Reader::ReadMatrixInto(const std::string& name,
                              la::Matrix* dst) const {
  PUP_ASSIGN_OR_RETURN(la::Matrix m, GetMatrix(name));
  if (!m.SameShape(*dst)) {
    return Status::FailedPrecondition(
        "matrix section '" + name + "' is " + std::to_string(m.rows()) + "x" +
        std::to_string(m.cols()) + " but the live tensor is " +
        std::to_string(dst->rows()) + "x" + std::to_string(dst->cols()));
  }
  *dst = std::move(m);
  return Status::OK();
}

}  // namespace pup::ckpt
