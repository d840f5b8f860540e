#include "ckpt/checkpoint.h"

#include <array>
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

// Reads a T at `*offset`, where *offset <= buf.size() always holds, so
// the bound is checked against the bytes left rather than by a sum.
template <typename T>
Status ReadPod(std::string_view buf, size_t* offset, T* out) {
  if (sizeof(T) > buf.size() - *offset) {
    return Status::IOError("checkpoint truncated inside a fixed field");
  }
  std::memcpy(out, buf.data() + *offset, sizeof(T));
  *offset += sizeof(T);
  return Status::OK();
}

// Slicing-by-8 tables for the reflected IEEE polynomial 0xEDB88320, built
// on first use. Table 0 is the classic per-byte table: the CRC register
// after feeding one byte into a zero register. Table k is the same byte
// followed by k zero bytes, so one 8-byte step XORs eight lookups, one per
// byte, each already shifted to where the byte-at-a-time loop would have
// left its contribution. CRC is linear over GF(2), so the result is
// bit-for-bit the byte loop's.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

const Crc32Tables& Crc32Table() {
  static const Crc32Tables tables = [] {
    Crc32Tables t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (size_t k = 1; k < t.size(); ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
      }
    }
    return t;
  }();
  return tables;
}

// A matrix section is u64 rows, u64 cols, then rows*cols float32, all
// dense row-major over the LOGICAL elements: the padded leading
// dimension (matrix.h) is an in-memory layout detail, so the bytes do not
// depend on the stride. This is the 16-byte rows/cols header; WriteFile
// streams the rows after it.
std::string MatrixHeader(const la::Matrix& m) {
  std::string header;
  AppendPod(&header, static_cast<uint64_t>(m.rows()));
  AppendPod(&header, static_cast<uint64_t>(m.cols()));
  return header;
}

// Parses the rows/cols header of matrix section `name`, checking that
// the rows fill `buf` exactly.
Status ParseMatrixShape(std::string_view buf, const std::string& name,
                        size_t* rows, size_t* cols) {
  uint64_t r = 0, c = 0;
  if (2 * sizeof(uint64_t) > buf.size()) {
    return Status::OutOfRange("matrix header past end of buffer");
  }
  std::memcpy(&r, buf.data(), sizeof(r));
  std::memcpy(&c, buf.data() + sizeof(r), sizeof(c));
  // Divide instead of multiplying: rows * cols wraps in u64 (2^32 x 2^32
  // is 0), and a wrapped count would pass both size checks.
  constexpr uint64_t kMaxElements = 1ull << 32;
  if (c != 0 && r > kMaxElements / c) {
    return Status::InvalidArgument("matrix too large in serialized header");
  }
  const uint64_t bytes = r * c * sizeof(float);
  const size_t left = buf.size() - 2 * sizeof(uint64_t);
  if (bytes > left) {
    return Status::OutOfRange("matrix data past end of buffer (truncated?)");
  }
  if (bytes != left) {
    return Status::IOError("matrix section '" + name + "' has trailing bytes");
  }
  *rows = static_cast<size_t>(r);
  *cols = static_cast<size_t>(c);
  return Status::OK();
}

// Copies the dense rows of a matrix section whose shape ParseMatrixShape
// accepted into `m`, which has that shape.
void CopyMatrixRows(std::string_view buf, la::Matrix* m) {
  const char* rows = buf.data() + 2 * sizeof(uint64_t);
  const size_t row_bytes = m->cols() * sizeof(float);
  for (size_t r = 0; r < m->rows(); ++r) {
    std::memcpy(m->Row(r), rows + r * row_bytes, row_bytes);
  }
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
  const Crc32Tables& t = Crc32Table();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  // Eight bytes per step: the register folds into the first four (the
  // host is little-endian, static_asserted above), and each byte indexes
  // the table for the number of bytes that follow it in the step.
  for (; len >= 8; p += 8, len -= 8) {
    uint32_t lo = 0, hi = 0;
    std::memcpy(&lo, p, 4);
    std::memcpy(&hi, p + 4, 4);
    lo ^= c;
    c = t[7][lo & 0xFFu] ^ t[6][(lo >> 8) & 0xFFu] ^
        t[5][(lo >> 16) & 0xFFu] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFu] ^
        t[2][(hi >> 8) & 0xFFu] ^ t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
  }
  for (; len > 0; ++p, --len) c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
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

void Writer::AddSection(const std::string& name, std::string bytes,
                        const la::Matrix* matrix) {
  PUP_CHECK_MSG(!name.empty(), "checkpoint section needs a name");
  for (const Section& existing : sections_) {
    PUP_CHECK_MSG(existing.name != name, "duplicate checkpoint section");
  }
  sections_.push_back({name, std::move(bytes), matrix});
}

void Writer::AddBytes(const std::string& name, std::string payload) {
  AddSection(name, std::move(payload), nullptr);
}

void Writer::AddMatrix(const std::string& name, const la::Matrix& m) {
  AddSection(name, MatrixHeader(m), &m);
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
  std::string header;
  header.reserve(kHeaderSize);
  header.append(kMagic, 4);
  AppendPod(&header, kFormatVersion);
  AppendPod(&header, fingerprint_.num_users);
  AppendPod(&header, fingerprint_.num_items);
  AppendPod(&header, fingerprint_.num_categories);
  AppendPod(&header, fingerprint_.num_price_levels);
  AppendPod(&header, fingerprint_.interaction_hash);
  AppendPod(&header, static_cast<uint32_t>(sections_.size()));
  AppendPod(&header, Crc32(header.data(), header.size()));
  PUP_CHECK_EQ(header.size(), kHeaderSize);

  const std::string tmp = path + ".tmp";
  uint64_t bytes_written = header.size();
  {
    FilePtr f(std::fopen(tmp.c_str(), "wb"));
    if (!f) return Status::IOError("cannot open for write: " + tmp);
    // Each section goes from its source through one CRC pass into the
    // file: a matrix's rows from the tensor's own memory, in one run
    // when they are dense and row by row past the pad lanes otherwise.
    // The CRC covers name and payload, not the two length fields. stdio
    // latches a failed write, so ferror() is checked once at the end.
    const auto put = [out = f.get()](const void* data, size_t len) {
      std::fwrite(data, 1, len, out);
    };
    const auto put_crc = [&put](const void* data, size_t len, uint32_t crc) {
      put(data, len);
      return Crc32(data, len, crc);
    };
    put(header.data(), header.size());
    for (const Section& section : sections_) {
      const la::Matrix* m = section.matrix;
      const uint32_t name_len = static_cast<uint32_t>(section.name.size());
      const uint64_t payload_len =
          section.bytes.size() + (m ? m->size() * sizeof(float) : 0);
      put(&name_len, sizeof(name_len));
      put(section.name.data(), name_len);
      put(&payload_len, sizeof(payload_len));
      uint32_t crc = Crc32(section.name.data(), name_len);
      crc = put_crc(section.bytes.data(), section.bytes.size(), crc);
      if (m != nullptr && m->IsContiguous()) {
        crc = put_crc(m->data(), m->size() * sizeof(float), crc);
      } else if (m != nullptr) {
        for (size_t r = 0; r < m->rows(); ++r) {
          crc = put_crc(m->Row(r), m->cols() * sizeof(float), crc);
        }
      }
      put(&crc, sizeof(crc));
      bytes_written += sizeof(name_len) + name_len + sizeof(payload_len) +
                       payload_len + sizeof(crc);
    }
    if (std::ferror(f.get()) != 0) {
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
  PUP_OBS_COUNT("ckpt/bytes_written", bytes_written);
  return Status::OK();
}

Result<Reader> Reader::Open(const std::string& path) {
  PUP_OBS_SCOPED_TIMER("ckpt/open");
  Reader reader;
  std::string& blob = reader.file_;
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
    // Compare against what is left, never offset + length: a length read
    // from the file can be near 2^64 and wrap the sum past this check.
    if (name_len > blob.size() - offset) {
      return Status::IOError("checkpoint truncated in section name: " + path);
    }
    const size_t name_offset = offset;
    std::string name(blob, offset, name_len);
    offset += name_len;
    // The name itself may be the corrupted part — keep error messages
    // printable.
    std::string printable = name;
    for (char& c : printable) {
      if (c < 0x20 || c == 0x7f) c = '?';
    }
    uint64_t payload_len = 0;
    PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &payload_len));
    if (payload_len > blob.size() - offset) {
      return Status::IOError("checkpoint truncated in section '" + printable +
                             "': " + path);
    }
    const Span payload = {offset, static_cast<size_t>(payload_len)};
    offset += payload.size;
    uint32_t stored_crc = 0;
    PUP_RETURN_NOT_OK(ReadPod(blob, &offset, &stored_crc));
    uint32_t crc = Crc32(blob.data() + name_offset, name_len);
    crc = Crc32(blob.data() + payload.offset, payload.size, crc);
    if (crc != stored_crc) {
      return Status::IOError("checkpoint CRC mismatch in section '" +
                             printable + "' (corrupt data): " + path);
    }
    reader.sections_.emplace(std::move(name), payload);
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

Result<std::string_view> Reader::Payload(const std::string& name) const {
  auto it = sections_.find(name);
  if (it == sections_.end()) {
    return Status::NotFound("checkpoint has no section '" + name + "'");
  }
  return std::string_view(file_).substr(it->second.offset, it->second.size);
}

Result<la::Matrix> Reader::GetMatrix(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(std::string_view payload, Payload(name));
  size_t rows = 0, cols = 0;
  PUP_RETURN_NOT_OK(ParseMatrixShape(payload, name, &rows, &cols));
  la::Matrix m(rows, cols);
  CopyMatrixRows(payload, &m);
  return m;
}

Result<uint64_t> Reader::GetU64(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(std::string_view payload, Payload(name));
  uint64_t v = 0;
  size_t offset = 0;
  PUP_RETURN_NOT_OK(ReadPod(payload, &offset, &v));
  return v;
}

Result<float> Reader::GetF32(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(std::string_view payload, Payload(name));
  float v = 0.0f;
  size_t offset = 0;
  PUP_RETURN_NOT_OK(ReadPod(payload, &offset, &v));
  return v;
}

Result<std::string> Reader::GetString(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(std::string_view payload, Payload(name));
  return std::string(payload);
}

Result<RngState> Reader::GetRng(const std::string& name) const {
  PUP_ASSIGN_OR_RETURN(std::string_view payload, Payload(name));
  if (payload.size() != 6 * sizeof(uint64_t)) {
    return Status::IOError("RNG section '" + name + "' has wrong size");
  }
  RngState state;
  size_t offset = 0;
  for (uint64_t& word : state.s) {
    PUP_RETURN_NOT_OK(ReadPod(payload, &offset, &word));
  }
  uint64_t have = 0, cached = 0;
  PUP_RETURN_NOT_OK(ReadPod(payload, &offset, &have));
  PUP_RETURN_NOT_OK(ReadPod(payload, &offset, &cached));
  state.have_cached_gaussian = have != 0;
  state.cached_gaussian = std::bit_cast<double>(cached);
  return state;
}

Status Reader::ReadMatrixInto(const std::string& name,
                              la::Matrix* dst) const {
  PUP_ASSIGN_OR_RETURN(std::string_view payload, Payload(name));
  size_t rows = 0, cols = 0;
  PUP_RETURN_NOT_OK(ParseMatrixShape(payload, name, &rows, &cols));
  if (rows != dst->rows() || cols != dst->cols()) {
    return Status::FailedPrecondition(
        "matrix section '" + name + "' is " + std::to_string(rows) + "x" +
        std::to_string(cols) + " but the live tensor is " +
        std::to_string(dst->rows()) + "x" + std::to_string(dst->cols()));
  }
  CopyMatrixRows(payload, dst);
  return Status::OK();
}

}  // namespace pup::ckpt
