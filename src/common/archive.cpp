#include "common/archive.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

#include "common/check.h"

namespace flexstep::io {

namespace {

/// Container magic "FXAR" and layout version. The container version covers
/// the header/section framing itself; app_version covers the payload layout.
constexpr u32 kMagic = 0x52415846;  // 'F','X','A','R' little-endian.
constexpr u32 kContainerVersion = 1;
constexpr std::size_t kHeaderBytes = 16;
constexpr std::size_t kSectionHeaderBytes = 24;

constexpr std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// CRC-64/ECMA-182, bit-reflected (poly 0xC96C5795D7870F42), as used by XZ.
struct Crc64Table {
  u64 t[256];
  constexpr Crc64Table() : t{} {
    for (u32 i = 0; i < 256; ++i) {
      u64 c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (c >> 1) ^ 0xC96C5795D7870F42ULL : c >> 1;
      }
      t[i] = c;
    }
  }
};
constexpr Crc64Table kCrc64;

u64 load_u32(const u8* p) {
  return static_cast<u64>(p[0]) | static_cast<u64>(p[1]) << 8 |
         static_cast<u64>(p[2]) << 16 | static_cast<u64>(p[3]) << 24;
}

u64 load_u64(const u8* p) { return load_u32(p) | load_u32(p + 4) << 32; }

std::string errno_text(const char* op, const std::string& path) {
  return std::string(op) + " " + path + ": " + std::strerror(errno);
}

}  // namespace

u64 crc64(const void* data, std::size_t n, u64 crc) {
  const auto* p = static_cast<const u8*>(data);
  crc = ~crc;
  for (std::size_t i = 0; i < n; ++i) {
    crc = kCrc64.t[static_cast<u8>(crc) ^ p[i]] ^ (crc >> 8);
  }
  return ~crc;
}

std::string ArchiveError::message() const {
  std::string out = archive_status_name(status);
  if (!detail.empty()) {
    out += ": ";
    out += detail;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

ArchiveWriter::ArchiveWriter(u32 app_tag, u32 app_version) {
  put_u32(kMagic);
  put_u32(kContainerVersion);
  put_u32(app_tag);
  put_u32(app_version);
}

void ArchiveWriter::begin_section(u32 id) {
  FLEX_CHECK_MSG(!in_section_, "archive writer: sections cannot nest");
  in_section_ = true;
  header_at_ = buf_.size();
  put_u32(id);
  put_u32(0);  // reserved — keeps the 8-byte fields below 8-aligned
  put_u64(0);  // payload_len, patched by end_section
  put_u64(0);  // crc64, patched by end_section
  payload_start_ = buf_.size();
}

void ArchiveWriter::end_section() {
  FLEX_CHECK_MSG(in_section_, "archive writer: end_section without begin");
  in_section_ = false;
  const std::size_t len = buf_.size() - payload_start_;
  const u64 crc = crc64(buf_.data() + payload_start_, len);
  u8* header = buf_.data() + header_at_;
  for (int i = 0; i < 8; ++i) {
    header[8 + i] = static_cast<u8>(static_cast<u64>(len) >> (i * 8));
    header[16 + i] = static_cast<u8>(crc >> (i * 8));
  }
  buf_.resize(payload_start_ + pad8(len), 0);  // next header lands 8-aligned
}

void ArchiveWriter::put_u8(u8 v) { buf_.push_back(v); }

void ArchiveWriter::put_u32(u32 v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<u8>(v >> (i * 8)));
}

void ArchiveWriter::put_u64(u64 v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<u8>(v >> (i * 8)));
}

void ArchiveWriter::put_f64(double v) {
  u64 bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u64(bits);
}

void ArchiveWriter::put_varint(u64 v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<u8>(v) | 0x80);
    v >>= 7;
  }
  buf_.push_back(static_cast<u8>(v));
}

void ArchiveWriter::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const u8*>(data);
  buf_.insert(buf_.end(), p, p + n);
}

const std::vector<u8>& ArchiveWriter::buffer() const {
  FLEX_CHECK_MSG(!in_section_, "archive writer: buffer() with a section open");
  return buf_;
}

ArchiveError ArchiveWriter::write_file(const std::string& path) const {
  return write_file_atomic(path, buffer().data(), buffer().size());
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

ArchiveReader::ArchiveReader(const u8* data, std::size_t size, u32 app_tag,
                             u32 app_version)
    : data_(data), size_(size), limit_(size) {
  if (size_ < kHeaderBytes) {
    fail(ArchiveStatus::kTruncated, "missing archive header");
    return;
  }
  if (load_u32(data_) != kMagic) {
    fail(ArchiveStatus::kBadMagic, "not an FXAR archive");
    return;
  }
  if (load_u32(data_ + 4) != kContainerVersion) {
    fail(ArchiveStatus::kVersionSkew, "container version mismatch");
    return;
  }
  if (load_u32(data_ + 8) != app_tag) {
    fail(ArchiveStatus::kBadMagic, "archive holds a different payload kind");
    return;
  }
  if (load_u32(data_ + 12) != app_version) {
    fail(ArchiveStatus::kVersionSkew,
         "format version " + std::to_string(load_u32(data_ + 12)) +
             " (this build reads " + std::to_string(app_version) + ")");
    return;
  }
  pos_ = kHeaderBytes;
  section_end_ = kHeaderBytes;
}

bool ArchiveReader::begin_section(u32 expect_id) {
  if (!ok()) return false;
  FLEX_CHECK_MSG(!in_section_, "archive reader: sections cannot nest");
  pos_ = section_end_;
  limit_ = size_;
  if (remaining() < kSectionHeaderBytes) {
    fail(ArchiveStatus::kTruncated,
         "section " + std::to_string(expect_id) + " header missing");
    return false;
  }
  const u32 id = static_cast<u32>(load_u32(data_ + pos_));
  const u64 len = load_u64(data_ + pos_ + 8);
  const u64 crc = load_u64(data_ + pos_ + 16);
  if (id != expect_id) {
    fail(ArchiveStatus::kMalformed, "expected section " +
                                        std::to_string(expect_id) + ", found " +
                                        std::to_string(id));
    return false;
  }
  // The reserved word and the pad tail (checked in end_section) are the only
  // bytes outside the CRC window; validating them as zero means EVERY bit of
  // the file is covered by some check — the corruption-sweep test holds the
  // format to that.
  if (load_u32(data_ + pos_ + 4) != 0) {
    fail(ArchiveStatus::kMalformed,
         "section " + std::to_string(expect_id) + " reserved bits set");
    return false;
  }
  pos_ += kSectionHeaderBytes;
  if (len > remaining()) {
    fail(ArchiveStatus::kTruncated,
         "section " + std::to_string(expect_id) + " payload cut short");
    return false;
  }
  if (crc64(data_ + pos_, static_cast<std::size_t>(len)) != crc) {
    fail(ArchiveStatus::kCrcMismatch,
         "section " + std::to_string(expect_id) + " payload");
    return false;
  }
  limit_ = pos_ + static_cast<std::size_t>(len);
  section_end_ = pos_ + pad8(static_cast<std::size_t>(len));
  if (section_end_ > size_) section_end_ = size_;  // final section: pad optional
  in_section_ = true;
  return true;
}

void ArchiveReader::end_section() {
  if (!ok()) return;
  FLEX_CHECK_MSG(in_section_, "archive reader: end_section without begin");
  in_section_ = false;
  if (pos_ != limit_) {
    // A CRC-clean payload the decoder did not fully consume means writer and
    // reader disagree about the layout within one app_version — a bug, but
    // reported as a structured error so campaign tooling can skip the file.
    fail(ArchiveStatus::kMalformed,
         std::to_string(limit_ - pos_) + " undecoded payload bytes");
    return;
  }
  for (std::size_t i = limit_; i < section_end_; ++i) {
    if (data_[i] != 0) {
      fail(ArchiveStatus::kMalformed, "nonzero section padding");
      return;
    }
  }
}

u8 ArchiveReader::take_u8() {
  if (!ok() || remaining() < 1) {
    if (ok()) fail(ArchiveStatus::kTruncated, "u8 field");
    return 0;
  }
  return data_[pos_++];
}

u32 ArchiveReader::take_u32() {
  if (!ok() || remaining() < 4) {
    if (ok()) fail(ArchiveStatus::kTruncated, "u32 field");
    return 0;
  }
  const u32 v = static_cast<u32>(load_u32(data_ + pos_));
  pos_ += 4;
  return v;
}

u64 ArchiveReader::take_u64() {
  if (!ok() || remaining() < 8) {
    if (ok()) fail(ArchiveStatus::kTruncated, "u64 field");
    return 0;
  }
  const u64 v = load_u64(data_ + pos_);
  pos_ += 8;
  return v;
}

bool ArchiveReader::take_bool() {
  const u8 v = take_u8();
  if (ok() && v > 1) fail(ArchiveStatus::kMalformed, "bool field out of domain");
  return v == 1;
}

double ArchiveReader::take_f64() {
  const u64 bits = take_u64();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

u64 ArchiveReader::take_varint() {
  u64 v = 0;
  for (u32 shift = 0; shift < 64; shift += 7) {
    const u8 byte = take_u8();
    if (!ok()) return 0;
    if (shift == 63 && byte > 1) break;  // bits past 2^64 would be dropped
    v |= static_cast<u64>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) {
      // Reject non-canonical zero-padded tails ("0x80 0x00" for 0) so one
      // varint has exactly one encoding — corruption can't alias to a valid
      // stream of different length.
      if (byte == 0 && shift != 0) {
        fail(ArchiveStatus::kMalformed, "non-canonical varint");
        return 0;
      }
      return v;
    }
  }
  fail(ArchiveStatus::kMalformed, "varint longer than 64 bits");
  return 0;
}

void ArchiveReader::take_bytes(void* out, std::size_t n) {
  const u8* span = take_span(n);
  if (span != nullptr) std::memcpy(out, span, n);
}

const u8* ArchiveReader::take_span(std::size_t n) {
  if (!ok() || remaining() < n) {
    if (ok()) fail(ArchiveStatus::kTruncated, "raw span");
    return nullptr;
  }
  const u8* span = data_ + pos_;
  pos_ += n;
  return span;
}

u64 ArchiveReader::take_count(std::size_t min_elem_bytes) {
  const u64 count = take_varint();
  if (!ok()) return 0;
  if (min_elem_bytes != 0 && count > remaining() / min_elem_bytes) {
    fail(ArchiveStatus::kMalformed, "element count exceeds payload size");
    return 0;
  }
  return count;
}

void ArchiveReader::fail(ArchiveStatus status, std::string detail) {
  if (!error_.ok()) return;  // first failure wins
  error_.status = status;
  error_.detail = std::move(detail);
  pos_ = limit_;  // park the cursor; every further take returns zero
}

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

ArchiveError read_file(const std::string& path, std::vector<u8>& out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return {ArchiveStatus::kIoError, errno_text("open", path)};
  }
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  if (size < 0) {
    std::fclose(f);
    return {ArchiveStatus::kIoError, errno_text("stat", path)};
  }
  out.resize(static_cast<std::size_t>(size));
  const std::size_t got = out.empty() ? 0 : std::fread(out.data(), 1, out.size(), f);
  std::fclose(f);
  if (got != out.size()) {
    return {ArchiveStatus::kIoError, errno_text("read", path)};
  }
  return {};
}

ArchiveError write_file_atomic(const std::string& path, const void* data,
                               std::size_t n) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) {
    return {ArchiveStatus::kIoError, errno_text("open", tmp)};
  }
  const std::size_t wrote = n == 0 ? 0 : std::fwrite(data, 1, n, f);
  const bool flushed = std::fflush(f) == 0;
  std::fclose(f);
  if (wrote != n || !flushed) {
    std::remove(tmp.c_str());
    return {ArchiveStatus::kIoError, errno_text("write", tmp)};
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return {ArchiveStatus::kIoError, errno_text("rename", path)};
  }
  return {};
}

}  // namespace flexstep::io
