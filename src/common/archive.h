// Versioned, CRC-protected binary archive — the snapshot wire format.
//
// An archive is a flat byte buffer: a fixed header (container magic, an
// application tag naming what the payload is, and an application format
// version), followed by a sequence of sections. Each section carries its own
// CRC64 over the payload, so corruption is localised and every decode path
// can reject a damaged file without trusting any of its contents:
//
//   [magic "FXAR"][container u32][app_tag u32][app_version u32]
//   repeat: [id u32][reserved u32][payload_len u64][crc64 u64][payload][pad]
//
// All fixed-width integers are little-endian; section headers are 24 bytes
// and payloads are padded to 8-byte alignment, so a section's raw spans (the
// resident memory pages) land 8-aligned in the file and can be read in place
// from an mmap'd buffer (ArchiveReader::take_span returns a pointer into the
// backing buffer, no copy). The reserved header word and the pad tail must be
// zero and are validated on read — every byte of a well-formed file is
// covered by either the header checks, a CRC, or a must-be-zero rule, so any
// single-bit corruption is rejected.
//
// Each wire struct lists its fields once, in a `template <class Ar> void
// transfer(Ar& ar)` walk over the field verbs both archive classes share:
// fixed(), boolean(), f64(), varint(), enumeration(), vector(), bytes(),
// require() and section(). Walked with an ArchiveWriter the verbs encode;
// walked with an ArchiveReader they decode and validate, so encoder and
// decoder cannot drift apart. A shape only one struct has is written inline
// in its walk, under `if constexpr (Ar::kReading)` where the directions
// differ. Walk bodies live in their component's .cpp with explicit
// instantiations for the two archive types.
//
// Decode errors are STRUCTURED, never fatal: the reader latches the first
// ArchiveStatus (truncation, bad magic, version skew, CRC mismatch,
// malformed field) and every subsequent read yields zero — callers check
// ok() once at the end of a decode instead of guarding every field. Campaign
// checkpoint files are untrusted input (half-written, bit-rotted, produced
// by a different build); none of them may abort the process. Every value
// has exactly one encoding: a decoded buffer re-encodes to itself.
//
// Versioning policy (v1): the app_version is bumped on ANY layout change and
// readers accept only an exact match — no migration shims. A persisted
// baseline is a cache, not an interchange format; a skewed file is simply
// recomputed by its owner.
#pragma once

#include <cstddef>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace flexstep::io {

/// CRC-64/ECMA-182 (the polynomial used by XZ); table-driven, one pass.
/// Chainable: feed the previous return value as `crc` to continue a stream.
u64 crc64(const void* data, std::size_t n, u64 crc = 0);

enum class ArchiveStatus : u8 {
  kOk,
  kIoError,       ///< open/read/write/rename failed (detail has errno text).
  kBadMagic,      ///< Not an archive, or an archive of a different app_tag.
  kVersionSkew,   ///< app_version != the version this build reads/writes.
  kTruncated,     ///< A read ran past the end of the buffer / section.
  kCrcMismatch,   ///< Section payload does not match its stored CRC64.
  kMalformed,     ///< Structurally invalid (section id/order, field domain).
};

constexpr const char* archive_status_name(ArchiveStatus s) {
  switch (s) {
    case ArchiveStatus::kOk: return "ok";
    case ArchiveStatus::kIoError: return "io-error";
    case ArchiveStatus::kBadMagic: return "bad-magic";
    case ArchiveStatus::kVersionSkew: return "version-skew";
    case ArchiveStatus::kTruncated: return "truncated";
    case ArchiveStatus::kCrcMismatch: return "crc-mismatch";
    case ArchiveStatus::kMalformed: return "malformed";
  }
  return "?";
}

/// First failure of a decode (or file operation). Empty detail when ok.
struct ArchiveError {
  ArchiveStatus status = ArchiveStatus::kOk;
  std::string detail;

  bool ok() const { return status == ArchiveStatus::kOk; }
  /// "crc-mismatch: section 3 payload" — for logs and test assertions.
  std::string message() const;
};

/// vector()'s default element walk: fixed() for an integer, the element's
/// own transfer() for a struct.
template <class Ar, class T>
void transfer_element(Ar& ar, T& element) {
  if constexpr (std::is_integral_v<T>) {
    ar.fixed(element);
  } else {
    element.transfer(ar);
  }
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

class ArchiveWriter {
 public:
  /// Starts the buffer with the container header. `app_tag` names the payload
  /// kind (e.g. "FSNP" for a soc::Snapshot), `app_version` its format version.
  ArchiveWriter(u32 app_tag, u32 app_version);

  /// Open a section. Sections cannot nest; every put_* must happen inside one.
  void begin_section(u32 id);
  /// Seal the open section: patch its length, CRC64 the payload, pad to 8.
  void end_section();

  void put_u8(u8 v);
  void put_u32(u32 v);
  void put_u64(u64 v);
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_f64(double v);
  /// LEB128 — for counts and small fields.
  void put_varint(u64 v);
  /// Raw span (memory pages). Callers that want the span 8-aligned in the
  /// file should put fixed-width fields (not varints) ahead of it.
  void put_bytes(const void* data, std::size_t n);

  // ---- field verbs (the encoding half of a transfer() walk) ----

  static constexpr bool kReading = false;
  bool ok() const { return true; }

  /// Unsigned integer of 1, 4 or 8 bytes, little-endian.
  template <class T>
  void fixed(T v) {
    static_assert(std::is_unsigned_v<T> && (sizeof(T) == 1 || sizeof(T) == 4 ||
                                            sizeof(T) == 8));
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      buf_.push_back(static_cast<u8>(u64{v} >> (8 * i)));
    }
  }
  void boolean(bool v) { put_bool(v); }
  void f64(double v) { put_f64(v); }
  template <class T>
  void varint(T v) {
    static_assert(std::is_unsigned_v<T>);
    put_varint(v);
  }
  /// A u8-backed enum; the reader rejects values above `max` with `what`.
  template <class E>
  void enumeration(E v, E /*max*/, const char* /*what*/) {
    put_u8(static_cast<u8>(v));
  }
  /// Varint count, then `fn(element)` for every element (by default
  /// transfer_element). `min_elem_bytes` bounds the reader's count (see
  /// ArchiveReader::take_count).
  template <class T, class Fn>
  void vector(std::vector<T>& v, std::size_t /*min_elem_bytes*/, Fn&& fn) {
    put_varint(v.size());
    for (T& element : v) fn(element);
  }
  template <class T>
  void vector(std::vector<T>& v, std::size_t min_elem_bytes) {
    vector(v, min_elem_bytes, [this](T& element) { transfer_element(*this, element); });
  }
  void bytes(const void* data, std::size_t n) { put_bytes(data, n); }
  /// A decode-side domain check; nothing to check when encoding.
  void require(bool /*cond*/, const char* /*what*/) {}
  /// begin_section(id), fn(), end_section().
  template <class Fn>
  void section(u32 id, Fn&& fn) {
    begin_section(id);
    fn();
    end_section();
  }

  /// The finished archive. Call only with no section open.
  const std::vector<u8>& buffer() const;

  /// Persist atomically: write to `path + ".tmp"`, flush, rename over `path`.
  /// A crashed writer leaves at worst a stale .tmp file, never a torn target.
  ArchiveError write_file(const std::string& path) const;

 private:
  std::vector<u8> buf_;
  std::size_t payload_start_ = 0;  ///< Of the open section.
  std::size_t header_at_ = 0;      ///< Offset of the open section's header.
  bool in_section_ = false;
};

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

class ArchiveReader {
 public:
  /// Validates the container header against (app_tag, app_version); on any
  /// mismatch the error is latched and every subsequent call is a no-op.
  /// The buffer must outlive the reader (take_span aliases it).
  ArchiveReader(const u8* data, std::size_t size, u32 app_tag, u32 app_version);

  bool ok() const { return error_.ok(); }
  const ArchiveError& error() const { return error_; }

  /// Enter the next section, which must have id `expect_id` (sections are
  /// decoded in the order they were written). Verifies the payload CRC64
  /// before returning true; on any failure latches and returns false.
  bool begin_section(u32 expect_id);
  /// Leave the section. A decoder that consumed less than the payload is a
  /// version-skew bug caught here as kMalformed (v1 tolerates no tails).
  void end_section();

  u8 take_u8();
  u32 take_u32();
  u64 take_u64();
  bool take_bool();
  double take_f64();
  u64 take_varint();
  void take_bytes(void* out, std::size_t n);
  /// Zero-copy: a pointer to `n` bytes inside the backing buffer (8-aligned
  /// when the writer kept the span aligned), or nullptr on failure.
  const u8* take_span(std::size_t n);
  /// A varint count, validated: `count * min_elem_bytes` must fit in what
  /// remains of the section, so a corrupt length can never drive a giant
  /// allocation. Returns 0 on failure.
  u64 take_count(std::size_t min_elem_bytes);

  /// Latch a failure from application-level validation (field domain checks).
  void fail(ArchiveStatus status, std::string detail);

  // ---- field verbs (the decoding half of a transfer() walk) ----

  static constexpr bool kReading = true;

  template <class T>
  void fixed(T& v) {
    static_assert(std::is_unsigned_v<T> && (sizeof(T) == 1 || sizeof(T) == 4 ||
                                            sizeof(T) == 8));
    if constexpr (sizeof(T) == 1) {
      v = take_u8();
    } else if constexpr (sizeof(T) == 4) {
      v = take_u32();
    } else {
      v = take_u64();
    }
  }
  void boolean(bool& v) { v = take_bool(); }
  void f64(double& v) { v = take_f64(); }
  /// A varint that does not fit `T` is kMalformed, never truncated: each
  /// value keeps exactly one encoding.
  template <class T>
  void varint(T& v) {
    static_assert(std::is_unsigned_v<T>);
    const u64 raw = take_varint();
    require(raw <= std::numeric_limits<T>::max(), "varint does not fit its field");
    v = static_cast<T>(raw);
  }
  template <class E>
  void enumeration(E& v, E max, const char* what) {
    const u8 raw = take_u8();
    require(raw <= static_cast<u8>(max), what);
    v = static_cast<E>(raw);
  }
  /// Replaces `v` with the decoded elements; stops at the first failure.
  template <class T, class Fn>
  void vector(std::vector<T>& v, std::size_t min_elem_bytes, Fn&& fn) {
    v.clear();
    const u64 count = take_count(min_elem_bytes);
    for (u64 i = 0; ok() && i < count; ++i) fn(v.emplace_back());
  }
  template <class T>
  void vector(std::vector<T>& v, std::size_t min_elem_bytes) {
    vector(v, min_elem_bytes, [this](T& element) { transfer_element(*this, element); });
  }
  void bytes(void* out, std::size_t n) { take_bytes(out, n); }
  /// Latch kMalformed with `what` unless `cond` holds (first failure wins).
  void require(bool cond, const char* what) {
    if (ok() && !cond) fail(ArchiveStatus::kMalformed, what);
  }
  /// fn() inside section `id`; skipped once the reader has failed.
  template <class Fn>
  void section(u32 id, Fn&& fn) {
    if (!begin_section(id)) return;
    fn();
    end_section();
  }

 private:
  std::size_t remaining() const { return limit_ - pos_; }

  const u8* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
  std::size_t limit_ = 0;        ///< End of the open section (or header).
  std::size_t section_end_ = 0;  ///< Incl. padding — where the next header is.
  bool in_section_ = false;
  ArchiveError error_;
};

// ---------------------------------------------------------------------------
// File helpers
// ---------------------------------------------------------------------------

/// Slurp a file. kIoError when it cannot be opened/read.
ArchiveError read_file(const std::string& path, std::vector<u8>& out);

/// Atomic byte write: temp file + rename (the writer's write_file in free form).
ArchiveError write_file_atomic(const std::string& path, const void* data,
                               std::size_t n);

}  // namespace flexstep::io
