#ifndef SITSTATS_STORAGE_COLUMN_FILE_H_
#define SITSTATS_STORAGE_COLUMN_FILE_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "storage/column.h"

namespace sitstats {

/// Binary, mmap-able column file format ("colfile"), version 2.
///
/// Layout (little-endian, 64-byte header so the payload starts aligned):
///
///   offset  size  field
///        0     8  magic "SITSCOL1"
///        8     4  format version (2)
///       12     4  value type (0 = int64, 1 = double, 2 = string)
///       16     8  row count
///       24     8  payload bytes
///       32     8  checksum (see ColumnFileDigest)
///       40    24  reserved (zero)
///       64     -  payload
///
/// The checksum covers the payload and the header fields that size it:
/// header bytes 8..31 (version, type, row count, payload bytes) are hashed
/// first and seed the payload hash, so a flipped bit in either is caught.
/// Every payload byte is verified before its table is first used: a binary
/// catalog reads a table's colfiles on that table's first use
/// (storage/catalog.h). Version 1 files are rejected; re-import them.
///
/// Numeric payloads are the raw 8-byte cells, so a reader can hand the
/// mapping directly to the batched scan with no per-row decode — this is
/// the contiguous span the vectorized sample/build pipeline consumes.
/// String payloads are (row_count + 1) uint64 byte offsets followed by the
/// concatenated bytes; strings are materialized on load (they are never on
/// the numeric statistics hot path).
struct ColumnFileHeader {
  char magic[8];
  uint32_t version;
  uint32_t type;
  uint64_t num_rows;
  uint64_t payload_bytes;
  uint64_t checksum;
  uint8_t reserved[24];
};
static_assert(sizeof(ColumnFileHeader) == 64, "colfile header must be 64B");

inline constexpr char kColumnFileMagic[8] = {'S', 'I', 'T', 'S',
                                             'C', 'O', 'L', '1'};
inline constexpr uint32_t kColumnFileVersion = 2;

/// XXH64 of a byte range: four independent 64-bit multiply-rotate lanes
/// over 32-byte stripes, then the tail fold and avalanche. Portable (no
/// intrinsics) and word-wise, so it runs near memory bandwidth.
uint64_t ColumnFileChecksum(const void* data, size_t size, uint64_t seed = 0);

/// The value a colfile stores in `checksum`: the payload hash seeded with
/// the hash of header bytes 8..31. `payload` holds `header.payload_bytes`
/// bytes.
uint64_t ColumnFileDigest(const ColumnFileHeader& header,
                          const uint8_t* payload);

/// A read-only mmap of a whole file. Shared ownership: every Column built
/// over the mapping keeps a shared_ptr so the region outlives the catalog
/// entry that borrowed it.
class MappedFile {
 public:
  /// Opens `path` read-only and maps it (carries the
  /// "storage.colfile.mmap" fault site). Empty files map to a null region
  /// of size 0.
  static Result<std::shared_ptr<MappedFile>> Map(const std::string& path);

  ~MappedFile();

  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  MappedFile(const uint8_t* data, size_t size) : data_(data), size_(size) {}

  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// Writes one column to `path` in colfile format.
Status WriteColumnFile(const Column& column, const std::string& path);

/// Reads a colfile back into a column named `name`. Numeric columns are
/// zero-copy: the returned Column references the mapping directly (and
/// keeps it alive); string columns are copied out. Corruption — bad magic,
/// unknown version, truncated payload, checksum mismatch, size
/// disagreement — surfaces as InvalidArgument naming the file. The
/// checksum pass runs under a "storage.colfile.verify" trace span.
Result<Column> ReadColumnFile(const std::string& name,
                              const std::string& path);

}  // namespace sitstats

#endif  // SITSTATS_STORAGE_COLUMN_FILE_H_
