#include "storage/column_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstring>

#include <bit>
#include <fstream>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "telemetry/trace.h"

// The payload is the host representation of the cells, so the format is
// only portable between little-endian machines; refuse to compile a
// big-endian build rather than silently writing incompatible files.
static_assert(std::endian::native == std::endian::little,
              "colfile payloads are little-endian");

namespace sitstats {

namespace {

Status Corrupt(const std::string& path, const std::string& what) {
  return Status::InvalidArgument(path + ": corrupt column file: " + what);
}

// XXH64 (Yann Collet's xxHash, 64-bit variant) primes.
constexpr uint64_t kPrime1 = 0x9E3779B185EBCA87ULL;
constexpr uint64_t kPrime2 = 0xC2B2AE3D27D4EB4FULL;
constexpr uint64_t kPrime3 = 0x165667B19E3779F9ULL;
constexpr uint64_t kPrime4 = 0x85EBCA77C2B2AE63ULL;
constexpr uint64_t kPrime5 = 0x27D4EB2F165667C5ULL;

inline uint64_t Load64(const uint8_t* p) {
  uint64_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint32_t Load32(const uint8_t* p) {
  uint32_t v;
  std::memcpy(&v, p, sizeof(v));
  return v;
}

inline uint64_t Round(uint64_t acc, uint64_t input) {
  acc += input * kPrime2;
  return std::rotl(acc, 31) * kPrime1;
}

inline uint64_t MergeRound(uint64_t acc, uint64_t lane) {
  acc ^= Round(0, lane);
  return acc * kPrime1 + kPrime4;
}

}  // namespace

uint64_t ColumnFileChecksum(const void* data, size_t size, uint64_t seed) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  size_t left = size;
  uint64_t hash;
  if (left >= 32) {
    // Four independent lanes keep four multiplies in flight per stripe.
    uint64_t v1 = seed + kPrime1 + kPrime2;
    uint64_t v2 = seed + kPrime2;
    uint64_t v3 = seed;
    uint64_t v4 = seed - kPrime1;
    do {
      v1 = Round(v1, Load64(p));
      v2 = Round(v2, Load64(p + 8));
      v3 = Round(v3, Load64(p + 16));
      v4 = Round(v4, Load64(p + 24));
      p += 32;
      left -= 32;
    } while (left >= 32);
    hash = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
           std::rotl(v4, 18);
    hash = MergeRound(hash, v1);
    hash = MergeRound(hash, v2);
    hash = MergeRound(hash, v3);
    hash = MergeRound(hash, v4);
  } else {
    hash = seed + kPrime5;
  }
  hash += static_cast<uint64_t>(size);

  // Tail: whole words, one half word, then single bytes.
  for (; left >= 8; p += 8, left -= 8) {
    hash ^= Round(0, Load64(p));
    hash = std::rotl(hash, 27) * kPrime1 + kPrime4;
  }
  if (left >= 4) {
    hash ^= static_cast<uint64_t>(Load32(p)) * kPrime1;
    hash = std::rotl(hash, 23) * kPrime2 + kPrime3;
    p += 4;
    left -= 4;
  }
  for (; left > 0; ++p, --left) {
    hash ^= static_cast<uint64_t>(*p) * kPrime5;
    hash = std::rotl(hash, 11) * kPrime1;
  }

  // Avalanche.
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

uint64_t ColumnFileDigest(const ColumnFileHeader& header,
                          const uint8_t* payload) {
  // Header bytes 8..31: version, type, row count, payload bytes.
  constexpr size_t kSizedFieldsBegin = offsetof(ColumnFileHeader, version);
  constexpr size_t kSizedFieldsEnd = offsetof(ColumnFileHeader, checksum);
  static_assert(kSizedFieldsBegin == 8 && kSizedFieldsEnd == 32);
  const uint64_t header_hash = ColumnFileChecksum(
      reinterpret_cast<const uint8_t*>(&header) + kSizedFieldsBegin,
      kSizedFieldsEnd - kSizedFieldsBegin);
  return ColumnFileChecksum(payload, static_cast<size_t>(header.payload_bytes),
                            header_hash);
}

Result<std::shared_ptr<MappedFile>> MappedFile::Map(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::IOError("cannot open " + path + ": " +
                           std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status status =
        Status::IOError("cannot stat " + path + ": " + std::strerror(errno));
    ::close(fd);
    return status;
  }
  size_t size = static_cast<size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return std::shared_ptr<MappedFile>(new MappedFile(nullptr, 0));
  }
  SITSTATS_FAULT_SITE("storage.colfile.mmap");
  void* addr = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  // The mapping survives the descriptor; close unconditionally.
  ::close(fd);
  if (addr == MAP_FAILED) {
    return Status::IOError("cannot mmap " + path + ": " +
                           std::strerror(errno));
  }
  return std::shared_ptr<MappedFile>(
      new MappedFile(static_cast<const uint8_t*>(addr), size));
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    (void)::munmap(const_cast<uint8_t*>(data_), size_);
  }
}

Status WriteColumnFile(const Column& column, const std::string& path) {
  SITSTATS_FAULT_SITE("storage.colfile.write");
  ColumnFileHeader header{};
  std::memcpy(header.magic, kColumnFileMagic, sizeof(header.magic));
  header.version = kColumnFileVersion;
  header.type = static_cast<uint32_t>(column.type());
  header.num_rows = column.size();

  // Assemble the payload. Numeric cells are written straight from the
  // column storage; strings go through an offsets-then-bytes staging
  // buffer.
  const uint8_t* payload = nullptr;
  std::vector<uint8_t> staged;
  switch (column.type()) {
    case ValueType::kInt64: {
      auto span = column.int64_data();
      payload = reinterpret_cast<const uint8_t*>(span.data());
      header.payload_bytes = span.size() * sizeof(int64_t);
      break;
    }
    case ValueType::kDouble: {
      auto span = column.double_data();
      payload = reinterpret_cast<const uint8_t*>(span.data());
      header.payload_bytes = span.size() * sizeof(double);
      break;
    }
    case ValueType::kString: {
      const std::vector<std::string>& strings = column.string_data();
      uint64_t total_bytes = 0;
      for (const std::string& s : strings) total_bytes += s.size();
      staged.resize((strings.size() + 1) * sizeof(uint64_t) + total_bytes);
      uint64_t* offsets = reinterpret_cast<uint64_t*>(staged.data());
      uint8_t* bytes = staged.data() + (strings.size() + 1) * sizeof(uint64_t);
      uint64_t offset = 0;
      for (size_t i = 0; i < strings.size(); ++i) {
        offsets[i] = offset;
        std::memcpy(bytes + offset, strings[i].data(), strings[i].size());
        offset += strings[i].size();
      }
      offsets[strings.size()] = offset;
      payload = staged.data();
      header.payload_bytes = staged.size();
      break;
    }
  }
  header.checksum = ColumnFileDigest(header, payload);

  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  out.write(reinterpret_cast<const char*>(&header), sizeof(header));
  if (header.payload_bytes > 0) {
    out.write(reinterpret_cast<const char*>(payload),
              static_cast<std::streamsize>(header.payload_bytes));
  }
  out.flush();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

Result<Column> ReadColumnFile(const std::string& name,
                              const std::string& path) {
  SITSTATS_FAULT_SITE("storage.colfile.read");
  SITSTATS_ASSIGN_OR_RETURN(std::shared_ptr<MappedFile> file,
                            MappedFile::Map(path));
  if (file->size() < sizeof(ColumnFileHeader)) {
    return Corrupt(path, "file shorter than the 64-byte header");
  }
  ColumnFileHeader header;
  std::memcpy(&header, file->data(), sizeof(header));
  if (std::memcmp(header.magic, kColumnFileMagic, sizeof(header.magic)) !=
      0) {
    return Corrupt(path, "bad magic");
  }
  if (header.version != kColumnFileVersion) {
    return Status::InvalidArgument(
        path + ": column file version " + std::to_string(header.version) +
        " is not supported (expected " + std::to_string(kColumnFileVersion) +
        "); re-run `sitstats_cli import` to rewrite the catalog");
  }
  if (header.type > static_cast<uint32_t>(ValueType::kString)) {
    return Corrupt(path, "unknown value type " + std::to_string(header.type));
  }
  ValueType type = static_cast<ValueType>(header.type);
  if (file->size() != sizeof(header) + header.payload_bytes) {
    return Corrupt(path, "payload truncated: header promises " +
                             std::to_string(header.payload_bytes) +
                             " bytes, file holds " +
                             std::to_string(file->size() - sizeof(header)));
  }
  const uint8_t* payload = file->data() + sizeof(header);
  {
    telemetry::TraceSpan span("storage.colfile.verify");
    if (ColumnFileDigest(header, payload) != header.checksum) {
      return Corrupt(path, "payload checksum mismatch");
    }
  }

  // Size checks divide rather than multiply: num_rows * 8 wraps, and a
  // matching checksum does not make the header sane.
  switch (type) {
    case ValueType::kInt64:
    case ValueType::kDouble: {
      if (header.payload_bytes % 8 != 0 ||
          header.num_rows != header.payload_bytes / 8) {
        return Corrupt(path, "numeric payload size disagrees with row count");
      }
      // Zero-copy: the column references the mapping; the shared_ptr
      // keepalive holds the region for the column's lifetime.
      return Column::FromMappedNumeric(name, type, payload,
                                       static_cast<size_t>(header.num_rows),
                                       file);
    }
    case ValueType::kString: {
      if (header.num_rows >= header.payload_bytes / sizeof(uint64_t)) {
        return Corrupt(path, "string payload shorter than its offset table");
      }
      uint64_t offsets_bytes = (header.num_rows + 1) * sizeof(uint64_t);
      const uint64_t* offsets = reinterpret_cast<const uint64_t*>(payload);
      const uint8_t* bytes = payload + offsets_bytes;
      uint64_t bytes_available = header.payload_bytes - offsets_bytes;
      if (offsets[header.num_rows] != bytes_available) {
        return Corrupt(path, "string offsets disagree with payload size");
      }
      SITSTATS_OOM_SITE("oom.storage.colfile.strings",
                        static_cast<size_t>(header.payload_bytes));
      Column column(name, ValueType::kString);
      column.Reserve(static_cast<size_t>(header.num_rows));
      for (uint64_t i = 0; i < header.num_rows; ++i) {
        if (offsets[i] > offsets[i + 1] || offsets[i + 1] > bytes_available) {
          return Corrupt(path, "string offsets not monotonic in bounds");
        }
        column.AppendString(std::string(
            reinterpret_cast<const char*>(bytes + offsets[i]),
            static_cast<size_t>(offsets[i + 1] - offsets[i])));
      }
      return column;
    }
  }
  return Corrupt(path, "unreachable type");
}

}  // namespace sitstats
