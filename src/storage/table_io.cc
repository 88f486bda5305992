#include "storage/table_io.h"

#include <filesystem>

#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/string_util.h"
#include "storage/column_file.h"

namespace sitstats {

namespace {

Result<ValueType> TypeFromName(const std::string& name) {
  if (name == "int64") return ValueType::kInt64;
  if (name == "double") return ValueType::kDouble;
  if (name == "string") return ValueType::kString;
  return Status::InvalidArgument("unknown column type '" + name + "'");
}

/// Creates `dir` and any missing parents, so a save can target a fresh
/// path.
Status CreateDirectories(const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  return ec ? Status::IOError("cannot create " + dir + ": " + ec.message())
            : Status::OK();
}

/// Strips one trailing carriage return: CSV files written on Windows (or
/// shipped over protocols that canonicalize to CRLF) end every line with
/// "\r\n", and std::getline only consumes the "\n". Without this the '\r'
/// flows into the last cell of every row and fails the numeric parse.
void StripTrailingCr(std::string* line) {
  if (!line->empty() && line->back() == '\r') line->pop_back();
}

/// One prefixed cell-parse error: file:row plus the column name, wrapping
/// the checked parser's message (and preserving its code — overflow stays
/// kOutOfRange).
Status CellError(const std::string& path, size_t line_number,
                 const std::string& column, const Status& inner) {
  return Status(inner.code(), path + ":" + std::to_string(line_number) +
                                  ": column " + column + ": " +
                                  inner.message());
}

}  // namespace

Status WriteTableCsv(const Table& table, const std::string& path) {
  SITSTATS_FAULT_SITE("storage.table_io.write");
  std::ofstream out(path, std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path + " for writing");
  // Header.
  std::vector<std::string> header;
  for (const ColumnDef& def : table.schema().columns()) {
    if (def.name.find(',') != std::string::npos ||
        def.name.find(':') != std::string::npos) {
      return Status::InvalidArgument("column name '" + def.name +
                                     "' cannot be written to CSV");
    }
    header.push_back(def.name + ":" + ValueTypeToString(def.type));
  }
  out << Join(header, ",") << "\n";
  // Rows.
  for (size_t row = 0; row < table.num_rows(); ++row) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out << ',';
      const Column& col = table.column(c);
      switch (col.type()) {
        case ValueType::kInt64:
          out << col.int64_data()[row];
          break;
        case ValueType::kDouble:
          out << FormatExact(col.double_data()[row]);
          break;
        case ValueType::kString: {
          const std::string& s = col.string_data()[row];
          if (s.find(',') != std::string::npos ||
              s.find('\n') != std::string::npos) {
            return Status::InvalidArgument(
                "string cell contains a separator; cannot write CSV");
          }
          out << s;
          break;
        }
      }
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("write to " + path + " failed");
  return Status::OK();
}

Result<Table> ReadTableCsv(const std::string& table_name,
                           const std::string& path) {
  SITSTATS_FAULT_SITE("storage.table_io.read");
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path + " for reading");
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(path + " is empty (no header)");
  }
  StripTrailingCr(&line);
  Schema schema;
  for (const std::string& field : Split(line, ',')) {
    std::vector<std::string> parts = Split(field, ':');
    if (parts.size() != 2 || parts[0].empty()) {
      return Status::InvalidArgument("bad CSV header field '" + field +
                                     "' in " + path);
    }
    SITSTATS_ASSIGN_OR_RETURN(ValueType type, TypeFromName(parts[1]));
    schema.AddColumn(parts[0], type);
  }
  Table table(table_name, schema);
  size_t line_number = 1;
  while (std::getline(in, line)) {
    ++line_number;
    StripTrailingCr(&line);
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, ',');
    if (fields.size() != schema.num_columns()) {
      // A trailing delimiter lands here too: "1,2," splits into an extra
      // (empty) field, which is a malformed row, not a cell value.
      return Status::InvalidArgument(
          path + ":" + std::to_string(line_number) + ": expected " +
          std::to_string(schema.num_columns()) + " fields, got " +
          std::to_string(fields.size()));
    }
    std::vector<Value> row;
    row.reserve(fields.size());
    for (size_t c = 0; c < fields.size(); ++c) {
      // Every numeric cell goes through the one checked parse path
      // (common/string_util.h) — empty cells, trailing garbage, and
      // overflow all surface with file:row and column context.
      switch (schema.column(c).type) {
        case ValueType::kInt64: {
          Result<int64_t> v = ParseInt64(fields[c]);
          if (!v.ok()) {
            return CellError(path, line_number, schema.column(c).name,
                             v.status());
          }
          row.emplace_back(*v);
          break;
        }
        case ValueType::kDouble: {
          Result<double> v = ParseDouble(fields[c]);
          if (!v.ok()) {
            return CellError(path, line_number, schema.column(c).name,
                             v.status());
          }
          row.emplace_back(*v);
          break;
        }
        case ValueType::kString:
          row.emplace_back(fields[c]);
          break;
      }
    }
    SITSTATS_RETURN_IF_ERROR(table.AppendRow(row));
  }
  return table;
}

Status SaveCatalogCsv(const Catalog& catalog, const std::string& dir) {
  SITSTATS_FAULT_SITE("storage.catalog.save");
  SITSTATS_RETURN_IF_ERROR(CreateDirectories(dir));
  std::ofstream manifest(dir + "/MANIFEST", std::ios::trunc);
  if (!manifest) return Status::IOError("cannot write " + dir + "/MANIFEST");
  for (const std::string& name : catalog.TableNames()) {
    SITSTATS_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    SITSTATS_RETURN_IF_ERROR(
        WriteTableCsv(*table, dir + "/" + name + ".csv"));
    manifest << name << "\n";
  }
  manifest.flush();
  if (!manifest) return Status::IOError("write to MANIFEST failed");
  return Status::OK();
}

Result<std::unique_ptr<Catalog>> LoadCatalogCsv(const std::string& dir) {
  SITSTATS_FAULT_SITE("storage.catalog.load");
  std::ifstream manifest(dir + "/MANIFEST");
  if (!manifest) {
    return Status::IOError("cannot open " + dir + "/MANIFEST");
  }
  auto catalog = std::make_unique<Catalog>();
  std::string name;
  while (std::getline(manifest, name)) {
    StripTrailingCr(&name);
    if (name.empty()) continue;
    SITSTATS_ASSIGN_OR_RETURN(
        Table table, ReadTableCsv(name, dir + "/" + name + ".csv"));
    SITSTATS_RETURN_IF_ERROR(
        catalog->AddTable(std::make_unique<Table>(std::move(table))));
  }
  // Bulk-load boundary: debug builds prove the loaded catalog is
  // internally consistent before anything computes statistics over it.
  SITSTATS_DCHECK_OK(catalog->ValidateConsistency());
  return catalog;
}

namespace {

constexpr const char* kBinaryManifestMagic = "sitstats-binary-catalog";
constexpr int kBinaryManifestVersion = 1;

std::string ColfileName(const std::string& table, const std::string& column) {
  return table + "." + column + ".col";
}

}  // namespace

Status SaveCatalogBinary(const Catalog& catalog, const std::string& dir) {
  SITSTATS_FAULT_SITE("storage.colfile.manifest.save");
  SITSTATS_RETURN_IF_ERROR(CreateDirectories(dir));
  std::ostringstream manifest;
  manifest << kBinaryManifestMagic << " " << kBinaryManifestVersion << "\n";
  for (const std::string& name : catalog.TableNames()) {
    if (name.find(' ') != std::string::npos ||
        name.find('\n') != std::string::npos) {
      return Status::InvalidArgument("table name '" + name +
                                     "' cannot be written to a manifest");
    }
    SITSTATS_ASSIGN_OR_RETURN(const Table* table, catalog.GetTable(name));
    manifest << "table " << name << " " << table->num_rows() << " "
             << table->num_columns() << "\n";
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const Column& column = table->column(c);
      if (column.name().find(' ') != std::string::npos ||
          column.name().find('\n') != std::string::npos) {
        return Status::InvalidArgument("column name '" + column.name() +
                                       "' cannot be written to a manifest");
      }
      std::string file = ColfileName(name, column.name());
      SITSTATS_RETURN_IF_ERROR(WriteColumnFile(column, dir + "/" + file));
      manifest << "column " << column.name() << " "
               << ValueTypeToString(column.type()) << " " << file << "\n";
    }
  }
  std::ofstream out(dir + "/" + kBinaryManifestName, std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot write " + dir + "/" + kBinaryManifestName);
  }
  out << manifest.str();
  out.flush();
  if (!out) {
    return Status::IOError(std::string("write to ") + kBinaryManifestName +
                           " failed");
  }
  return Status::OK();
}

Result<std::unique_ptr<Catalog>> LoadCatalogBinary(const std::string& dir) {
  SITSTATS_FAULT_SITE("storage.colfile.manifest.load");
  const std::string manifest_path = dir + "/" + kBinaryManifestName;
  std::ifstream in(manifest_path);
  if (!in) return Status::IOError("cannot open " + manifest_path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument(manifest_path + " is empty");
  }
  StripTrailingCr(&line);
  {
    std::vector<std::string> fields = Split(line, ' ');
    if (fields.size() != 2 || fields[0] != kBinaryManifestMagic) {
      return Status::InvalidArgument(manifest_path +
                                     ": not a binary catalog manifest");
    }
    // The shared checked parse path again: a corrupt version field is a
    // clean error, not a silent zero.
    SITSTATS_ASSIGN_OR_RETURN(int64_t version, ParseInt64(fields[1]));
    if (version != kBinaryManifestVersion) {
      return Status::InvalidArgument(
          manifest_path + ": manifest version " + std::to_string(version) +
          " is not supported (expected " +
          std::to_string(kBinaryManifestVersion) + ")");
    }
  }

  // Registers every table as pending: its colfiles are mapped and
  // verified on its first use (Catalog::GetTable), so a build pays only
  // for the tables it reads. Every manifest error still fails here.
  auto catalog = std::make_unique<Catalog>();
  size_t line_number = 1;
  PendingTable pending;
  int64_t pending_columns = 0;

  auto flush_table = [&]() -> Status {
    if (pending.name.empty()) return Status::OK();
    if (static_cast<int64_t>(pending.colfiles.size()) != pending_columns) {
      return Status::InvalidArgument(
          manifest_path + ": table " + pending.name + " promises " +
          std::to_string(pending_columns) + " columns, manifest lists " +
          std::to_string(pending.colfiles.size()));
    }
    SITSTATS_RETURN_IF_ERROR(
        catalog->AddPendingTable(std::exchange(pending, PendingTable())));
    return Status::OK();
  };

  while (std::getline(in, line)) {
    ++line_number;
    StripTrailingCr(&line);
    if (line.empty()) continue;
    std::vector<std::string> fields = Split(line, ' ');
    auto bad_line = [&](const std::string& what) {
      return Status::InvalidArgument(manifest_path + ":" +
                                     std::to_string(line_number) + ": " +
                                     what);
    };
    if (fields[0] == "table") {
      if (fields.size() != 4) return bad_line("malformed table record");
      SITSTATS_RETURN_IF_ERROR(flush_table());
      pending.name = fields[1];
      SITSTATS_ASSIGN_OR_RETURN(int64_t rows, ParseInt64(fields[2]));
      SITSTATS_ASSIGN_OR_RETURN(pending_columns, ParseInt64(fields[3]));
      if (rows < 0 || pending_columns < 0) {
        return bad_line("negative table dimensions");
      }
      pending.num_rows = static_cast<uint64_t>(rows);
    } else if (fields[0] == "column") {
      if (fields.size() != 4) return bad_line("malformed column record");
      if (pending.name.empty()) {
        return bad_line("column record before any table record");
      }
      SITSTATS_ASSIGN_OR_RETURN(ValueType type, TypeFromName(fields[2]));
      pending.schema.AddColumn(fields[1], type);
      pending.colfiles.push_back(dir + "/" + fields[3]);
    } else {
      return bad_line("unknown record '" + fields[0] + "'");
    }
  }
  SITSTATS_RETURN_IF_ERROR(flush_table());
  return catalog;
}

Result<std::unique_ptr<Catalog>> LoadCatalog(const std::string& dir) {
  if (std::ifstream(dir + "/" + kBinaryManifestName).good()) {
    return LoadCatalogBinary(dir);
  }
  return LoadCatalogCsv(dir);
}

}  // namespace sitstats
