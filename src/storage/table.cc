#include "storage/table.h"

#include <sstream>

namespace sitstats {

Table::Table(std::string name, const Schema& schema)
    : name_(std::move(name)), schema_(schema) {
  columns_.reserve(schema_.num_columns());
  for (const ColumnDef& def : schema_.columns()) {
    columns_.emplace_back(def.name, def.type);
  }
}

Result<Table> Table::FromColumns(std::string name, const Schema& schema,
                                 std::vector<Column> columns) {
  if (columns.size() != schema.num_columns()) {
    std::ostringstream os;
    os << "FromColumns: got " << columns.size() << " columns, schema of "
       << name << " has " << schema.num_columns();
    return Status::InvalidArgument(os.str());
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    const ColumnDef& def = schema.column(i);
    if (columns[i].name() != def.name || columns[i].type() != def.type) {
      std::ostringstream os;
      os << "FromColumns: column " << i << " is " << columns[i].name() << ":"
         << ValueTypeToString(columns[i].type()) << ", schema of " << name
         << " expects " << def.name << ":" << ValueTypeToString(def.type);
      return Status::InvalidArgument(os.str());
    }
  }
  Table table(std::move(name), schema);
  table.columns_ = std::move(columns);
  SITSTATS_RETURN_IF_ERROR(table.CheckConsistent());
  return table;
}

size_t Table::num_rows() const {
  if (columns_.empty()) return 0;
  return columns_[0].size();
}

Result<const Column*> Table::GetColumn(const std::string& name) const {
  std::optional<size_t> idx = schema_.FindColumn(name);
  if (!idx.has_value()) {
    return Status::NotFound("column " + name + " in table " + name_);
  }
  return &columns_[*idx];
}

Result<Column*> Table::GetMutableColumn(const std::string& name) {
  std::optional<size_t> idx = schema_.FindColumn(name);
  if (!idx.has_value()) {
    return Status::NotFound("column " + name + " in table " + name_);
  }
  return &columns_[*idx];
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    std::ostringstream os;
    os << "AppendRow: got " << values.size() << " values, table " << name_
       << " has " << columns_.size() << " columns";
    return Status::InvalidArgument(os.str());
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].type() != columns_[i].type()) {
      std::ostringstream os;
      os << "AppendRow: value " << i << " has type "
         << ValueTypeToString(values[i].type()) << ", column "
         << columns_[i].name() << " expects "
         << ValueTypeToString(columns_[i].type());
      return Status::InvalidArgument(os.str());
    }
  }
  for (size_t i = 0; i < values.size(); ++i) {
    columns_[i].Append(values[i]);
  }
  return Status::OK();
}

void Table::Reserve(size_t n) {
  for (Column& c : columns_) c.Reserve(n);
}

Status Table::CheckConsistent() const {
  for (const Column& c : columns_) {
    if (c.size() != num_rows()) {
      std::ostringstream os;
      os << "table " << name_ << ": column " << c.name() << " has "
         << c.size() << " rows, expected " << num_rows();
      return Status::Internal(os.str());
    }
  }
  return Status::OK();
}

}  // namespace sitstats
