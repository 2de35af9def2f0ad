#include "table/table.h"

#include <algorithm>

#include "common/string_util.h"

namespace qarm {

size_t Column::size() const { return valid_.size(); }

Value Column::Get(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(int64_data_[row]);
    case ValueType::kDouble:
      return Value(double_data_[row]);
    case ValueType::kString:
      return Value(string_data_[row]);
  }
  return Value();
}

void Column::Append(const Value& value) {
  if (value.is_null()) {
    AppendNull();
    return;
  }
  QARM_CHECK(value.type() == type_);
  switch (type_) {
    case ValueType::kInt64:
      int64_data_.push_back(value.as_int64());
      break;
    case ValueType::kDouble:
      double_data_.push_back(value.as_double());
      break;
    case ValueType::kString:
      string_data_.push_back(value.as_string());
      break;
  }
  valid_.push_back(1);
}

void Column::AppendInt64(int64_t v) {
  QARM_DCHECK(type_ == ValueType::kInt64);
  int64_data_.push_back(v);
  valid_.push_back(1);
}

void Column::AppendNull() {
  // Keep the typed storage dense so row indices stay aligned.
  switch (type_) {
    case ValueType::kInt64:
      int64_data_.push_back(0);
      break;
    case ValueType::kDouble:
      double_data_.push_back(0.0);
      break;
    case ValueType::kString:
      string_data_.emplace_back();
      break;
  }
  valid_.push_back(0);
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case ValueType::kInt64:
      int64_data_.reserve(n);
      break;
    case ValueType::kDouble:
      double_data_.reserve(n);
      break;
    case ValueType::kString:
      string_data_.reserve(n);
      break;
  }
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.num_attributes());
  for (const AttributeDef& def : schema_.attributes()) {
    columns_.emplace_back(def.type);
  }
}

Status Table::AppendRow(const std::vector<Value>& values) {
  if (values.size() != columns_.size()) {
    return Status::InvalidArgument(
        StrFormat("row has %zu values, schema has %zu attributes",
                  values.size(), columns_.size()));
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].is_null()) continue;
    if (values[i].type() != columns_[i].type()) {
      return Status::InvalidArgument(StrFormat(
          "column %zu expects %s, got %s", i,
          ValueTypeName(columns_[i].type()), ValueTypeName(values[i].type())));
    }
  }
  AppendRowUnchecked(values);
  return Status::OK();
}

void Table::AppendRowUnchecked(const std::vector<Value>& values) {
  for (size_t i = 0; i < values.size(); ++i) columns_[i].Append(values[i]);
  ++num_rows_;
}

void Table::Reserve(size_t n) {
  for (Column& col : columns_) col.Reserve(n);
}

Table Table::Head(size_t n) const {
  Table out(schema_);
  size_t rows = std::min(n, num_rows_);
  out.Reserve(rows);
  std::vector<Value> row(columns_.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) row[c] = Get(r, c);
    out.AppendRowUnchecked(row);
  }
  return out;
}

std::string Table::ToString(size_t max_rows) const {
  size_t rows = std::min(max_rows, num_rows_);
  std::vector<std::vector<std::string>> cells;
  std::vector<std::string> header;
  header.reserve(columns_.size());
  for (const AttributeDef& def : schema_.attributes()) {
    header.push_back(def.name);
  }
  cells.push_back(header);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<std::string> row;
    row.reserve(columns_.size());
    for (size_t c = 0; c < columns_.size(); ++c) {
      row.push_back(Get(r, c).ToString());
    }
    cells.push_back(std::move(row));
  }
  std::vector<size_t> widths(columns_.size(), 0);
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  std::string out;
  for (size_t r = 0; r < cells.size(); ++r) {
    for (size_t c = 0; c < cells[r].size(); ++c) {
      out += cells[r][c];
      out.append(widths[c] - cells[r][c].size() + 2, ' ');
    }
    out += '\n';
    if (r == 0) {
      for (size_t c = 0; c < widths.size(); ++c) {
        out.append(widths[c], '-');
        out.append(2, ' ');
      }
      out += '\n';
    }
  }
  if (rows < num_rows_) {
    out += StrFormat("... (%zu more rows)\n", num_rows_ - rows);
  }
  return out;
}

}  // namespace qarm
