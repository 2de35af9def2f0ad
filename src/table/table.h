// Columnar in-memory relational table. The paper's record set D (Section 2):
// each record assigns at most one value to each attribute; here every record
// assigns exactly one value per attribute (no NULLs), which matches the
// paper's experiments.
#ifndef QARM_TABLE_TABLE_H_
#define QARM_TABLE_TABLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/schema.h"
#include "table/value.h"

namespace qarm {

// Typed column storage: exactly one of the vectors is used, per the schema.
// Cells may be NULL (attribute absent from the record).
class Column {
 public:
  explicit Column(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const;

  // True when the cell is missing. Typed accessors must not be used on
  // NULL cells.
  bool IsNull(size_t row) const { return valid_[row] == 0; }

  // Typed accessors; the variant not matching type() must not be used.
  int64_t GetInt64(size_t row) const { return int64_data_[row]; }
  double GetDouble(size_t row) const { return double_data_[row]; }
  const std::string& GetString(size_t row) const { return string_data_[row]; }

  // Generic (boxed) accessor; NULL cells box as Value::Null().
  Value Get(size_t row) const;

  // Numeric view of a cell (int64 widened to double). Numeric columns only,
  // non-null cells only.
  double GetNumeric(size_t row) const {
    QARM_DCHECK(!IsNull(row));
    return type_ == ValueType::kInt64 ? static_cast<double>(int64_data_[row])
                                      : double_data_[row];
  }

  // Appends a cell; a non-null value's type must match the column type.
  void Append(const Value& value);
  void AppendInt64(int64_t v);
  void AppendNull();

  void Reserve(size_t n);

 private:
  ValueType type_;
  std::vector<int64_t> int64_data_;
  std::vector<double> double_data_;
  std::vector<std::string> string_data_;
  std::vector<uint8_t> valid_;
};

// Immutable-after-build columnar table.
class Table {
 public:
  explicit Table(Schema schema);

  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const Column& column(size_t i) const { return columns_[i]; }

  // Cell accessor (boxed).
  Value Get(size_t row, size_t col) const { return columns_[col].Get(row); }

  // Appends one record; `values` must match the schema arity and types.
  Status AppendRow(const std::vector<Value>& values);

  // Unchecked fast-path append used by generators (types must match).
  void AppendRowUnchecked(const std::vector<Value>& values);

  void Reserve(size_t n);

  // First `n` rows of this table (used by the scale-up benchmarks).
  Table Head(size_t n) const;

  // Renders up to `max_rows` rows as an aligned text table for examples.
  std::string ToString(size_t max_rows = 20) const;

 private:
  Schema schema_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace qarm

#endif  // QARM_TABLE_TABLE_H_
