// Relational schema: named attributes that are either categorical or
// quantitative (the paper's two attribute classes, Section 1).
#ifndef QARM_TABLE_SCHEMA_H_
#define QARM_TABLE_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "table/value.h"

namespace qarm {

// How the miner treats an attribute. Boolean attributes are categorical
// attributes with two values (Section 1 of the paper).
enum class AttributeKind {
  kCategorical = 0,
  kQuantitative = 1,
};

const char* AttributeKindName(AttributeKind kind);

// Declaration of one attribute.
struct AttributeDef {
  std::string name;
  AttributeKind kind = AttributeKind::kCategorical;
  ValueType type = ValueType::kString;
};

// An ordered list of attribute definitions with name lookup.
// Quantitative attributes are numeric (int64 or double); categorical
// attributes are strings, since a category needs only its label.
class Schema {
 public:
  Schema() = default;

  // Validates and builds a schema: unique names, quantitative => numeric,
  // categorical => string.
  static Result<Schema> Make(std::vector<AttributeDef> attributes);

  // Parses the user-facing schema-spec string, a comma-separated list of
  // NAME:KIND entries where KIND is "quant"/"quantitative" (optionally
  // ":int" or ":double", default int) or "cat"/"categorical". Whitespace
  // around names and kinds is stripped. Never aborts on malformed text:
  // every defect — missing kind, unknown kind or numeric type, empty or
  // duplicate name — comes back as InvalidArgument.
  static Result<Schema> Parse(const std::string& spec);

  size_t num_attributes() const { return attributes_.size(); }
  const AttributeDef& attribute(size_t i) const { return attributes_[i]; }
  const std::vector<AttributeDef>& attributes() const { return attributes_; }

  // Index of the attribute named `name`, or kNotFound status.
  Result<size_t> IndexOf(const std::string& name) const;

  // Number of quantitative attributes (the `n` of Lemma 3 / Equation 2).
  size_t num_quantitative() const { return num_quantitative_; }
  size_t num_categorical() const {
    return attributes_.size() - num_quantitative_;
  }

  bool operator==(const Schema& other) const;

  // e.g. "Age:quantitative:int64, Married:categorical:string".
  std::string ToString() const;

 private:
  std::vector<AttributeDef> attributes_;
  size_t num_quantitative_ = 0;
};

}  // namespace qarm

#endif  // QARM_TABLE_SCHEMA_H_
