#include "table/schema.h"

#include <unordered_set>

#include "common/string_util.h"

namespace qarm {

const char* AttributeKindName(AttributeKind kind) {
  switch (kind) {
    case AttributeKind::kCategorical:
      return "categorical";
    case AttributeKind::kQuantitative:
      return "quantitative";
  }
  return "?";
}

Result<Schema> Schema::Make(std::vector<AttributeDef> attributes) {
  std::unordered_set<std::string> seen;
  size_t num_quant = 0;
  for (const AttributeDef& def : attributes) {
    if (def.name.empty()) {
      return Status::InvalidArgument("attribute with empty name");
    }
    if (!seen.insert(def.name).second) {
      return Status::InvalidArgument("duplicate attribute name: " + def.name);
    }
    if (def.kind == AttributeKind::kQuantitative) {
      if (def.type == ValueType::kString) {
        return Status::InvalidArgument("quantitative attribute '" + def.name +
                                       "' must be numeric");
      }
      ++num_quant;
    } else if (def.type != ValueType::kString) {
      return Status::InvalidArgument("categorical attribute '" + def.name +
                                     "' must be a string, not " +
                                     ValueTypeName(def.type));
    }
  }
  Schema schema;
  schema.attributes_ = std::move(attributes);
  schema.num_quantitative_ = num_quant;
  return schema;
}

Result<Schema> Schema::Parse(const std::string& spec) {
  std::vector<AttributeDef> defs;
  for (const std::string& field : Split(spec, ',')) {
    std::vector<std::string> parts = Split(field, ':');
    if (parts.size() < 2) {
      return Status::InvalidArgument("schema entry needs NAME:KIND: '" +
                                     field + "'");
    }
    if (parts.size() > 3) {
      return Status::InvalidArgument("schema entry has too many ':' parts: '" +
                                     field + "'");
    }
    AttributeDef def;
    def.name = std::string(StripWhitespace(parts[0]));
    std::string kind(StripWhitespace(parts[1]));
    if (kind == "quant" || kind == "quantitative") {
      def.kind = AttributeKind::kQuantitative;
      def.type = ValueType::kInt64;
      if (parts.size() > 2) {
        std::string type(StripWhitespace(parts[2]));
        if (type == "double") {
          def.type = ValueType::kDouble;
        } else if (type != "int") {
          return Status::InvalidArgument("unknown quantitative type: " + type);
        }
      }
    } else if (kind == "cat" || kind == "categorical") {
      if (parts.size() > 2) {
        return Status::InvalidArgument(
            "categorical attribute takes no type suffix: '" + field + "'");
      }
      def.kind = AttributeKind::kCategorical;
      def.type = ValueType::kString;
    } else {
      return Status::InvalidArgument("unknown attribute kind: " + kind);
    }
    defs.push_back(std::move(def));
  }
  return Make(std::move(defs));
}

Result<size_t> Schema::IndexOf(const std::string& name) const {
  for (size_t i = 0; i < attributes_.size(); ++i) {
    if (attributes_[i].name == name) return i;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

bool Schema::operator==(const Schema& other) const {
  if (attributes_.size() != other.attributes_.size()) return false;
  for (size_t i = 0; i < attributes_.size(); ++i) {
    const AttributeDef& a = attributes_[i];
    const AttributeDef& b = other.attributes_[i];
    if (a.name != b.name || a.kind != b.kind || a.type != b.type) return false;
  }
  return true;
}

std::string Schema::ToString() const {
  std::vector<std::string> parts;
  parts.reserve(attributes_.size());
  for (const AttributeDef& def : attributes_) {
    parts.push_back(def.name + ":" + AttributeKindName(def.kind) + ":" +
                    ValueTypeName(def.type));
  }
  return Join(parts, ", ");
}

}  // namespace qarm
