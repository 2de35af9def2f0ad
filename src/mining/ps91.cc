#include "mining/ps91.h"

#include "common/macros.h"
#include "common/string_util.h"
#include "mining/apriori.h"

namespace qarm {

std::vector<Ps91Rule> Ps91MineAttribute(const MappedTable& table,
                                        size_t antecedent_attr,
                                        const Ps91Options& options) {
  QARM_CHECK_LT(antecedent_attr, table.num_attributes());
  const size_t num_rows = table.num_rows();
  const size_t num_attrs = table.num_attributes();
  std::vector<Ps91Rule> rules;
  if (num_rows == 0) return rules;

  const size_t ante_domain = table.attribute(antecedent_attr).domain_size();

  // Hash "cells": per antecedent value, a histogram of every other
  // attribute's values, plus the antecedent value's own count.
  std::vector<uint64_t> ante_counts(ante_domain, 0);
  // summaries[a][v * domain(attr) + w]: records with antecedent value v and
  // attribute a value w.
  std::vector<std::vector<uint64_t>> summaries(num_attrs);
  for (size_t a = 0; a < num_attrs; ++a) {
    if (a == antecedent_attr) continue;
    summaries[a].assign(ante_domain * table.attribute(a).domain_size(), 0);
  }

  const int32_t* ante = table.column(antecedent_attr);
  for (size_t r = 0; r < num_rows; ++r) {
    if (ante[r] != kMissingValue) ++ante_counts[static_cast<size_t>(ante[r])];
  }
  for (size_t a = 0; a < num_attrs; ++a) {
    if (a == antecedent_attr) continue;
    const int32_t* column = table.column(a);
    const size_t domain = table.attribute(a).domain_size();
    std::vector<uint64_t>& summary = summaries[a];
    for (size_t r = 0; r < num_rows; ++r) {
      if (ante[r] == kMissingValue || column[r] == kMissingValue) continue;
      ++summary[static_cast<size_t>(ante[r]) * domain +
                static_cast<size_t>(column[r])];
    }
  }

  const uint64_t min_count = MinSupportCount(options.minsup, num_rows);

  for (size_t v = 0; v < ante_domain; ++v) {
    if (ante_counts[v] == 0) continue;
    for (size_t a = 0; a < num_attrs; ++a) {
      if (a == antecedent_attr) continue;
      const size_t domain = table.attribute(a).domain_size();
      for (size_t w = 0; w < domain; ++w) {
        uint64_t joint = summaries[a][v * domain + w];
        if (joint < min_count) continue;
        double confidence =
            static_cast<double>(joint) / static_cast<double>(ante_counts[v]);
        if (confidence + 1e-12 < options.minconf) continue;
        Ps91Rule rule;
        rule.antecedent_attr = antecedent_attr;
        rule.antecedent_value = static_cast<int32_t>(v);
        rule.consequent_attr = a;
        rule.consequent_value = static_cast<int32_t>(w);
        rule.count = joint;
        rule.support =
            static_cast<double>(joint) / static_cast<double>(num_rows);
        rule.confidence = confidence;
        rules.push_back(rule);
      }
    }
  }
  return rules;
}

std::vector<Ps91Rule> Ps91MineAll(const MappedTable& table,
                                  const Ps91Options& options) {
  std::vector<Ps91Rule> all;
  for (size_t a = 0; a < table.num_attributes(); ++a) {
    std::vector<Ps91Rule> rules = Ps91MineAttribute(table, a, options);
    all.insert(all.end(), rules.begin(), rules.end());
  }
  return all;
}

std::string Ps91RuleToString(const Ps91Rule& rule, const MappedTable& table) {
  const MappedAttribute& ante = table.attribute(rule.antecedent_attr);
  const MappedAttribute& cons = table.attribute(rule.consequent_attr);
  return StrFormat(
      "<%s: %s> => <%s: %s> (support %.1f%%, confidence %.1f%%)",
      ante.name.c_str(),
      ante.DecodeRange(rule.antecedent_value, rule.antecedent_value).c_str(),
      cons.name.c_str(),
      cons.DecodeRange(rule.consequent_value, rule.consequent_value).c_str(),
      rule.support * 100.0, rule.confidence * 100.0);
}

}  // namespace qarm
