// Fuzz harness for the CSV ingestion path: the first input line is a
// schema spec, the rest is the CSV text parsed against it — so one input
// mutates both the schema and the data it must match. When the table
// parses, it is also pushed through MapTable (the `qarm convert`
// partition/map step), covering the full untrusted CSV -> MappedTable
// pipeline. Property: never crash, abort, or OOM; all defects come back
// as Status.
//
// A table that maps is mapped again under its own metadata through
// MapTableWithAttributes (the `qarm append` step). Property: that succeeds
// and gives every cell the id MapTable gave it.
#include <cstddef>
#include <cstdint>
#include <string>

#include "common/macros.h"
#include "partition/mapper.h"
#include "table/csv.h"
#include "table/schema.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  std::string input(reinterpret_cast<const char*>(data), size);
  size_t newline = input.find('\n');
  if (newline == std::string::npos) return 0;

  auto schema = qarm::Schema::Parse(input.substr(0, newline));
  if (!schema.ok()) return 0;
  auto table = qarm::ReadCsvString(input.substr(newline + 1), *schema);
  if (!table.ok()) return 0;

  qarm::MapOptions options;
  options.minsup = 0.25;
  options.partial_completeness = 1.5;
  auto mapped = qarm::MapTable(*table, options);
  if (!mapped.ok()) return 0;

  auto again = qarm::MapTableWithAttributes(*table, mapped->attributes());
  QARM_CHECK(again.ok());
  for (size_t a = 0; a < mapped->num_attributes(); ++a) {
    for (size_t r = 0; r < mapped->num_rows(); ++r) {
      QARM_CHECK_EQ(again->value(r, a), mapped->value(r, a));
    }
  }
  return 0;
}
