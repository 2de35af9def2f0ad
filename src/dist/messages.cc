#include "dist/messages.h"

#include <algorithm>
#include <limits>

#include "common/string_util.h"
#include "storage/byte_reader.h"
#include "storage/stats_fields.h"

namespace qarm {
namespace {

void AppendIds(const std::vector<int32_t>& ids, std::string* out) {
  AppendVarint(out, ids.size());
  for (int32_t id : ids) AppendVarint(out, static_cast<uint32_t>(id));
}

Status ReadIds(ByteReader* reader, std::vector<int32_t>* out) {
  uint64_t count = 0;
  QARM_RETURN_NOT_OK(reader->ReadVarint(&count));
  return reader->ReadVarintI32Array(count, out);
}

// A count of at most `limit` rows of group g.
Status ReadCount(ByteReader* reader, size_t g, uint64_t limit,
                 uint64_t* out) {
  QARM_RETURN_NOT_OK(reader->ReadVarint(out));
  if (*out <= limit) return Status::OK();
  return Status::IOError(StrFormat(
      "count reply group %zu counts more rows than its shard holds", g));
}

Status ReadBlockRange(ByteReader* reader, IndexRange* blocks) {
  uint64_t begin = 0;
  uint64_t end = 0;
  QARM_RETURN_NOT_OK(reader->ReadVarint(&begin));
  QARM_RETURN_NOT_OK(reader->ReadVarint(&end));
  if (end < begin) {
    return Status::IOError(StrFormat(
        "request block range [%llu, %llu) is inverted",
        static_cast<unsigned long long>(begin),
        static_cast<unsigned long long>(end)));
  }
  blocks->begin = static_cast<size_t>(begin);
  blocks->end = static_cast<size_t>(end);
  return Status::OK();
}

}  // namespace

void EncodePass1Request(const IndexRange& blocks, std::string* out) {
  AppendVarint(out, blocks.begin);
  AppendVarint(out, blocks.end);
}

Result<IndexRange> ParsePass1Request(const uint8_t* data, size_t size) {
  ByteReader reader(data, size, "pass-1 request", StatusCode::kIOError);
  IndexRange blocks;
  QARM_RETURN_NOT_OK(ReadBlockRange(&reader, &blocks));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return blocks;
}

void EncodeCountRequest(const IndexRange& blocks, const CountPlan& plan,
                        std::string* out) {
  EncodePass1Request(blocks, out);
  AppendVarint(out, plan.groups.size());
  for (const CounterGroup& group : plan.groups) {
    out->push_back(static_cast<char>(group.kind));
    AppendIds(group.quant_attrs, out);
    AppendIds(group.cat_item_ids, out);
    if (group.kind != CounterKind::kDirect) {
      AppendVarint(out, group.num_members);
    }
    if (group.kind == CounterKind::kMembers) AppendIds(group.member_items, out);
  }
}

Result<DistCountRequest> ParseCountRequest(const uint8_t* data, size_t size) {
  ByteReader reader(data, size, "count request", StatusCode::kIOError);
  DistCountRequest request;
  QARM_RETURN_NOT_OK(ReadBlockRange(&reader, &request.blocks));
  uint64_t num_groups = 0;
  QARM_RETURN_NOT_OK(reader.ReadVarint(&num_groups));
  // A group takes at least its kind byte and two counts.
  QARM_RETURN_NOT_OK(reader.NeedCount(num_groups, 3));
  CountPlan& plan = request.plan;
  plan.groups.resize(static_cast<size_t>(num_groups));
  for (size_t g = 0; g < plan.groups.size(); ++g) {
    CounterGroup& group = plan.groups[g];
    uint8_t kind = 0;
    QARM_RETURN_NOT_OK(reader.ReadU8(&kind));
    group.kind = static_cast<CounterKind>(kind);
    QARM_RETURN_NOT_OK(ReadIds(&reader, &group.quant_attrs));
    QARM_RETURN_NOT_OK(ReadIds(&reader, &group.cat_item_ids));
    const size_t dims = group.quant_attrs.size();
    // A direct group has no dimensions, and every other kind has some.
    if (kind > static_cast<uint8_t>(CounterKind::kMembers) ||
        (group.kind == CounterKind::kDirect) != (dims == 0)) {
      return Status::IOError(StrFormat(
          "count request group %zu has kind %u and %zu dimensions", g, kind,
          dims));
    }
    // Every group counts rows matching at least one item or dimension; a
    // scan has no row mask to start such a group from.
    if (dims == 0 && group.cat_item_ids.empty()) {
      return Status::IOError(
          StrFormat("count request group %zu counts no item", g));
    }
    if (group.kind == CounterKind::kDirect) continue;
    QARM_RETURN_NOT_OK(reader.ReadVarint(&group.num_members));
    if (group.kind != CounterKind::kMembers) continue;
    // An item id per dimension and member.
    QARM_RETURN_NOT_OK(ReadIds(&reader, &group.member_items));
    if (group.member_items.size() / dims != group.num_members ||
        group.member_items.size() % dims != 0) {
      return Status::IOError(StrFormat(
          "count request group %zu has %zu member items for %llu members", g,
          group.member_items.size(),
          static_cast<unsigned long long>(group.num_members)));
    }
  }
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return request;
}

void EncodeCountReply(const DistCountReply& reply,
                      const PassCounters& counters, std::string* out) {
  QbtAppendU32(out, reply.worker_id);
  AppendVarint(out, counters.size());
  for (const GroupCounter& counter : counters) {
    if (counter.grid != nullptr) {
      const uint32_t* cells = counter.grid->cells();
      const uint64_t num_cells = counter.grid->num_cells();
      for (uint64_t c = 0;;) {
        const uint64_t run_begin = c;
        while (c < num_cells && cells[c] == 0) ++c;
        AppendVarint(out, c - run_begin);
        if (c == num_cells) break;
        AppendVarint(out, cells[c++]);
      }
    } else if (!counter.members.empty()) {
      for (uint32_t count : counter.members) AppendVarint(out, count);
    } else {
      AppendVarint(out, counter.direct);
    }
  }
  AppendStatsWire(reply.stats, out);
}

Result<DistCountReply> MergeCountReply(const uint8_t* data, size_t size,
                                       uint64_t shard_rows,
                                       PassCounters* merged) {
  ByteReader reader(data, size, "count reply", StatusCode::kIOError);
  DistCountReply reply;
  QARM_RETURN_NOT_OK(reader.ReadU32(&reply.worker_id));
  uint64_t num_groups = 0;
  QARM_RETURN_NOT_OK(reader.ReadVarint(&num_groups));
  if (num_groups != merged->size()) {
    return Status::IOError(
        StrFormat("count reply has %llu groups, the plan %zu",
                  static_cast<unsigned long long>(num_groups), merged->size()));
  }
  // No counter passes the shard's rows (nor a uint32 cell), and a grid's
  // cells add up to at most the rows: a row lands in one cell at most.
  const uint64_t max_count =
      std::min<uint64_t>(shard_rows, std::numeric_limits<uint32_t>::max());
  for (size_t g = 0; g < merged->size(); ++g) {
    GroupCounter& counter = (*merged)[g];
    uint64_t value = 0;
    if (counter.grid != nullptr) {
      uint32_t* cells = counter.grid->mutable_cells();
      const uint64_t num_cells = counter.grid->num_cells();
      uint64_t rows_left = max_count;
      for (uint64_t c = 0;;) {
        QARM_RETURN_NOT_OK(reader.ReadVarint(&value));
        if (value > num_cells - c) {
          return Status::IOError(StrFormat(
              "count reply group %zu runs past its grid's %llu cells", g,
              static_cast<unsigned long long>(num_cells)));
        }
        c += value;
        if (c == num_cells) break;
        QARM_RETURN_NOT_OK(ReadCount(&reader, g, rows_left, &value));
        if (value == 0) {
          return Status::IOError(StrFormat(
              "count reply group %zu lists a zero cell outside a run", g));
        }
        rows_left -= value;
        cells[c++] += static_cast<uint32_t>(value);
      }
    } else if (!counter.members.empty()) {
      for (uint32_t& count : counter.members) {
        QARM_RETURN_NOT_OK(ReadCount(&reader, g, max_count, &value));
        count += static_cast<uint32_t>(value);
      }
    } else {
      QARM_RETURN_NOT_OK(ReadCount(&reader, g, shard_rows, &value));
      counter.direct += value;
    }
  }
  QARM_RETURN_NOT_OK(ReadStatsWire(&reader, "stats", &reply.stats));
  QARM_RETURN_NOT_OK(reader.ExpectEnd());
  return reply;
}

}  // namespace qarm
