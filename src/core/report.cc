#include "core/report.h"

#include "common/cpu_dispatch.h"
#include "common/string_util.h"

namespace qarm {

namespace {

std::string SideToJson(const RangeItemset& side, const MappedTable& mapped) {
  std::string out = "[";
  for (size_t i = 0; i < side.size(); ++i) {
    if (i > 0) out += ',';
    AppendItemJson(mapped.attribute(static_cast<size_t>(side[i].attr)),
                   side[i].lo, side[i].hi, &out);
  }
  out += "]";
  return out;
}

// CSV field quoting: wrap in double quotes when the field contains a comma
// or a quote; embedded quotes are doubled.
std::string CsvField(const std::string& s) {
  if (s.find_first_of(",\"\n") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string RuleToJson(const QuantRule& rule, const MappedTable& mapped) {
  std::string out = "{";
  out += "\"antecedent\":" + SideToJson(rule.antecedent, mapped);
  out += ",\"consequent\":" + SideToJson(rule.consequent, mapped);
  out += StrFormat(",\"support\":%.6f,\"confidence\":%.6f,\"count\":%llu",
                   rule.support, rule.confidence,
                   static_cast<unsigned long long>(rule.count));
  out += ",\"interesting\":";
  out += rule.interesting ? "true" : "false";
  out += "}";
  return out;
}

std::string StatsToJson(const MiningStats& stats) {
  std::string out = "{";
  out += StrFormat(
      "\"num_records\":%zu,\"num_threads\":%zu,\"num_frequent_items\":%zu,"
      "\"items_pruned_by_interest\":%zu,"
      "\"achieved_partial_completeness\":%.4f,"
      "\"num_rules\":%zu,\"num_interesting_rules\":%zu,"
      "\"total_seconds\":%.6f",
      stats.num_records, stats.num_threads, stats.num_frequent_items,
      stats.items_pruned_by_interest, stats.achieved_partial_completeness,
      stats.num_rules, stats.num_interesting_rules, stats.total_seconds);
  out += StrFormat(
      ",\"map_seconds\":%.6f,\"pass1_seconds\":%.6f,"
      "\"itemset_seconds\":%.6f,\"candgen_seconds\":%.6f,"
      "\"rulegen_seconds\":%.6f,\"interest_seconds\":%.6f",
      stats.map_seconds, stats.pass1_seconds, stats.itemset_seconds,
      stats.candgen_seconds, stats.rulegen_seconds, stats.interest_seconds);
  out += StrFormat(
      ",\"candgen_threads_used\":%zu,\"rulegen_threads_used\":%zu,"
      "\"interest_threads_used\":%zu",
      stats.candgen_threads_used, stats.rulegen_threads_used,
      stats.interest_threads_used);
  out += StrFormat(
      ",\"pass1_io\":{\"blocks_read\":%llu,\"bytes_read\":%llu,"
      "\"checksum_seconds\":%.6f,\"read_retries\":%llu,"
      "\"faults_injected\":%llu}",
      static_cast<unsigned long long>(stats.pass1_io.blocks_read),
      static_cast<unsigned long long>(stats.pass1_io.bytes_read),
      stats.pass1_io.checksum_seconds,
      static_cast<unsigned long long>(stats.pass1_io.read_retries),
      static_cast<unsigned long long>(stats.pass1_io.faults_injected));
  out += StrFormat(
      ",\"checkpoint\":{\"enabled\":%s,\"resumed\":%s,"
      "\"resumed_passes\":%zu,\"checkpoints_written\":%zu,"
      "\"last_checkpoint_bytes\":%llu,\"write_seconds\":%.6f}",
      stats.checkpoint.enabled ? "true" : "false",
      stats.checkpoint.resumed ? "true" : "false",
      stats.checkpoint.resumed_passes, stats.checkpoint.checkpoints_written,
      static_cast<unsigned long long>(stats.checkpoint.last_checkpoint_bytes),
      stats.checkpoint.write_seconds);
  out += ",\"passes\":[";
  for (size_t i = 0; i < stats.passes.size(); ++i) {
    const PassStats& pass = stats.passes[i];
    const CountingStats& counting = pass.counting;
    if (i > 0) out += ',';
    out += StrFormat(
        "{\"k\":%zu,\"candidates\":%zu,\"frequent\":%zu,"
        "\"candgen\":{\"threads_used\":%zu,\"join_candidates\":%zu,"
        "\"peak_materialized\":%zu,"
        "\"join_seconds\":%.6f,\"prune_seconds\":%.6f,\"seconds\":%.6f},"
        "\"super_candidates\":%zu,\"array_counters\":%zu,"
        "\"tree_counters\":%zu,\"direct_counters\":%zu,"
        "\"degraded_counters\":%zu,"
        "\"atomic_shared_counters\":%zu,\"threads_used\":%zu,"
        "\"isa\":\"%s\","
        "\"counter_bytes\":%llu,\"replicated_bytes\":%llu,"
        "\"group_seconds\":%.6f,\"build_seconds\":%.6f,"
        "\"scan_seconds\":%.6f,\"reduce_seconds\":%.6f,"
        "\"io\":{\"blocks_read\":%llu,\"bytes_read\":%llu,"
        "\"checksum_seconds\":%.6f,\"read_retries\":%llu,"
        "\"faults_injected\":%llu},"
        "\"seconds\":%.6f}",
        pass.k, pass.num_candidates, pass.num_frequent,
        pass.candgen.threads_used, pass.candgen.join_candidates,
        pass.candgen.peak_materialized,
        pass.candgen.join_seconds, pass.candgen.prune_seconds,
        pass.candgen.seconds,
        counting.num_super_candidates, counting.num_array_counters,
        counting.num_tree_counters, counting.num_direct,
        counting.num_degraded,
        counting.num_atomic_shared, counting.threads_used,
        IsaName(counting.isa),
        static_cast<unsigned long long>(counting.counter_bytes),
        static_cast<unsigned long long>(counting.replicated_bytes),
        counting.group_seconds, counting.build_seconds,
        counting.scan_seconds, counting.reduce_seconds,
        static_cast<unsigned long long>(counting.io.blocks_read),
        static_cast<unsigned long long>(counting.io.bytes_read),
        counting.io.checksum_seconds,
        static_cast<unsigned long long>(counting.io.read_retries),
        static_cast<unsigned long long>(counting.io.faults_injected),
        pass.seconds);
  }
  out += "]";
  if (stats.dist.num_workers > 0) {
    out += StrFormat(
        ",\"distributed\":{\"num_workers\":%zu,\"workers_respawned\":%zu,"
        "\"passes\":[",
        stats.dist.num_workers, stats.dist.workers_respawned);
    for (size_t i = 0; i < stats.dist.passes.size(); ++i) {
      const DistPassStats& pass = stats.dist.passes[i];
      if (i > 0) out += ',';
      out += StrFormat(
          "{\"k\":%zu,\"bytes_sent\":%llu,\"bytes_received\":%llu,"
          "\"exchange_seconds\":%.6f,\"merge_seconds\":%.6f}",
          pass.k, static_cast<unsigned long long>(pass.bytes_sent),
          static_cast<unsigned long long>(pass.bytes_received),
          pass.exchange_seconds, pass.merge_seconds);
    }
    out += "]";
    if (!stats.dist.workers.empty()) {
      out += ",\"workers\":[";
      for (size_t i = 0; i < stats.dist.workers.size(); ++i) {
        const DistWorkerStats& worker = stats.dist.workers[i];
        if (i > 0) out += ',';
        out += StrFormat(
            "{\"worker_id\":%u,\"endpoint\":\"%s\",\"respawns\":%zu,"
            "\"reconnects\":%zu,\"redistributed\":%zu,\"heartbeats\":%zu,"
            "\"heartbeat_timeouts\":%zu,\"frames_retried\":%zu,"
            "\"bytes_sent\":%llu,\"bytes_received\":%llu}",
            worker.worker_id, worker.endpoint.c_str(), worker.respawns,
            worker.reconnects, worker.redistributed, worker.heartbeats,
            worker.heartbeat_timeouts, worker.frames_retried,
            static_cast<unsigned long long>(worker.bytes_sent),
            static_cast<unsigned long long>(worker.bytes_received));
      }
      out += "]";
    }
    out += "}";
  }
  out += "}";
  return out;
}

std::string MiningResultToJson(const MiningResult& result,
                               bool interesting_only) {
  std::string out = "{";
  out += "\"stats\":" + StatsToJson(result.stats);
  out += ",\"rules\":[";
  bool first = true;
  for (const QuantRule& rule : result.rules) {
    if (interesting_only && !rule.interesting) continue;
    if (!first) out += ',';
    first = false;
    out += RuleToJson(rule, result.mapped);
  }
  out += "]}";
  return out;
}

std::string RulesToCsv(const std::vector<QuantRule>& rules,
                       const MappedTable& mapped) {
  std::string out = "antecedent,consequent,support,confidence,count,interesting\n";
  for (const QuantRule& rule : rules) {
    out += CsvField(ItemsetToString(rule.antecedent, mapped));
    out += ',';
    out += CsvField(ItemsetToString(rule.consequent, mapped));
    out += StrFormat(",%.6f,%.6f,%llu,%s\n", rule.support, rule.confidence,
                     static_cast<unsigned long long>(rule.count),
                     rule.interesting ? "true" : "false");
  }
  return out;
}

}  // namespace qarm
