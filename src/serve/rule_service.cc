#include "serve/rule_service.h"

#include <algorithm>
#include <utility>

#include "common/output_writer.h"
#include "common/string_util.h"
#include "core/report.h"
#include "storage/stats_fields.h"

namespace qarm {
namespace {

using Params = std::vector<std::pair<std::string, std::string>>;

// Last occurrence wins, matching common query-string semantics.
const std::string* FindParam(const Params& params, const std::string& key) {
  const std::string* found = nullptr;
  for (const auto& [k, v] : params) {
    if (k == key) found = &v;
  }
  return found;
}

Result<double> DoubleParam(const Params& params, const std::string& key,
                           double fallback) {
  const std::string* raw = FindParam(params, key);
  if (raw == nullptr) return fallback;
  Result<double> value = ParseDouble(*raw);
  if (!value.ok()) {
    return Status::InvalidArgument("bad " + key + ": '" + *raw + "'");
  }
  return *value;
}

Result<size_t> SizeParam(const Params& params, const std::string& key,
                         size_t fallback, size_t max_value) {
  const std::string* raw = FindParam(params, key);
  if (raw == nullptr) return fallback;
  Result<uint64_t> value = ParseUint64(*raw);
  if (!value.ok()) {
    return Status::InvalidArgument("bad " + key + ": '" + *raw + "'");
  }
  return static_cast<size_t>(std::min<uint64_t>(*value, max_value));
}

bool BoolParam(const Params& params, const std::string& key) {
  const std::string* raw = FindParam(params, key);
  return raw != nullptr && *raw != "0" && *raw != "false" && !raw->empty();
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":" + JsonEscape(message) + "}";
  return response;
}

HttpResponse JsonOk(std::string body) {
  HttpResponse response;
  response.body = std::move(body);
  return response;
}

// Answers a cacheable request through `cache` (null when caching is
// disabled): a hit returns the cached body; a miss runs `handle` and caches
// the body of a 200 response.
template <typename Handler>
HttpResponse Cached(ResultCache* cache, const HttpRequest& request,
                    Handler handle) {
  if (cache == nullptr) return handle();
  const std::string key = RuleService::CanonicalKey(request);
  if (auto hit = cache->Lookup(key)) return JsonOk(std::move(*hit));
  HttpResponse response = handle();
  if (response.status == 200) cache->Insert(key, response.body);
  return response;
}

}  // namespace

RuleService::RuleService(std::shared_ptr<const RuleCatalog> catalog,
                         const RuleServiceOptions& options)
    : catalog_(std::move(catalog)) {
  if (options.cache_bytes > 0) {
    cache_manager_ =
        std::make_unique<ResultCacheManager>(options.cache_bytes);
    // /match dominates the query mix, so it takes half the budget.
    match_cache_ =
        *cache_manager_->CreateCache("match", options.cache_bytes / 2);
    topk_cache_ =
        *cache_manager_->CreateCache("topk", options.cache_bytes / 4);
    rules_cache_ = *cache_manager_->CreateCache(
        "rules", options.cache_bytes - options.cache_bytes / 2 -
                     options.cache_bytes / 4);
  }
}

std::string RuleService::CanonicalKey(const HttpRequest& request) {
  Params sorted = request.params;
  std::stable_sort(sorted.begin(), sorted.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  std::string key = request.path;
  key += '?';
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (i > 0) key += '&';
    key += UrlEncode(sorted[i].first);
    key += '=';
    key += UrlEncode(sorted[i].second);
  }
  return key;
}

HttpResponse RuleService::Handle(const HttpRequest& request) {
  HttpResponse response;
  if (request.path == "/match") {
    match_requests_.fetch_add(1, std::memory_order_relaxed);
    response = Cached(match_cache_.get(), request,
                      [&] { return HandleMatch(request.params); });
  } else if (request.path == "/topk") {
    topk_requests_.fetch_add(1, std::memory_order_relaxed);
    response = Cached(topk_cache_.get(), request,
                      [&] { return HandleTopK(request.params); });
  } else if (request.path == "/rules") {
    rules_requests_.fetch_add(1, std::memory_order_relaxed);
    response = Cached(rules_cache_.get(), request,
                      [&] { return HandleRules(request.params); });
  } else if (request.path == "/statz") {
    statz_requests_.fetch_add(1, std::memory_order_relaxed);
    response = HandleStatz();
  } else if (request.path == "/healthz") {
    response = JsonOk("{\"status\":\"ok\"}");
  } else {
    response = ErrorResponse(404, "no such endpoint: " + request.path);
  }
  if (response.status != 200) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
  }
  return response;
}

HttpResponse RuleService::HandleMatch(const Params& params) {
  MatchMode mode = MatchMode::kRule;
  if (const std::string* raw = FindParam(params, "mode")) {
    if (*raw == "antecedent") {
      mode = MatchMode::kAntecedent;
    } else if (*raw != "rule") {
      return ErrorResponse(400, "bad mode: '" + *raw +
                                    "' (expected rule|antecedent)");
    }
  }
  Result<size_t> limit = SizeParam(params, "limit", 100, 100000);
  if (!limit.ok()) {
    return ErrorResponse(400, std::string(limit.status().message()));
  }
  Params fields;
  for (const auto& [key, value] : params) {
    if (key == "mode" || key == "limit") continue;
    fields.emplace_back(key, value);
  }
  Result<std::vector<int32_t>> record = catalog_->ParseRecord(fields);
  if (!record.ok()) {
    return ErrorResponse(400, std::string(record.status().message()));
  }
  thread_local MatchScratch scratch;
  std::vector<uint32_t> matched;
  catalog_->MatchRules(*record, mode, &scratch, &matched);
  const size_t total = matched.size();
  matched.resize(std::min(matched.size(), *limit));
  return RulesBody(StrFormat("{\"count\":%zu,\"rules\":[", total),
                   matched);
}

HttpResponse RuleService::HandleTopK(const Params& params) {
  RankMeasure measure = RankMeasure::kConfidence;
  if (const std::string* raw = FindParam(params, "metric")) {
    Result<RankMeasure> parsed = ParseRankMeasure(*raw);
    if (!parsed.ok()) {
      return ErrorResponse(400, std::string(parsed.status().message()));
    }
    measure = *parsed;
  }
  Result<size_t> k = SizeParam(params, "k", 10, 100000);
  if (!k.ok()) return ErrorResponse(400, std::string(k.status().message()));
  int32_t attr = -1;
  if (const std::string* raw = FindParam(params, "attr")) {
    Result<int32_t> index = catalog_->AttributeIndex(*raw);
    if (!index.ok()) {
      return ErrorResponse(404, std::string(index.status().message()));
    }
    attr = *index;
  }
  const std::vector<uint32_t> top =
      catalog_->TopK(measure, attr, *k, BoolParam(params, "interesting"));
  return RulesBody(StrFormat("{\"metric\":\"%s\",\"count\":%zu,\"rules\":[",
                             RankMeasureName(measure), top.size()),
                   top);
}

HttpResponse RuleService::HandleRules(const Params& params) {
  BrowseFilter filter;
  Result<double> min_conf = DoubleParam(params, "min_conf", 0.0);
  Result<double> min_sup = DoubleParam(params, "min_sup", 0.0);
  Result<double> min_lift = DoubleParam(params, "min_lift", 0.0);
  Result<size_t> offset = SizeParam(params, "offset", 0, SIZE_MAX / 2);
  Result<size_t> limit = SizeParam(params, "limit", 50, 100000);
  for (const Status& status :
       {min_conf.status(), min_sup.status(), min_lift.status(),
        offset.status(), limit.status()}) {
    if (!status.ok()) return ErrorResponse(400, std::string(status.message()));
  }
  filter.min_confidence = *min_conf;
  filter.min_support = *min_sup;
  filter.min_lift = *min_lift;
  filter.interesting_only = BoolParam(params, "interesting");
  if (const std::string* raw = FindParam(params, "attr")) {
    Result<int32_t> index = catalog_->AttributeIndex(*raw);
    if (!index.ok()) {
      return ErrorResponse(404, std::string(index.status().message()));
    }
    filter.attr = *index;
  }
  size_t total = 0;
  const std::vector<uint32_t> page =
      catalog_->Browse(filter, *offset, *limit, &total);
  return RulesBody(
      StrFormat("{\"total\":%zu,\"offset\":%zu,\"limit\":%zu,\"rules\":[",
                total, *offset, *limit),
      page);
}

HttpResponse RuleService::RulesBody(const std::string& head,
                                    const std::vector<uint32_t>& ids) const {
  HttpResponse response;
  OutputWriter out(&response.body);
  out.Write(head);
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out.Write(',');
    WriteStoredRuleJson(ids[i], catalog_->rules()[ids[i]], catalog_->labels(),
                        &out);
  }
  out.Write("]}");
  return response;
}

HttpResponse RuleService::HandleStatz() {
  const double uptime = uptime_.ElapsedSeconds();
  const uint64_t match = match_requests_.load(std::memory_order_relaxed);
  const uint64_t topk = topk_requests_.load(std::memory_order_relaxed);
  const uint64_t rules = rules_requests_.load(std::memory_order_relaxed);
  const uint64_t statz = statz_requests_.load(std::memory_order_relaxed);
  const uint64_t total = match + topk + rules + statz;

  std::string body = StrFormat(
      "{\"uptime_seconds\":%s,\"qps\":%s,"
      "\"requests\":{\"match\":%llu,\"topk\":%llu,\"rules\":%llu,"
      "\"statz\":%llu,\"total\":%llu,\"errors\":%llu}",
      FormatDouble(uptime, 3).c_str(),
      FormatDouble(uptime > 0 ? static_cast<double>(total) / uptime : 0.0, 3)
          .c_str(),
      static_cast<unsigned long long>(match),
      static_cast<unsigned long long>(topk),
      static_cast<unsigned long long>(rules),
      static_cast<unsigned long long>(statz),
      static_cast<unsigned long long>(total),
      static_cast<unsigned long long>(
          error_responses_.load(std::memory_order_relaxed)));
  body += ",\"catalog\":" + StatsJson(catalog_->stats());
  body += ",\"cache\":{\"enabled\":";
  if (cache_manager_ == nullptr) {
    body += "false}";
  } else {
    body += "true,\"total\":" + StatsJson(cache_manager_->TotalStats());
    for (const auto& [name, stats] : cache_manager_->AllStats()) {
      body += ",\"" + name + "\":" + StatsJson(stats);
    }
    body += '}';
  }
  body += '}';
  return JsonOk(std::move(body));
}

}  // namespace qarm
