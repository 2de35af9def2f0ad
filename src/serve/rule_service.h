// RuleService — the serving engine's query layer, independent of the
// transport: it maps a (path, params) request to a JSON response, so the
// same object sits behind the HTTP server in production and is called
// directly by tests and the in-process benchmark.
//
// Endpoints:
//   /match  — attribute=value pairs describe a record; returns the rules
//             it matches. Reserved params: mode=rule|antecedent (default
//             rule), limit (default 100).
//   /topk   — metric=confidence|support|lift (default confidence),
//             k (default 10), attr=<name> (optional), interesting=0|1.
//   /rules  — paged browse: offset, limit (default 50), min_conf,
//             min_sup, min_lift, attr=<name>, interesting=0|1.
//   /statz  — serving counters: per-endpoint request totals, QPS over
//             the process lifetime, cache hit/miss/eviction counters per
//             cache, index sizes and build time. Never cached.
//   /healthz — {"status":"ok"} liveness probe.
//
// Responses for /match, /topk and /rules are cached in per-endpoint
// ResultCaches keyed by the canonicalized query (sorted, re-encoded
// params), so two spellings of the same query share an entry. A cache
// hit is byte-identical to recomputation by construction — entries are
// the rendered bytes — and the tests verify it end to end.
#ifndef QARM_SERVE_RULE_SERVICE_H_
#define QARM_SERVE_RULE_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/timer.h"
#include "serve/http_server.h"
#include "serve/result_cache.h"
#include "serve/rule_catalog.h"

namespace qarm {

struct RuleServiceOptions {
  size_t cache_bytes = 64 * 1024 * 1024;  // 0 disables caching entirely
};

class RuleService {
 public:
  RuleService(std::shared_ptr<const RuleCatalog> catalog,
              const RuleServiceOptions& options);

  // Handles one request; always returns a response (errors are JSON with
  // an "error" key and a 4xx/5xx status).
  HttpResponse Handle(const HttpRequest& request);

  // The canonical cache key of a request: path + sorted re-encoded params.
  static std::string CanonicalKey(const HttpRequest& request);

  const RuleCatalog& catalog() const { return *catalog_; }
  const ResultCacheManager* cache_manager() const {
    return cache_manager_.get();
  }

 private:
  HttpResponse HandleMatch(
      const std::vector<std::pair<std::string, std::string>>& params);
  HttpResponse HandleTopK(
      const std::vector<std::pair<std::string, std::string>>& params);
  HttpResponse HandleRules(
      const std::vector<std::pair<std::string, std::string>>& params);
  HttpResponse HandleStatz();
  // A 200 response: `head`, the JSON object of each rule in `ids`
  // (core/report.h), comma-separated, and "]}".
  HttpResponse RulesBody(const std::string& head,
                         const std::vector<uint32_t>& ids) const;

  std::shared_ptr<const RuleCatalog> catalog_;
  std::unique_ptr<ResultCacheManager> cache_manager_;
  std::shared_ptr<ResultCache> match_cache_;  // null when caching disabled
  std::shared_ptr<ResultCache> topk_cache_;
  std::shared_ptr<ResultCache> rules_cache_;

  Timer uptime_;
  std::atomic<uint64_t> match_requests_{0};
  std::atomic<uint64_t> topk_requests_{0};
  std::atomic<uint64_t> rules_requests_{0};
  std::atomic<uint64_t> statz_requests_{0};
  std::atomic<uint64_t> error_responses_{0};
};

}  // namespace qarm

#endif  // QARM_SERVE_RULE_SERVICE_H_
