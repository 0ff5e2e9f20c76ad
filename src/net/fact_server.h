#ifndef SITFACT_NET_FACT_SERVER_H_
#define SITFACT_NET_FACT_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <string>
#include <unordered_map>

#include "common/status.h"
#include "net/http.h"
#include "net/server.h"
#include "relation/relation.h"
#include "service/fact_service.h"
#include "service/query_api.h"

namespace sitfact {
namespace net {

/// The serving application: routes HTTP endpoints onto the unified query
/// API. Every query endpoint is the same two steps — build a QueryRequest
/// (from query parameters on GET, from a JSON body on POST), then
/// ExecuteQuery against a pinned snapshot — so the wire protocol, the CLI
/// and in-process callers cannot drift apart.
///
/// Endpoints:
///   GET/POST /topk /facts_for_tuple /facts_in_window /about /explain
///   GET  /healthz        liveness probe
///   GET  /statz          per-endpoint request/error/latency/cache counters
///   POST /quitquitquit   graceful shutdown (also accepts GET)
///
/// Response caching: one entry per canonical request, valid for exactly one
/// epoch. Snapshots are immutable, so `(epoch, canonical request)` fully
/// determines the response bytes; a publish bumps the epoch and thereby
/// invalidates every cached entry without any bookkeeping.
class FactServer {
 public:
  struct Options {
    EpollServer::Options net;
    size_t cache_capacity = 512;  ///< entries; 0 disables the cache
  };

  struct EndpointStats {
    uint64_t requests = 0;
    uint64_t errors = 0;
    uint64_t cache_hits = 0;
    uint64_t total_micros = 0;  ///< handler time, cache hits included
    uint64_t max_micros = 0;
  };

  /// `service` must outlive the server; `relation` (nullable) enables the
  /// textual where/measures/window filter grammar on the wire.
  FactServer(const FactService* service, const Relation* relation,
             Options options);

  Status Listen() { return server_.Listen(); }
  uint16_t port() const { return server_.port(); }
  /// Blocks until /quitquitquit, RequestStop(), or the external stop flag.
  Status Serve() { return server_.Serve(); }
  void RequestStop() { server_.RequestStop(); }
  void set_external_stop(const std::atomic<bool>* flag) {
    server_.set_external_stop(flag);
  }

  /// The routing core, exposed so unit tests can drive it without sockets.
  HttpResponse Handle(const HttpRequest& request);

  const EpollServer::Stats& net_stats() const { return server_.stats(); }

 private:
  struct CacheEntry {
    uint64_t epoch = 0;
    std::string body;
  };

  HttpResponse HandleQuery(QueryKind kind, const HttpRequest& request,
                           EndpointStats* stats);
  /// GET parameters -> the same JSON object shape a POST body carries, so
  /// both funnel through the one RequestFromJson deserializer.
  StatusOr<QueryRequest> RequestFromParams(QueryKind kind,
                                           const HttpRequest& request,
                                           std::string* empty_note) const;
  HttpResponse StatzResponse() const;
  static HttpResponse ErrorResponse(int http_status, const Status& status);

  const FactService* service_;
  const Relation* relation_;
  Options options_;
  EpollServer server_;

  std::unordered_map<std::string, CacheEntry> cache_;
  std::deque<std::string> cache_order_;  ///< FIFO eviction
  std::unordered_map<std::string, EndpointStats> endpoint_stats_;
};

}  // namespace net
}  // namespace sitfact

#endif  // SITFACT_NET_FACT_SERVER_H_
