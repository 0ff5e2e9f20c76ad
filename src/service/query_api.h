#ifndef SITFACT_SERVICE_QUERY_API_H_
#define SITFACT_SERVICE_QUERY_API_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "query/fact_index.h"
#include "service/fact_service.h"

namespace sitfact {

/// The unified request/response layer over FactService: every query
/// surface — in-process callers, the `facts` CLI subcommand, and the HTTP
/// server in src/net/ — builds one QueryRequest and receives one
/// QueryResponse, so there is exactly one query shape and one JSON
/// (de)serializer (src/net/json.h) instead of five bespoke ones.
///
/// All five kinds answer with the same cursor-paginated Page contract:
/// TopK/About pages run prominence-descending, FactsForTuple/FactsInWindow
/// pages run record-id-ascending, and in every case `next` resumes
/// strictly after the last returned record. Explain returns the single
/// named record plus its narration in `explanation`.

/// Version of the wire schema; every serialized response carries it as
/// `"schema"`, so clients can hard-fail on a version they do not speak
/// instead of misreading fields.
inline constexpr uint32_t kWireSchemaVersion = 1;

enum class QueryKind {
  kTopK = 0,
  kFactsForTuple,
  kFactsInWindow,
  kAbout,
  kExplain,
};

/// Wire name of a kind ("topk", "facts_for_tuple", ...).
const char* QueryKindName(QueryKind kind);

/// Inverse of QueryKindName; InvalidArgument on unknown names.
StatusOr<QueryKind> ParseQueryKind(const std::string& name);

/// One query against a FactService snapshot. Which fields matter depends
/// on `kind`; ExecuteQuery validates the combination.
struct QueryRequest {
  QueryKind kind = QueryKind::kTopK;
  /// Page size for the list kinds (ignored by kExplain).
  uint64_t k = 10;
  /// Conjunctive record filter. kAbout reads its constraint from
  /// `filter.about` (kAbout is TopK restricted to facts about that
  /// constraint — kept as its own kind so the wire endpoint and the
  /// in-process About() call stay one shape).
  FactFilter filter;
  /// kFactsForTuple: the minting tuple.
  std::optional<TupleId> tuple;
  /// kFactsInWindow: inclusive arrival-sequence window.
  std::optional<uint64_t> window_first;
  std::optional<uint64_t> window_last;
  /// Resume position from a previous page's `next`.
  std::optional<TopKCursor> cursor;
  /// kExplain: the record to narrate.
  std::optional<uint32_t> record;
};

/// One response: the page plus the epoch it was served from. Immutable
/// facts about the shape: `schema` is always kWireSchemaVersion and
/// `epoch` is always the snapshot's epoch — a response is attributable to
/// exactly one published index state, which is what makes (epoch, request)
/// response caching trivially coherent.
struct QueryResponse {
  uint32_t schema = kWireSchemaVersion;
  uint64_t epoch = 0;
  std::vector<FactService::FactView> facts;
  /// Present exactly when more matches exist; feed back as `cursor` to
  /// resume.
  std::optional<TopKCursor> next;
  /// kExplain only: the narration for `facts[0]`.
  std::optional<std::string> explanation;
};

/// Executes one request against a pinned snapshot. Every query surface
/// funnels through here. InvalidArgument when the request's fields do not
/// fit its kind (missing tuple/window/record, reversed window, record id
/// out of range).
StatusOr<QueryResponse> ExecuteQuery(const FactService::Snapshot& snapshot,
                                     const QueryRequest& request);

/// Convenience: acquire + execute.
inline StatusOr<QueryResponse> ExecuteQuery(const FactService& service,
                                            const QueryRequest& request) {
  return ExecuteQuery(service.Acquire(), request);
}

}  // namespace sitfact

#endif  // SITFACT_SERVICE_QUERY_API_H_
