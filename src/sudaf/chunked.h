#ifndef SUDAF_SUDAF_CHUNKED_H_
#define SUDAF_SUDAF_CHUNKED_H_

// Data-dimension sharing over predefined chunks — the extension the paper
// sketches in Sections 2 and 8 (and attributes to chunk-based techniques
// such as Data Canopy / chunked multidimensional caching).
//
// SUDAF proper shares on the *computation* dimension: cached states are
// reusable only when tables, predicates and grouping coincide. Chunked
// sharing adds the data dimension for range queries: the chunking column's
// domain is split into fixed-width chunks, aggregation states are cached
// *per chunk* (at class-representative granularity, sign-separated — the
// same machinery as the main cache), and a query whose range predicate
// covers several chunks merges their states with ⊕ before the terminating
// function runs. Overlapping ranges of later queries then reuse every chunk
// they have in common, even across different UDAFs:
//
//   SELECT qm(v) FROM t WHERE ts >= 0  AND ts < 400   -- computes chunks 0..3
//   SELECT stddev(v) FROM t WHERE ts >= 200 AND ts < 600
//       -- chunks 2,3 from cache (different UDAF!), chunks 4,5 computed
//
// Chunk states live in the session's StateCache, one group set per chunk,
// under a signature that names the chunk's range (it never equals a plain
// query's). They therefore share the session cache's epoch invalidation
// (an append or replace of the table discards them; they are never delta
// refreshed), its byte budget, its journal and its metrics.
//
// Scope: single-table queries whose WHERE is (optionally) one half-open
// range on the configured chunk column, aligned to chunk boundaries, plus
// arbitrary other conjuncts (those become part of the chunk signature).
// GROUP BY is supported; per-chunk group sets are merged by key.

#include <memory>
#include <string>
#include <vector>

#include "sudaf/session.h"

namespace sudaf {

struct ChunkedExecStats {
  int chunks_needed = 0;
  int chunks_from_cache = 0;
  int chunks_computed = 0;
  double total_ms = 0;
};

class ChunkedSharingSession {
 public:
  // Shares states of queries over `table`, chunking on the INT64 column
  // `chunk_column` with chunks [i·width, (i+1)·width). `session` provides
  // the UDAF library and execution machinery and must outlive this object.
  ChunkedSharingSession(SudafSession* session, std::string table,
                        std::string chunk_column, int64_t chunk_width);

  // Executes `sql` with per-chunk state caching. The statement must select
  // from exactly the configured table; a range predicate on the chunk
  // column must be written as `col >= lo and col < hi` with lo/hi on chunk
  // boundaries (absent means "the whole configured domain", which is
  // inferred from the table's min/max on every such call).
  Result<std::unique_ptr<Table>> Execute(const std::string& sql);

  // Stats of this object's most recent Execute. Unlike SudafSession (which
  // is concurrent and carries stats on each QueryResult), a
  // ChunkedSharingSession is a single-caller helper: one thread drives one
  // instance. Concurrent clients each construct their own over the shared
  // session.
  const ChunkedExecStats& last_stats() const { return stats_; }

 private:
  // Execute's body; counts into the call's own registry `m`.
  Result<std::unique_ptr<Table>> Run(const std::string& sql,
                                     MetricsRegistry* m);

  SudafSession* session_;
  std::string table_;
  std::string chunk_column_;
  int64_t chunk_width_;
  ChunkedExecStats stats_;
};

}  // namespace sudaf

#endif  // SUDAF_SUDAF_CHUNKED_H_
