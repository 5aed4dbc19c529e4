#ifndef SKALLA_OBS_JOURNAL_H_
#define SKALLA_OBS_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

namespace skalla {
namespace obs {

/// Typed round-lifecycle events recorded by the structured event journal
/// (see docs/observability.md for the full record semantics).
enum class JournalEvent {
  /// One message on the simulated network (every transfer, including
  /// retransmissions, control messages, and aggregator-internal hops).
  /// Summing `bytes` over kMessage records reproduces
  /// ExecutionMetrics::TotalBytes() exactly.
  kMessage,
  /// The base-result structure X serialized for one site slot: `label` is
  /// the wire format actually shipped (SKL1/SKL2/SKLD), `bytes` the
  /// attempt-0 payload size, `rows` the shipped groups.
  kBaseShipped,
  /// One per-site exchange attempt began (site, attempt).
  kAttemptStart,
  /// The attempt ended: `label` is "ok", "lost-down", or "lost-up";
  /// `seconds` is the site CPU the attempt consumed (0 when the down
  /// message was lost before evaluation).
  kAttemptFinish,
  /// The attempt overran its deadline (`seconds` = site CPU spent anyway).
  kAttemptTimeout,
  /// The slot is being re-driven (one record per retried attempt).
  kRetry,
  /// The slot failed over to its replica.
  kFailover,
  /// Coordinator-side synchronization merged one sub-result (`rows`
  /// groups, `seconds` of merge CPU): the coordinator folding an inbound
  /// relation into X (`site` = the sending site slot, or the aggregator
  /// endpoint id of an aggregator child), or an aggregator combining its
  /// children (`site` = its aggregator endpoint id, label "tree").
  kSyncMerge,
  /// Aware group reduction filtered a site's view of X:
  /// `rows_before` -> `rows` groups kept.
  kReduction,
};

/// Canonical lowercase event name (stable; used in the JSONL export).
const char* JournalEventName(JournalEvent event);

/// One journal record. Only the fields meaningful for the event type are
/// set; the rest keep their zero defaults (and are omitted from exports
/// where possible).
struct JournalRecord {
  JournalEvent event = JournalEvent::kMessage;
  int round = -1;            ///< SimNetwork round index
  int from = 0;              ///< kMessage: sender endpoint
  int to = 0;                ///< kMessage: receiver endpoint
  int site = -1;             ///< site-scoped events: site slot / endpoint
  int attempt = 0;
  size_t bytes = 0;
  int64_t rows = 0;
  int64_t rows_before = 0;   ///< kReduction: groups before the filter
  double seconds = 0;
  bool delivered = true;     ///< kMessage: false when lost in flight
  std::string label;
  int64_t ts_ns = 0;         ///< stamped by JournalAppend (trace epoch)
};

/// Appends a record (thread-safe). Callers must guard with
/// obs::JournalEnabled() so record construction is skipped when tracing is
/// off; Append itself also drops records when the journal is disabled.
void JournalAppend(JournalRecord record);

/// Copies all recorded records in append order.
std::vector<JournalRecord> JournalSnapshot();

/// Number of records currently held.
size_t JournalSize();

/// Discards all records (used between queries / by ResetTracing()).
void ClearJournal();

}  // namespace obs
}  // namespace skalla

#endif  // SKALLA_OBS_JOURNAL_H_
