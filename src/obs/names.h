#ifndef TXREP_OBS_NAMES_H_
#define TXREP_OBS_NAMES_H_

#include <cstdint>

/// Canonical metric names and label values, so every layer agrees on the
/// naming scheme (documented in DESIGN.md §Observability):
///
///   txrep_<area>_<what>[_total|_us]   {label="value", ...}
///
/// _total suffix = monotonic counter, _us suffix = microsecond latency
/// histogram; everything else is a gauge or a unitless histogram.
namespace txrep::obs {

// --- pipeline hops (DESIGN.md §7) -------------------------------------------
/// Per-hop latency histogram (µs), labeled {stage=StageName(...)}.
inline constexpr char kStageLatency[] = "txrep_stage_latency_us";

/// The hops of one replicated transaction's Fig. 3 path, shared by the stage
/// histograms and the flight recorder. Each hop starts on the stamp its
/// predecessor ended on, so publish .. apply tile the e2e window. Values are
/// stable (flight-recorder slots store them): append only.
enum class Stage : uint8_t {
  /// DB commit -> batch handed to the broker (publisher).
  kPublish = 0,
  /// Broker publish -> delivered to the subscriber (subscriber, from the
  /// message stamps).
  kBroker = 1,
  /// Delivery -> subscriber hands the transaction to the applier.
  kRecv = 2,
  /// Hand-off -> Algorithm 1 commit decision (TM only; covers execution).
  kCommitEval = 3,
  /// Commit decision (serial: hand-off) -> applied to the replica.
  kApply = 4,
  /// DB commit -> applied to the replica (= replica lag).
  kE2e = 5,
};

inline constexpr int kNumStages = 6;

/// The {stage="..."} label value: the one spelling of each hop, shared by
/// metrics, trace exporters and docs.
inline const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kPublish: return "publish";
    case Stage::kBroker: return "broker";
    case Stage::kRecv: return "recv";
    case Stage::kCommitEval: return "commit_eval";
    case Stage::kApply: return "apply";
    case Stage::kE2e: return "e2e";
  }
  return "unknown";
}

// --- per-transaction tracing / SLO (src/trace, DESIGN.md §11) ---------------
/// Transactions minted with sampled=true at DB commit.
inline constexpr char kTraceSampled[] = "txrep_trace_sampled_total";
/// Spans handed to the flight recorder (sampled transactions only).
inline constexpr char kTraceSpans[] = "txrep_trace_spans_total";
/// Spans the flight recorder dropped (claim contention on a lapped slot).
inline constexpr char kTraceSpansDropped[] =
    "txrep_trace_spans_dropped_total";
/// Replica-lag observations fed to the SLO watchdog.
inline constexpr char kSloObservations[] = "txrep_slo_observations_total";
/// Observations above the lag objective.
inline constexpr char kSloViolations[] = "txrep_slo_violations_total";
/// Apply-progress stall episodes detected by the watchdog.
inline constexpr char kSloStalls[] = "txrep_slo_stalls_total";
/// Flight-recorder auto-dumps the watchdog triggered.
inline constexpr char kSloDumps[] = "txrep_slo_dumps_total";
/// Gauge: error-budget burn rate over the sliding window, x1000.
inline constexpr char kSloBurnRatePermille[] = "txrep_slo_burn_rate_permille";

// --- queue depths -----------------------------------------------------------
/// Gauge, labeled {queue="..."}.
inline constexpr char kQueueDepth[] = "txrep_queue_depth";
inline constexpr char kQueueCommitReqPq[] = "commit_req_pq";
inline constexpr char kQueueBroker[] = "broker";
inline constexpr char kQueueTmTop[] = "tm_top_pool";
inline constexpr char kQueueTmBottom[] = "tm_bottom_pool";

// --- transaction manager ----------------------------------------------------
inline constexpr char kTmSubmitted[] = "txrep_tm_submitted_total";
inline constexpr char kTmReadOnlySubmitted[] =
    "txrep_tm_readonly_submitted_total";
inline constexpr char kTmCommitted[] = "txrep_tm_committed_total";
inline constexpr char kTmCompleted[] = "txrep_tm_completed_total";
inline constexpr char kTmConflicts[] = "txrep_tm_conflicts_total";
inline constexpr char kTmRestarts[] = "txrep_tm_restarts_total";
inline constexpr char kTmApplyRetries[] = "txrep_tm_apply_retries_total";
inline constexpr char kTmGcRuns[] = "txrep_tm_gc_runs_total";
inline constexpr char kTmGcRemoved[] = "txrep_tm_gc_removed_total";
inline constexpr char kTmConflictChecks[] = "txrep_tm_conflict_checks_total";
/// Write/write-only overlaps with a committed predecessor that ordered a
/// transaction's apply after it (neither a conflict nor a restart).
inline constexpr char kTmApplyOrders[] = "txrep_tm_apply_orders_total";
/// Key classes behind conflicts and apply orderings, labeled
/// {class=codec::KeyClassName(...), kind=kTmEventConflict|kTmEventApplyOrder};
/// each event counts each class of its deciding keys once.
inline constexpr char kTmConflictKeys[] = "txrep_tm_conflict_keys_total";
inline constexpr char kTmEventConflict[] = "conflict";
inline constexpr char kTmEventApplyOrder[] = "apply_order";
/// Restarts per completed transaction (histogram, unitless).
inline constexpr char kTmTxnRestarts[] = "txrep_tm_txn_restarts";
/// One (re-)execution of a transaction body into its buffer (µs). Not a hop:
/// a restarted transaction executes more than once inside its commit_eval.
inline constexpr char kTmExecuteLatency[] = "txrep_tm_execute_us";

// --- database / transaction log ---------------------------------------------
inline constexpr char kDbCommits[] = "txrep_db_commits_total";
inline constexpr char kDbCommitLatency[] = "txrep_db_commit_latency_us";
inline constexpr char kDbTxnOps[] = "txrep_db_txn_ops";
inline constexpr char kLogAppended[] = "txrep_log_appended_total";
inline constexpr char kLogSize[] = "txrep_log_size";
inline constexpr char kLogTruncations[] = "txrep_log_truncations_total";
inline constexpr char kLogTruncated[] = "txrep_log_truncated_txns_total";

// --- middleware -------------------------------------------------------------
inline constexpr char kMwMessagesPublished[] =
    "txrep_mw_messages_published_total";
inline constexpr char kMwMessagesDelivered[] =
    "txrep_mw_messages_delivered_total";
inline constexpr char kMwBatchSize[] = "txrep_mw_batch_size";
inline constexpr char kMwTxnsReceived[] = "txrep_mw_txns_received_total";

// --- wire replication (src/net/, DESIGN.md §13) -----------------------------
/// Frames sent / received, labeled {role="server"|"client"}.
inline constexpr char kNetFramesSent[] = "txrep_net_frames_sent_total";
inline constexpr char kNetFramesReceived[] =
    "txrep_net_frames_received_total";
/// Wire bytes (encoded frames incl. header + checksum), same labels.
inline constexpr char kNetBytesSent[] = "txrep_net_bytes_sent_total";
inline constexpr char kNetBytesReceived[] = "txrep_net_bytes_received_total";
/// Times a sender stalled for flow control: credit exhaustion (server
/// session) or a full bounded send queue (transport writer).
inline constexpr char kNetBackpressureStalls[] =
    "txrep_net_backpressure_stalls_total";
/// Successful session (re-)establishments on the subscriber side; the first
/// connect counts, so reconnects = this - 1.
inline constexpr char kNetConnects[] = "txrep_net_connects_total";
/// Live sessions on a NetEndpoint.
inline constexpr char kNetSessions[] = "txrep_net_sessions";
/// Encoded batches currently retained for resume-from-LSN replay.
inline constexpr char kNetRetainedBatches[] = "txrep_net_retained_batches";
/// kQueueDepth label values for the transport queues.
inline constexpr char kQueueNetSend[] = "net_send";
inline constexpr char kQueueNetRecv[] = "net_recv";

// --- key-value substrate ----------------------------------------------------
/// Counter, labeled {node="N", op="get"|"put"|"delete"|"get_miss"}.
inline constexpr char kKvOps[] = "txrep_kv_ops_total";
/// Per-node op latency histogram (µs), labeled {node="N"}.
inline constexpr char kKvOpLatency[] = "txrep_kv_op_latency_us";
/// Service slots currently occupied, labeled {node="N"}.
inline constexpr char kKvSlotsInUse[] = "txrep_kv_slots_in_use";
/// Ops per Multi* batch serviced by a node (histogram, unitless), labeled
/// {node="N"}.
inline constexpr char kKvBatchSize[] = "txrep_kv_batch_size";
/// Cluster fan-out latency of one MultiWrite/MultiGet sub-batch (µs), labeled
/// {node="N"} with the destination node.
inline constexpr char kKvDispatchLatency[] = "txrep_kv_dispatch_latency_us";
/// Time an op/batch waited for a service slot (in-memory node) or the node
/// mutex (disk node) before service began (µs), labeled {node="N"}. Keeps
/// queueing out of the service share of apply-lag attribution.
inline constexpr char kKvQueueWait[] = "txrep_kv_queue_wait_us";

// --- recovery / checkpointing -----------------------------------------------
inline constexpr char kRecovCheckpoints[] = "txrep_recov_checkpoints_total";
inline constexpr char kRecovCheckpointFailures[] =
    "txrep_recov_checkpoint_failures_total";
/// Wall time of one checkpoint, barrier to durable cursor (µs).
inline constexpr char kRecovCheckpointLatency[] =
    "txrep_recov_checkpoint_latency_us";
/// Payload bytes of the last completed checkpoint.
inline constexpr char kRecovCheckpointBytes[] = "txrep_recov_checkpoint_bytes";
/// Snapshot epoch (last applied LSN) of the last completed checkpoint.
inline constexpr char kRecovCheckpointEpoch[] = "txrep_recov_checkpoint_epoch";
/// Checkpoints found unusable at recovery (torn manifest, bad file checksum).
inline constexpr char kRecovRejectedCheckpoints[] =
    "txrep_recov_rejected_checkpoints_total";
/// Restarts that found a stale/corrupt/missing cursor and fell back to the
/// manifest scan.
inline constexpr char kRecovCursorFallbacks[] =
    "txrep_recov_cursor_fallbacks_total";
/// Transactions replayed from the log tail during restart or bootstrap.
inline constexpr char kRecovTailTxns[] = "txrep_recov_tail_txns_total";
/// Gauge: LSNs a catching-up replica still trails the primary by.
inline constexpr char kRecovCatchupLag[] = "txrep_recov_catchup_lag";
/// Counter: reads rejected because the catch-up gate was still closed.
inline constexpr char kRecovGateRejects[] = "txrep_recov_gate_rejects_total";

// --- B-link index (src/blink, DESIGN.md §14) --------------------------------
/// Node reads that found no object in the store view (the traversal
/// restarts from the root), labeled {index="TABLE.COLUMN"}.
inline constexpr char kBlinkMissingNodes[] = "txrep_blink_missing_nodes_total";

// --- open-loop load generator (src/workload/loadgen, DESIGN.md §15) ---------
/// Scheduled arrivals the runner reached (shed or submitted).
inline constexpr char kLoadgenArrivals[] = "txrep_loadgen_arrivals_total";
/// Arrivals dropped at the backlog cap during sustained overload.
inline constexpr char kLoadgenShed[] = "txrep_loadgen_shed_total";
/// Write transactions that failed to commit on the database.
inline constexpr char kLoadgenSubmitFailures[] =
    "txrep_loadgen_submit_failures_total";
/// Scheduled arrival -> replica applied, as confirmed by the runner's poller
/// (µs); includes the submitter's slip.
inline constexpr char kLoadgenLag[] = "txrep_loadgen_lag_us";
/// Actual submit time minus scheduled arrival offset (µs): open-loop clock
/// slip of the single-threaded submitter.
inline constexpr char kLoadgenSchedSlip[] = "txrep_loadgen_sched_slip_us";
/// Gauge: submitted-but-not-yet-applied transactions.
inline constexpr char kLoadgenBacklog[] = "txrep_loadgen_backlog";

// --- replica read path ------------------------------------------------------
/// SELECT latency on the replica through the reader (µs).
inline constexpr char kQtSelectLatency[] = "txrep_qt_select_latency_us";
/// Counter, labeled {plan="pk"|"hash"|"range"}.
inline constexpr char kQtSelects[] = "txrep_qt_selects_total";
/// Full read-only transaction latency through TxRepSystem (µs).
inline constexpr char kReadOnlyLatency[] = "txrep_readonly_txn_latency_us";

}  // namespace txrep::obs

#endif  // TXREP_OBS_NAMES_H_
