// Causal message tracing.
//
// A TraceSink is owned by one run (one PubSubSystem / one sweep point) —
// never global — so parallel sweep workers cannot interleave spans and a
// run's trace is bit-identical regardless of --jobs. Sampling is a
// deterministic credit accumulator (no RNG draw), so enabling tracing
// does not perturb the simulation's random streams.
//
// Every record carries the canonical sort key of the emitting event
// (sim time, event key, per-event emission index). finalize() — run
// lazily by the first reader, after the run — sorts the spans by that
// key, renumbers span ids 1..n in sorted order, and remaps parent
// references. Spans emitted outside an event callback (key 0) sort
// ahead of the spans of the last event at their time.
//
// The trace context (trace id + parent span id) rides in two places:
//  * `Payload::trace` — set once by the pub/sub layer before the payload
//    pointer becomes shared/const; identifies the trace and the root-side
//    parent for any node that only sees the payload.
//  * `parent_span` fields on the per-hop wire messages (RouteMsg /
//    McastMsg / ChainMsg) — wire messages are copied per transmission,
//    so each hop can re-parent its children, chaining route-hop spans.
//
// Spans are instants in simulated time (start == end for most kinds);
// export as JSONL (one span per line) or Chrome trace_event JSON, which
// opens directly in Perfetto / chrome://tracing.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

namespace cbps::metrics {

enum class SpanKind : std::uint8_t {
  kPublish,     // root: application pub() at the publisher
  kSubscribe,   // root: application sub() at the subscriber
  kMap,         // EK/SK mapping -> rendezvous key set (a = #keys)
  kRouteHop,    // one overlay forwarding hop (a = target key, b = hops)
  kMcastSplit,  // m-cast partition/delegation (a = #keys, b = #branches)
  kBuffer,      // notification parked in a per-subscriber buffer
  kCollect,     // notification aggregated along a collect chain
  kNotify,      // notification batch sent toward the subscriber
  kDeliver,     // notification surfaced to the application
  kRetry,       // hop-by-hop retransmission (a = attempt#)
  kDrop,        // message abandoned (a = reason code)
  kGossipPush,  // epidemic forward of a gossip record (a = rounds left)
  kGossipRepair,  // record resurfaced by anti-entropy pull repair
  kHotKey,      // rendezvous match under one covered key (a = key,
                // b = notifications attributed to it) — lets
                // tools/trace_report.py attribute phase time to hot keys
  kCount,
};

const char* to_string(SpanKind kind);

/// Drop-reason codes carried in kDrop spans' `a` argument.
enum class DropReason : std::uint64_t {
  kMaxHops = 1,
  kNoCandidate = 2,
  kRetryBudget = 3,
  kMisdirected = 4,
  kDuplicate = 5,
  kMcastDead = 6,
};

/// Trace context threaded through payloads and notifications.
/// trace_id == 0 means "not sampled" and makes every emit a no-op.
struct TraceRef {
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;
  bool sampled() const { return trace_id != 0; }
};

struct Span {
  std::uint64_t span_id = 0;
  std::uint64_t trace_id = 0;
  std::uint64_t parent_span = 0;  // 0 = trace root
  SpanKind kind = SpanKind::kCount;
  std::uint64_t node = 0;      // overlay id of the emitting node
  std::uint64_t start_us = 0;  // simulated time
  std::uint64_t end_us = 0;
  std::uint64_t a = 0;  // kind-specific arguments (see SpanKind)
  std::uint64_t b = 0;
};

class TraceSink {
 public:
  /// sample_rate in [0, 1]: fraction of root operations (pub/sub calls)
  /// that start a trace. Deterministic: every 1/rate-th root samples.
  explicit TraceSink(double sample_rate);

  TraceSink(const TraceSink&) = delete;
  TraceSink& operator=(const TraceSink&) = delete;

  bool enabled() const { return sample_rate_ > 0.0; }
  double sample_rate() const { return sample_rate_; }

  /// Called at a root operation. Returns a fresh trace id, or 0 when
  /// this root is not sampled.
  std::uint64_t maybe_start_trace();

  /// Record a span in trace `t` (no-op returning 0 when !t.sampled()).
  /// Returns a provisional span id to parent children on; ids are
  /// renumbered deterministically at finalize().
  std::uint64_t emit(const TraceRef& t, SpanKind kind, std::uint64_t node,
                     std::uint64_t start_us, std::uint64_t end_us,
                     std::uint64_t a = 0, std::uint64_t b = 0);

  /// Finalized spans, sorted by canonical event key and renumbered 1..n.
  /// First call finalizes; emitting after that is a usage error.
  const std::vector<Span>& spans() {
    finalize();
    return final_;
  }
  std::uint64_t traces_started() const { return next_trace_ - 1; }
  /// Spans discarded after the in-memory cap was hit.
  std::uint64_t spans_dropped() const { return dropped_; }
  void set_max_spans(std::size_t cap) { max_spans_ = cap; }

  /// One span per line: {"span":..,"trace":..,"parent":..,"kind":"..",...}
  void write_jsonl(std::ostream& os);
  /// Chrome trace_event JSON ("X" complete events, one pid per trace is
  /// too sparse — nodes become tids so a Perfetto row is one node).
  void write_chrome_trace(std::ostream& os);

 private:
  struct Rec {
    Span span;
    std::uint64_t time = 0;      // sim time of the emitting event
    std::uint64_t event_key = 0; // canonical key of the emitting event
    std::uint32_t emit_seq = 0;  // emission index within that event
  };

  void finalize();

  double sample_rate_;
  double credit_ = 0.0;
  std::uint64_t next_trace_ = 1;
  std::size_t max_spans_ = 1u << 22;  // ~4M spans ≈ 300 MB worst case
  bool finalized_ = false;
  std::uint64_t dropped_ = 0;
  // Append order; a span's provisional id is its index + 1.
  std::vector<Rec> recs_;
  std::vector<Span> final_;
};

}  // namespace cbps::metrics
