#include "cbps/metrics/trace.hpp"

#include <algorithm>
#include <ostream>

#include "cbps/common/assert.hpp"
#include "cbps/common/exec_context.hpp"

namespace cbps::metrics {

const char* to_string(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPublish: return "publish";
    case SpanKind::kSubscribe: return "subscribe";
    case SpanKind::kMap: return "map";
    case SpanKind::kRouteHop: return "route-hop";
    case SpanKind::kMcastSplit: return "mcast-split";
    case SpanKind::kBuffer: return "buffer";
    case SpanKind::kCollect: return "collect";
    case SpanKind::kNotify: return "notify";
    case SpanKind::kDeliver: return "deliver";
    case SpanKind::kRetry: return "retry";
    case SpanKind::kDrop: return "drop";
    case SpanKind::kGossipPush: return "gossip-push";
    case SpanKind::kGossipRepair: return "gossip-repair";
    case SpanKind::kHotKey: return "hot-key";
    case SpanKind::kCount: break;
  }
  return "?";
}

TraceSink::TraceSink(double sample_rate)
    : sample_rate_(sample_rate < 0.0   ? 0.0
                   : sample_rate > 1.0 ? 1.0
                                       : sample_rate) {}

std::uint64_t TraceSink::maybe_start_trace() {
  if (sample_rate_ <= 0.0) return 0;
  credit_ += sample_rate_;
  if (credit_ < 1.0) return 0;
  credit_ -= 1.0;
  return next_trace_++;
}

std::uint64_t TraceSink::emit(const TraceRef& t, SpanKind kind,
                              std::uint64_t node, std::uint64_t start_us,
                              std::uint64_t end_us, std::uint64_t a,
                              std::uint64_t b) {
  if (!t.sampled()) return 0;
  CBPS_ASSERT_MSG(!finalized_, "emit() after spans were finalized");
  if (recs_.size() >= max_spans_) {
    ++dropped_;
    return 0;
  }
  auto& x = common::exec_context();
  const std::uint64_t id = recs_.size() + 1;
  recs_.push_back(Rec{Span{id, t.trace_id, t.parent_span, kind, node,
                           start_us, end_us, a, b},
                      x.time, x.event_key, x.emit_seq++});
  return id;
}

void TraceSink::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // Canonical order: (sim time, event key, emission index). The triple
  // is strictly increasing within an event and event keys are unique,
  // so the order — and therefore the renumbering — is a pure function
  // of the workload. stable_sort keeps append order among emits made
  // outside any event callback (key 0, test-only).
  std::stable_sort(recs_.begin(), recs_.end(), [](const Rec& l, const Rec& r) {
    if (l.time != r.time) return l.time < r.time;
    if (l.event_key != r.event_key) return l.event_key < r.event_key;
    return l.emit_seq < r.emit_seq;
  });

  // Provisional id (append index + 1) -> final id (sorted index + 1).
  std::vector<std::uint64_t> remap(recs_.size() + 1, 0);
  for (std::size_t i = 0; i < recs_.size(); ++i) {
    remap[recs_[i].span.span_id] = i + 1;
  }

  final_.reserve(recs_.size());
  for (const Rec& r : recs_) {
    Span s = r.span;
    s.span_id = remap[s.span_id];
    // 0 (trace root) maps to 0; an id this sink never issued orphans
    // the span to the root.
    s.parent_span =
        s.parent_span < remap.size() ? remap[s.parent_span] : 0;
    final_.push_back(s);
  }
  recs_ = {};
}

void TraceSink::write_jsonl(std::ostream& os) {
  for (const Span& s : spans()) {
    os << "{\"span\":" << s.span_id << ",\"trace\":" << s.trace_id
       << ",\"parent\":" << s.parent_span << ",\"kind\":\""
       << to_string(s.kind) << "\",\"node\":" << s.node
       << ",\"ts_us\":" << s.start_us << ",\"end_us\":" << s.end_us
       << ",\"a\":" << s.a << ",\"b\":" << s.b << "}\n";
  }
}

void TraceSink::write_chrome_trace(std::ostream& os) {
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const Span& s : spans()) {
    if (!first) os << ",";
    first = false;
    // Complete ("X") events; zero-duration instants get dur=1 so they
    // stay visible in the Perfetto timeline. pid 1 = the simulation,
    // tid = node id, so each Perfetto track is one node's activity.
    const std::uint64_t dur = s.end_us > s.start_us ? s.end_us - s.start_us : 1;
    os << "\n{\"name\":\"" << to_string(s.kind)
       << "\",\"cat\":\"cbps\",\"ph\":\"X\",\"ts\":" << s.start_us
       << ",\"dur\":" << dur << ",\"pid\":1,\"tid\":" << s.node
       << ",\"args\":{\"span\":" << s.span_id << ",\"trace\":" << s.trace_id
       << ",\"parent\":" << s.parent_span << ",\"a\":" << s.a
       << ",\"b\":" << s.b << "}}";
  }
  os << "\n]}\n";
}

}  // namespace cbps::metrics
