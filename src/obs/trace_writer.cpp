#include "obs/trace_writer.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

namespace privagic::obs {

namespace {

const char* msg_kind_name(std::uint8_t kind) {
  switch (kind) {
    case 0: return "spawn";
    case 1: return "cont";
    case 2: return "ack";
    case 3: return "stop";
    case 4: return "crash";
    default: return "?";
  }
}

const char* fault_kind_label(std::uint8_t kind) {
  switch (kind) {
    case 0: return "none";
    case 1: return "drop";
    case 2: return "duplicate";
    case 3: return "reorder";
    case 4: return "corrupt";
    case 5: return "delay";
    case 6: return "crash";
    default: return "?";
  }
}

const char* crash_point_label(std::int64_t point) {
  switch (point) {
    case 0: return "wait-entry";
    case 1: return "pre-send";
    case 2: return "mid-batch";
    case 3: return "post-checkpoint";
    default: return "?";
  }
}

void append_kv_i64(std::string& out, const char* key, std::int64_t v, bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s\"%s\":%" PRId64, *first ? "" : ",", key, v);
  out += buf;
  *first = false;
}

void append_kv_str(std::string& out, const char* key, const char* v, bool* first) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s\"%s\":\"%s\"", *first ? "" : ",", key, v);
  out += buf;
  *first = false;
}

/// Kind-specific argument object ("args": {...}), led by the event's color
/// and request id (0 outside any sampled request).
void append_args(std::string& out, const TraceEvent& e) {
  out += "\"args\":{";
  bool first = true;
  append_kv_i64(out, "color", e.color, &first);
  append_kv_i64(out, "req", e.request, &first);
  switch (e.kind) {
    case EventKind::kMsgSend:
    case EventKind::kMsgRecv:
      append_kv_str(out, "msg", msg_kind_name(e.detail), &first);
      append_kv_i64(out, "tag", e.a, &first);
      append_kv_i64(out, e.kind == EventKind::kMsgSend ? "chunk" : "payload", e.b, &first);
      break;
    case EventKind::kCallEnter:
      append_kv_i64(out, "fn_token", e.a, &first);
      break;
    case EventKind::kCallExit:
      // a packs dur_ns << 12 | token (see obs::on_call_exit).
      append_kv_i64(out, "fn_token", e.a & 0xFFF, &first);
      append_kv_i64(out, "result", e.b, &first);
      break;
    case EventKind::kChunkDispatch:
      append_kv_i64(out, "chunk", e.a, &first);
      append_kv_i64(out, "leader", e.b, &first);
      break;
    case EventKind::kWait:
      append_kv_i64(out, "tag", e.a, &first);
      append_kv_i64(out, "blocked_ns", e.b, &first);
      append_kv_str(out, "outcome",
                    e.detail == 0 ? "timeout" : msg_kind_name(e.detail - 1), &first);
      break;
    case EventKind::kRegionAlloc:
    case EventKind::kRegionFree:
      append_kv_i64(out, "base", e.a, &first);
      append_kv_i64(out, "bytes", e.b, &first);
      break;
    case EventKind::kFaultVerdict:
      append_kv_str(out, "verdict", fault_kind_label(e.detail), &first);
      break;
    case EventKind::kRetransmit:
      append_kv_i64(out, "tag", e.a, &first);
      break;
    case EventKind::kWorkerCrash:
      append_kv_str(out, "at", crash_point_label(e.a), &first);
      break;
    case EventKind::kFailover:
      append_kv_i64(out, "replay_entries", e.a, &first);
      break;
    case EventKind::kCheckpoint:
      append_kv_i64(out, "epoch", e.a, &first);
      append_kv_i64(out, "bytes", e.b, &first);
      break;
    case EventKind::kRestore:
      append_kv_i64(out, "epoch", e.a, &first);
      append_kv_str(out, "verdict",
                    e.b == 0 ? "ok" : (e.b == 1 ? "stale" : "tampered"), &first);
      break;
    case EventKind::kWorkerPoisoned:
      break;
  }
  out += '}';
}

void append_event(std::string& out, const TraceEvent& e, std::uint32_t tid, bool* first_event) {
  const double ts_us = static_cast<double>(e.tick_ns) / 1000.0;
  char head[160];
  if (e.kind == EventKind::kCallExit) {
    // The exit event packs the span duration (ns) above the function token;
    // render the whole interface call as one complete "X" slice ending at the
    // event's timestamp. (The call's kCallEnter falls through to the
    // instant branch below as a marker.)
    const std::uint64_t dur_ns = static_cast<std::uint64_t>(e.a) >> 12;
    const std::uint64_t start = e.tick_ns > dur_ns ? e.tick_ns - dur_ns : 0;
    std::snprintf(head, sizeof head,
                  "%s\n    {\"name\":\"Machine::call\",\"cat\":\"interp\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,",
                  *first_event ? "" : ",", static_cast<double>(start) / 1000.0,
                  static_cast<double>(dur_ns) / 1000.0, tid);
  } else if (e.kind == EventKind::kWait && e.b > 0) {
    // A complete ("X") slice spanning the blocked interval; the event is
    // stamped at wait end, so the slice starts blocked_ns earlier.
    const double start_us = static_cast<double>(e.tick_ns - static_cast<std::uint64_t>(e.b)) / 1000.0;
    std::snprintf(head, sizeof head,
                  "%s\n    {\"name\":\"wait\",\"cat\":\"runtime\",\"ph\":\"X\","
                  "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u,",
                  *first_event ? "" : ",", start_us, static_cast<double>(e.b) / 1000.0, tid);
  } else {
    std::snprintf(head, sizeof head,
                  "%s\n    {\"name\":\"%s\",\"cat\":\"runtime\",\"ph\":\"i\",\"s\":\"t\","
                  "\"ts\":%.3f,\"pid\":1,\"tid\":%u,",
                  *first_event ? "" : ",", event_kind_name(e.kind), ts_us, tid);
  }
  out += head;
  append_args(out, e);
  out += '}';
  *first_event = false;
}

}  // namespace

std::string TraceWriter::to_chrome_json(const std::vector<TraceBuffer::Drained>& threads) {
  // Order globally by timestamp before serializing: the rings are per
  // thread, and trace viewers expect monotonically non-decreasing "ts"
  // values.
  struct Rec {
    const TraceEvent* e;
    std::uint32_t tid;
  };
  std::vector<Rec> recs;
  std::uint64_t dropped = 0;
  for (const TraceBuffer::Drained& t : threads) {
    dropped += t.dropped;
    for (const TraceEvent& e : t.events) recs.push_back(Rec{&e, t.tid});
  }
  std::stable_sort(recs.begin(), recs.end(),
                   [](const Rec& x, const Rec& y) { return x.e->tick_ns < y.e->tick_ns; });
  std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  bool first = true;
  for (const Rec& r : recs) append_event(out, *r.e, r.tid, &first);
  out += first ? "],\n" : "\n  ],\n";
  char tail[96];
  std::snprintf(tail, sizeof tail, "  \"droppedEventCount\": %" PRIu64 "\n}\n", dropped);
  out += tail;
  return out;
}

bool TraceWriter::write_chrome_json(const std::string& path,
                                    const std::vector<TraceBuffer::Drained>& threads) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string doc = to_chrome_json(threads);
  const bool ok = std::fwrite(doc.data(), 1, doc.size(), f) == doc.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace privagic::obs
