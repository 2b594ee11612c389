// Chrome trace_event serialization for drained trace buffers.
//
// Converts the fixed-size binary events of trace.hpp into the JSON Array
// Format that chrome://tracing and ui.perfetto.dev load directly:
//
//   { "displayTimeUnit": "ns",
//     "traceEvents": [
//       {"name":"msg_send","cat":"runtime","ph":"i","s":"t",
//        "ts":12.345,"pid":1,"tid":0,"args":{"color":1,"req":7,...}}, ... ] }
//
// Mapping: a Machine::call's exit event becomes one "X" complete event
// spanning the call, and waits become "X" complete events spanning the
// blocked interval (both durations are carried in the event payload);
// everything else is a thread-scoped instant ("i"). Every event's args carry
// "req", the sampled request it belongs to (0 outside any request).
// Timestamps are microseconds (the format's unit) derived from the events'
// nanosecond ticks.
#pragma once

#include <string>
#include <vector>

#include "obs/trace.hpp"

namespace privagic::obs {

class TraceWriter {
 public:
  /// The whole capture as one Chrome trace JSON document.
  [[nodiscard]] static std::string to_chrome_json(
      const std::vector<TraceBuffer::Drained>& threads);

  /// Writes the document to @p path; false on I/O failure.
  static bool write_chrome_json(const std::string& path,
                                const std::vector<TraceBuffer::Drained>& threads);
};

}  // namespace privagic::obs
