// Types shared by the benchmark (table6_bench.cpp) and its traced
// per-layer analysis (layers.cpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "support.hpp"

namespace perfbench {

/// One request of a closed loop and what came back.
struct Sent {
  Request req;
  double start_ms = 0.0;    ///< send_line(), from the start of the pass
  double latency_ms = 0.0;  ///< send_line() to recv_line()
  std::string envelope;
  bool answered = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;  ///< printed beside the value (sample counts, split)
};

/// Everything the per-layer analysis needs from a traced run.
struct TracedRun {
  std::vector<Sent> requests;  ///< timed requests of the traced pass
  std::string stream_dir;      ///< rls serve --stream-dir of that pass
  std::string store_dir;       ///< its store, read after the server stopped
  std::string scratch_dir;     ///< empty directory for put timings
  std::string spans_path;      ///< per-request spans are written here
  double untraced_p50_ms = 0.0;
  double traced_p50_ms = 0.0;
  Window window;               ///< server wall/CPU over the traced pass
  std::size_t server_threads = 0;
  std::size_t attempted = 0, failed = 0, ok = 0, coalesced = 0;
  /// failed requests by envelope error_code ("check" = wrong result).
  std::map<std::string, std::size_t> errors;
};

/// Per-layer metrics: the streams and counters the server wrote, plus
/// the benchmark's own steady_clock timings of each layer's public calls.
/// Also writes one span line per traced request to run.spans_path.
std::vector<Metric> layer_metrics(const TracedRun& run);

}  // namespace perfbench
