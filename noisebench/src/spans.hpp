// In-memory span recorder for the traced run. Spans are recorded in the
// benchmark's own code around its calls into each layer of the analyzer
// (nothing inside the library is instrumented). Every span carries the id
// of the net or request it belongs to and the index of its parent span,
// so a layer's self time is its span time minus the time of its children.
//
// Recording is single-threaded: the benchmark opens spans on its main
// thread only.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "bench.hpp"

namespace nb {

class Spans {
 public:
  /// RAII span: opened in the constructor, closed in the destructor.
  class Scope {
   public:
    Scope(Spans& spans, const char* layer, const char* name, std::uint64_t id);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Spans& spans_;
    int index_;
  };

  /// Total duration [s] of spans with this layer and name.
  double total_s(const std::string& layer, const std::string& name) const;
  /// Number of spans with this layer and name.
  std::size_t count(const std::string& layer, const std::string& name) const;
  /// Self time [s] per layer: span time not covered by child spans.
  std::map<std::string, double> self_s_by_layer() const;

  /// Chrome trace_event JSON ("ph":"X" complete events, microseconds).
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Event {
    const char* layer;  // Module the span's call enters (string literal).
    const char* name;   // Call within that layer (string literal).
    std::uint64_t id;   // Net or request the span belongs to.
    double t0_us;
    double t1_us;
    int parent;  // Index of the enclosing span; -1 at the root.
  };

  double now_us() const;

  Clock::time_point epoch_ = Clock::now();
  std::vector<Event> events_;
  int open_ = -1;  // Innermost open span.
};

}  // namespace nb
