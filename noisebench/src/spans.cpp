#include "spans.hpp"

#include <fstream>

namespace nb {

Spans::Scope::Scope(Spans& spans, const char* layer, const char* name,
                    std::uint64_t id)
    : spans_(spans), index_(static_cast<int>(spans.events_.size())) {
  spans_.events_.push_back({layer, name, id, spans_.now_us(), 0.0, spans_.open_});
  spans_.open_ = index_;
}

Spans::Scope::~Scope() {
  Event& e = spans_.events_[static_cast<std::size_t>(index_)];
  e.t1_us = spans_.now_us();
  spans_.open_ = e.parent;
}

double Spans::now_us() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - epoch_)
      .count();
}

double Spans::total_s(const std::string& layer, const std::string& name) const {
  double us = 0.0;
  for (const Event& e : events_)
    if (layer == e.layer && name == e.name) us += e.t1_us - e.t0_us;
  return us * 1e-6;
}

std::size_t Spans::count(const std::string& layer,
                         const std::string& name) const {
  std::size_t n = 0;
  for (const Event& e : events_)
    if (layer == e.layer && name == e.name) ++n;
  return n;
}

std::map<std::string, double> Spans::self_s_by_layer() const {
  std::vector<double> self_us(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i)
    self_us[i] = events_[i].t1_us - events_[i].t0_us;
  for (const Event& e : events_)
    if (e.parent >= 0)
      self_us[static_cast<std::size_t>(e.parent)] -= e.t1_us - e.t0_us;
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < events_.size(); ++i)
    out[events_[i].layer] += self_us[i] * 1e-6;
  return out;
}

bool Spans::write_chrome_json(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  os.precision(15);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < events_.size(); ++i) {
    const Event& e = events_[i];
    os << (i ? ",\n" : "\n") << "{\"name\":\"" << e.layer << '.' << e.name
       << "\",\"cat\":\"" << e.layer << "\",\"ph\":\"X\",\"ts\":" << e.t0_us
       << ",\"dur\":" << e.t1_us - e.t0_us
       << ",\"pid\":1,\"tid\":1,\"args\":{\"id\":" << e.id << "}}";
  }
  os << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return static_cast<bool>(os);
}

}  // namespace nb
