#include "obs/trace.hpp"

#include "core/json.hpp"

namespace cen::obs {

void Tracer::begin(std::string name, std::string category, SimTime now) {
  open_.push_back({std::move(name), std::move(category), now});
}

void Tracer::end(SimTime now) {
  if (open_.empty()) return;  // tolerate unbalanced ends rather than throw
  OpenSpan top = std::move(open_.back());
  open_.pop_back();
  Span s;
  s.name = std::move(top.name);
  s.category = std::move(top.category);
  s.begin_ms = top.begin_ms;
  s.duration_ms = now >= top.begin_ms ? now - top.begin_ms : 0;
  s.depth = static_cast<std::uint32_t>(open_.size());
  spans_.push_back(std::move(s));
}

void Tracer::complete(std::string name, std::string category, SimTime begin_ms,
                      SimTime end_ms) {
  Span s;
  s.name = std::move(name);
  s.category = std::move(category);
  s.begin_ms = begin_ms;
  s.duration_ms = end_ms >= begin_ms ? end_ms - begin_ms : 0;
  s.depth = static_cast<std::uint32_t>(open_.size());
  spans_.push_back(std::move(s));
}

void Tracer::append_from(const Tracer& other, std::uint32_t tid,
                         SimTime ts_offset_ms, SimTime other_now) {
  for (const Span& s : other.spans_) {
    Span copy = s;
    copy.begin_ms += ts_offset_ms;
    copy.tid = tid;
    spans_.push_back(std::move(copy));
  }
  // A task that returned with spans still open (e.g. an exception path)
  // gets those spans closed at its final sim time so the trace remains
  // well-formed.
  for (const OpenSpan& o : other.open_) {
    Span s;
    s.name = o.name;
    s.category = o.category;
    s.begin_ms = o.begin_ms + ts_offset_ms;
    s.duration_ms = other_now >= o.begin_ms ? other_now - o.begin_ms : 0;
    s.tid = tid;
    spans_.push_back(std::move(s));
  }
}

void Tracer::clear() {
  spans_.clear();
  open_.clear();
}

std::string Tracer::to_chrome_json() const {
  JsonWriter w;
  w.begin_array();
  for (const Span& s : spans_) {
    w.begin_object();
    w.key("name").value(s.name);
    w.key("cat").value(s.category);
    w.key("ph").value("X");
    w.key("ts").value(s.begin_ms * 1000);      // µs
    w.key("dur").value(s.duration_ms * 1000);  // µs
    w.key("pid").value(std::uint64_t{1});
    w.key("tid").value(static_cast<std::uint64_t>(s.tid));
    w.end_object();
  }
  w.end_array();
  return std::move(w).str();
}

}  // namespace cen::obs
