#include "obs/journal.hpp"

#include "core/json.hpp"

namespace cen::obs {

void Journal::record(SimTime t_ms, std::string kind, std::string detail) {
  if (events_.size() >= cap_) {
    ++dropped_;
    return;
  }
  JournalEvent e;
  e.t_ms = t_ms;
  e.kind = std::move(kind);
  e.detail = std::move(detail);
  events_.push_back(std::move(e));
}

void Journal::append_from(const Journal& other, std::uint32_t tid,
                          SimTime ts_offset_ms) {
  for (const JournalEvent& e : other.events_) {
    if (events_.size() >= cap_) {
      ++dropped_;
      continue;
    }
    JournalEvent copy = e;
    copy.t_ms += ts_offset_ms;
    copy.tid = tid;
    events_.push_back(std::move(copy));
  }
  dropped_ += other.dropped_;
}

void Journal::clear() {
  events_.clear();
  dropped_ = 0;
}

std::string Journal::to_json() const {
  JsonWriter w;
  w.begin_object();
  w.key("events").begin_array();
  for (const JournalEvent& e : events_) {
    w.begin_object();
    w.key("t_ms").value(e.t_ms);
    w.key("kind").value(e.kind);
    w.key("detail").value(e.detail);
    w.key("tid").value(static_cast<std::uint64_t>(e.tid));
    w.end_object();
  }
  w.end_array();
  w.key("dropped").value(dropped_);
  w.end_object();
  return std::move(w).str();
}

}  // namespace cen::obs
