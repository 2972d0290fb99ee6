#include "simcore/trace.h"

#include <algorithm>
#include <utility>

namespace elastic::simcore {

void Trace::Add(Tick tick, std::string kind, int64_t a, int64_t b, std::string text) {
  TraceEvent e;
  e.tick = tick;
  e.kind = std::move(kind);
  e.a = a;
  e.b = b;
  e.text = std::move(text);
  events_.push_back(std::move(e));
}

void Trace::DropOldest(size_t count) {
  events_.erase(events_.begin(),
                events_.begin() + static_cast<long>(std::min(count, events_.size())));
}

std::vector<TraceEvent> Trace::EventsOfKind(const std::string& kind) const {
  std::vector<TraceEvent> out;
  for (const TraceEvent& e : events_) {
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

}  // namespace elastic::simcore
