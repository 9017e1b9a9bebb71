#include "vr/events.h"

namespace vsr::vr {

const char* EventTypeName(EventType t) {
  const auto i = static_cast<std::size_t>(t);
  return i < std::size(kEventTypeNames) ? kEventTypeNames[i] : "?";
}

std::string EventRecord::ToString() const {
  std::string s = EventTypeName(type);
  s += "@" + std::to_string(ts);
  if (type != EventType::kNewView) s += " " + sub_aid.ToString();
  if (type == EventType::kNewView) s += " " + view.ToString();
  return s;
}

}  // namespace vsr::vr
