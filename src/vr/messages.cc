#include "vr/messages.h"

namespace vsr::vr {

const char* MsgTypeName(MsgType t) {
  const char* name = "?";
  Messages::ForEach([&]<typename M>() {
    if (M::kType == t) name = M::kName;
  });
  return name;
}

}  // namespace vsr::vr
