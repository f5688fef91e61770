#include "sim/simulator.h"

#include <algorithm>

namespace sbft::sim {

void Simulator::push_far(uint32_t i) {
  far_.push_back(i);
  std::push_heap(far_.begin(), far_.end(),
                 [this](uint32_t a, uint32_t b) { return far_later(a, b); });
}

void Simulator::advance(SimTime t) {
  now_ = t;
  // Heap order is (at, seq) order, and no wheel event shares a time with a
  // far one, so each migrated event lands at its bucket's tail in seq order.
  while (!far_.empty() && nodes_[far_.front()].at - now_ < kWheelSpan) {
    std::pop_heap(far_.begin(), far_.end(),
                  [this](uint32_t a, uint32_t b) { return far_later(a, b); });
    uint32_t i = far_.back();
    far_.pop_back();
    push_wheel(i);
  }
}

}  // namespace sbft::sim
