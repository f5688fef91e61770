// Deterministic discrete-event simulator. All protocol time in the
// repository is *simulated* microseconds; replicas run real protocol code and
// real (simulated-BLS) cryptography, while CPU and network costs advance the
// virtual clock through the cost model (DESIGN.md §3, substitution 2).
//
// Events run in exact (time, insertion order). The pending set is a timing
// wheel of one-microsecond buckets covering [now, now + kWheelSpan), plus a
// heap for the few events further out (docs/performance.md, "Host event
// core").
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/check.h"

namespace sbft::sim {

using SimTime = int64_t;  // microseconds since simulation start

class Simulator {
 public:
  Simulator() : buckets_(kWheelMask + 1) {}

  SimTime now() const { return now_; }
  uint64_t events_processed() const { return processed_; }

  void schedule(SimTime at, std::function<void()> fn) {
    SBFT_CHECK(at >= now_);
    uint32_t i = alloc(at, std::move(fn));
    if (at - now_ < kWheelSpan) {
      push_wheel(i);
    } else {
      push_far(i);
    }
  }

  void after(SimTime delay, std::function<void()> fn) {
    schedule(now_ + delay, std::move(fn));
  }

  /// Executes the next event; returns false if the queue is empty.
  bool step() {
    if (idle()) return false;
    run_next(next_time());
    return true;
  }

  /// Runs events until the clock passes `t` (events at exactly `t` run).
  void run_until(SimTime t) {
    while (!idle()) {
      SimTime at = next_time();
      if (at > t) break;
      run_next(at);
    }
    if (now_ < t) advance(t);
  }

  /// Runs until no events remain or `max_events` were processed.
  void run_until_idle(uint64_t max_events = UINT64_MAX) {
    uint64_t n = 0;
    while (n < max_events && step()) ++n;
  }

  bool idle() const { return wheel_size_ == 0 && far_.empty(); }

 private:
  // Wheel width: 2^15 us (~33 ms) covers nearly every network hop and CPU
  // charge; longer timers and WAN latencies take the far heap.
  static constexpr SimTime kWheelSpan = SimTime{1} << 15;
  static constexpr size_t kWheelMask = static_cast<size_t>(kWheelSpan - 1);
  static constexpr uint32_t kNil = UINT32_MAX;

  struct Node {
    SimTime at;
    uint64_t seq;  // tie-breaker: FIFO among same-time events
    uint32_t next;  // next node in the same bucket, or kNil
    std::function<void()> fn;
  };
  struct Bucket {
    uint32_t head = kNil;
    uint32_t tail = kNil;
  };

  uint32_t alloc(SimTime at, std::function<void()> fn) {
    uint64_t seq = next_seq_++;
    if (free_.empty()) {
      nodes_.push_back(Node{at, seq, kNil, std::move(fn)});
      return static_cast<uint32_t>(nodes_.size() - 1);
    }
    uint32_t i = free_.back();
    free_.pop_back();
    Node& n = nodes_[i];
    n.at = at;
    n.seq = seq;
    n.next = kNil;
    n.fn = std::move(fn);
    return i;
  }

  // Appends node `i` to its bucket. Every wheel event lies in
  // [now, now + kWheelSpan), so a bucket holds a single time value and its
  // FIFO order is seq order.
  void push_wheel(uint32_t i) {
    size_t b = static_cast<size_t>(nodes_[i].at) & kWheelMask;
    Bucket& bucket = buckets_[b];
    if (bucket.tail == kNil) {
      bucket.head = i;
      occupied_[b >> 6] |= uint64_t{1} << (b & 63);
    } else {
      nodes_[bucket.tail].next = i;
    }
    bucket.tail = i;
    ++wheel_size_;
  }

  // Time of the earliest pending event; the simulator must not be idle.
  SimTime next_time() const {
    if (wheel_size_ == 0) return nodes_[far_.front()].at;
    size_t start = static_cast<size_t>(now_) & kWheelMask;
    size_t w = start >> 6;
    uint64_t bits = occupied_[w] & (~uint64_t{0} << (start & 63));
    while (bits == 0) {
      w = (w + 1) % occupied_.size();
      bits = occupied_[w];
    }
    size_t b = (w << 6) + static_cast<size_t>(std::countr_zero(bits));
    return now_ + static_cast<SimTime>((b - start) & kWheelMask);
  }

  // Pops and runs the first event of time `at` (the earliest pending time).
  void run_next(SimTime at) {
    if (at != now_) advance(at);
    size_t b = static_cast<size_t>(at) & kWheelMask;
    Bucket& bucket = buckets_[b];
    uint32_t i = bucket.head;
    Node& n = nodes_[i];
    bucket.head = n.next;
    if (bucket.head == kNil) {
      bucket.tail = kNil;
      occupied_[b >> 6] &= ~(uint64_t{1} << (b & 63));
    }
    --wheel_size_;
    // The callback may schedule and so grow the slab: move it out and free
    // its node first.
    std::function<void()> fn = std::move(n.fn);
    free_.push_back(i);
    ++processed_;
    fn();
  }

  // Moves the clock to `t` and pulls every far event now inside the window
  // into its bucket, in (at, seq) order, before any callback runs.
  void advance(SimTime t);
  void push_far(uint32_t i);
  bool far_later(uint32_t a, uint32_t b) const {
    const Node& x = nodes_[a];
    const Node& y = nodes_[b];
    return x.at != y.at ? x.at > y.at : x.seq > y.seq;
  }

  std::vector<Node> nodes_;
  std::vector<uint32_t> free_;
  std::vector<Bucket> buckets_;
  std::array<uint64_t, (kWheelMask + 1) / 64> occupied_{};
  size_t wheel_size_ = 0;
  std::vector<uint32_t> far_;  // min-heap on (at, seq)
  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t processed_ = 0;
};

}  // namespace sbft::sim
