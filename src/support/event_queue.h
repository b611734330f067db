// EventQueue — a deterministic discrete-event scheduler over a VirtualClock.
//
// The lossy-wire transports used to interleave retransmit timers, server
// processing, and link delays through a lockstep Send/PumpServer loop; an
// event queue makes that interleaving explicit and reproducible. Each event
// is a (deadline_nanos, id, callback) triple ordered by deadline with a
// FIFO tie-break on id, so two events due at the same instant always run
// in the order they were scheduled — the property that makes every trace
// counter of an event-driven run two-run identical.
//
// RunNext advances the clock *to* the popped event's deadline before
// invoking it. The clock never moves backwards: an event whose deadline is
// already in the past (because a model charged the clock inline after the
// event was scheduled) simply runs at the current time. Callbacks may
// schedule and cancel further events, including re-entrantly.
//
// Storage is allocation-free once warm. Callbacks live in a recycled slab
// of fixed-size slots: a callable of up to kInlineBytes is constructed in
// its slot (larger ones are boxed on the heap), run there, and destroyed
// there, so a callback's captures are never moved. A 4-ary min-heap of
// 16-byte {deadline, id} entries orders the events. EventIds are handed
// out consecutively from 1 and never reused, which keeps them usable as a
// count of everything scheduled; a dense id→slot index covering the ids
// from the oldest live one up makes Cancel O(1) and lets a stale heap
// entry (a cancelled id whose slot has since been reused) be recognised
// and skipped when popped.

#ifndef FLEXRPC_SRC_SUPPORT_EVENT_QUEUE_H_
#define FLEXRPC_SRC_SUPPORT_EVENT_QUEUE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/support/timing.h"

namespace flexrpc {

class EventQueue {
 public:
  using EventId = uint64_t;
  static constexpr EventId kInvalidEvent = 0;

  // Callables up to this size (and at most max_align_t alignment) are
  // stored inline in their slot; the call engine's own closures — two
  // 4-byte scope tags around an inner closure of at most 16 bytes, 24
  // bytes in all — fit.
  static constexpr size_t kInlineBytes = 32;

  // `clock` must outlive the queue; every event's deadline is read against
  // and applied to it.
  explicit EventQueue(VirtualClock* clock) : clock_(clock) {}
  // Destroys the callbacks of events that never ran.
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  // Schedules `fn` (any void() callable, moved or copied into the queue)
  // to run once the clock reaches `deadline_nanos`. Events with equal
  // deadlines run in scheduling order (FIFO tie-break). Ids are
  // consecutive: the n-th event ever scheduled gets id n.
  template <typename F>
  EventId ScheduleAt(uint64_t deadline_nanos, F&& fn) {
    uint32_t slot = AcquireSlot();
    Store(SlotAt(slot), std::forward<F>(fn));
    return Push(deadline_nanos, slot);
  }

  // Schedules `fn` to run `delay_nanos` after the clock's current time.
  template <typename F>
  EventId ScheduleAfter(uint64_t delay_nanos, F&& fn) {
    return ScheduleAt(clock_->now_nanos() + delay_nanos, std::forward<F>(fn));
  }

  // Cancels a pending event in O(1) and destroys its callback. Returns
  // false when the event already ran (or is running), was cancelled
  // before, or never existed.
  bool Cancel(EventId id);

  // Runs the earliest pending event, advancing the clock to its deadline
  // first (never backwards). Returns false when no event is pending.
  bool RunNext();

  // Runs events until none remain, or until `max_events` have been
  // dispatched (0 = unbounded). Returns the number dispatched.
  size_t RunUntilIdle(size_t max_events = 0);

  size_t pending() const { return pending_; }
  bool empty() const { return pending_ == 0; }
  VirtualClock* clock() { return clock_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;
  static constexpr size_t kArity = 4;
  static constexpr uint32_t kChunkShift = 8;  // 256 slots per chunk
  static constexpr uint32_t kChunkSlots = 1u << kChunkShift;

  struct CallbackOps {
    void (*run)(void* storage);
    void (*destroy)(void* storage);
  };
  template <typename Fn>
  struct InlineOps {
    static void Run(void* p) { (*std::launder(static_cast<Fn*>(p)))(); }
    static void Destroy(void* p) { std::launder(static_cast<Fn*>(p))->~Fn(); }
    static constexpr CallbackOps kOps{&Run, &Destroy};
  };
  template <typename Fn>
  struct BoxedOps {
    static Fn* Box(void* p) { return *std::launder(static_cast<Fn**>(p)); }
    static void Run(void* p) { (*Box(p))(); }
    static void Destroy(void* p) { delete Box(p); }
    static constexpr CallbackOps kOps{&Run, &Destroy};
  };

  // One callback's home. `ops` is null while the slot is free, and
  // `next_free` links the free list.
  struct Slot {
    alignas(std::max_align_t) unsigned char storage[kInlineBytes];
    const CallbackOps* ops = nullptr;
    uint32_t next_free = kNoSlot;
  };

  struct HeapEntry {
    uint64_t deadline_nanos;
    EventId id;  // monotonically increasing: doubles as the FIFO tie-break
  };
  static bool Before(const HeapEntry& a, const HeapEntry& b) {
    return a.deadline_nanos != b.deadline_nanos
               ? a.deadline_nanos < b.deadline_nanos
               : a.id < b.id;
  }

  template <typename F>
  static void Store(Slot& slot, F&& fn) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<void, Fn&>,
                  "an event callback takes no arguments");
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t)) {
      ::new (static_cast<void*>(slot.storage)) Fn(std::forward<F>(fn));
      slot.ops = &InlineOps<Fn>::kOps;
    } else {
      ::new (static_cast<void*>(slot.storage)) Fn*(new Fn(std::forward<F>(fn)));
      slot.ops = &BoxedOps<Fn>::kOps;
    }
  }

  Slot& SlotAt(uint32_t slot) {
    return chunks_[slot >> kChunkShift][slot & (kChunkSlots - 1)];
  }
  uint32_t AcquireSlot();
  void ReleaseSlot(uint32_t slot);
  EventId Push(uint64_t deadline_nanos, uint32_t slot);
  // The live slot of `id`, or kNoSlot when it ran, was cancelled, or was
  // never issued.
  uint32_t SlotOf(EventId id) const;
  // Marks `id` no longer live and trims the index past dead ids.
  void Retire(EventId id);
  void PopHeap();

  VirtualClock* clock_;
  EventId next_id_ = 1;
  size_t pending_ = 0;

  // Callback slab: fixed chunks, so a running callback's slot never moves
  // while it schedules more events.
  std::vector<std::unique_ptr<Slot[]>> chunks_;
  uint32_t slots_used_ = 0;  // slots ever handed out
  uint32_t free_head_ = kNoSlot;

  // 4-ary min-heap on (deadline, id). Cancelled events leave their entry
  // behind; RunNext skips it when SlotOf says the id is no longer live.
  std::vector<HeapEntry> heap_;

  // index_[i] is the slot of id index_base_ + i, or kNoSlot. Every id
  // below index_base_ + index_head_ is dead; the dead prefix is dropped
  // once it is at least half the vector, so the index spans the live id
  // window and costs O(1) amortized per event.
  std::vector<uint32_t> index_;
  EventId index_base_ = 1;
  size_t index_head_ = 0;
};

}  // namespace flexrpc

#endif  // FLEXRPC_SRC_SUPPORT_EVENT_QUEUE_H_
