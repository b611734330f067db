#include "src/support/event_queue.h"

namespace flexrpc {

namespace {

// Kept until it is at least this long (and half the index): trimming a
// short dead prefix would move the live window more often than it saves.
constexpr size_t kMinIndexTrim = 1024;

}  // namespace

EventQueue::~EventQueue() {
  for (size_t i = index_head_; i < index_.size(); ++i) {
    if (index_[i] != kNoSlot) {
      Slot& s = SlotAt(index_[i]);
      s.ops->destroy(s.storage);
    }
  }
}

uint32_t EventQueue::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    uint32_t slot = free_head_;
    free_head_ = SlotAt(slot).next_free;
    return slot;
  }
  if (slots_used_ == chunks_.size() * kChunkSlots) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
  }
  return slots_used_++;
}

void EventQueue::ReleaseSlot(uint32_t slot) {
  Slot& s = SlotAt(slot);
  s.ops = nullptr;
  s.next_free = free_head_;
  free_head_ = slot;
}

EventQueue::EventId EventQueue::Push(uint64_t deadline_nanos, uint32_t slot) {
  EventId id = next_id_++;
  index_.push_back(slot);
  ++pending_;
  // Sift the new entry up from the last leaf.
  HeapEntry entry{deadline_nanos, id};
  size_t i = heap_.size();
  heap_.push_back(entry);
  while (i > 0) {
    size_t parent = (i - 1) / kArity;
    if (!Before(entry, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
  return id;
}

void EventQueue::PopHeap() {
  HeapEntry last = heap_.back();
  heap_.pop_back();
  size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  // Sift `last` down from the root along the earliest child.
  size_t i = 0;
  for (;;) {
    size_t first = i * kArity + 1;
    if (first >= n) {
      break;
    }
    size_t end = first + kArity < n ? first + kArity : n;
    size_t best = first;
    for (size_t c = first + 1; c < end; ++c) {
      if (Before(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (Before(last, heap_[best])) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = last;
}

uint32_t EventQueue::SlotOf(EventId id) const {
  if (id < index_base_ || id >= next_id_) {
    return kNoSlot;
  }
  return index_[id - index_base_];
}

void EventQueue::Retire(EventId id) {
  size_t pos = id - index_base_;
  index_[pos] = kNoSlot;
  --pending_;
  if (pos != index_head_) {
    return;
  }
  while (index_head_ < index_.size() && index_[index_head_] == kNoSlot) {
    ++index_head_;
  }
  if (index_head_ >= kMinIndexTrim && 2 * index_head_ >= index_.size()) {
    index_.erase(index_.begin(),
                 index_.begin() + static_cast<std::ptrdiff_t>(index_head_));
    index_base_ += index_head_;
    index_head_ = 0;
  }
}

bool EventQueue::Cancel(EventId id) {
  uint32_t slot = SlotOf(id);
  if (slot == kNoSlot) {
    return false;
  }
  // The heap entry stays behind; RunNext skips it once the id is dead.
  Retire(id);
  Slot& s = SlotAt(slot);
  s.ops->destroy(s.storage);
  ReleaseSlot(slot);
  return true;
}

bool EventQueue::RunNext() {
  while (!heap_.empty()) {
    HeapEntry top = heap_.front();
    PopHeap();
    uint32_t slot = SlotOf(top.id);
    if (slot == kNoSlot) {
      continue;  // cancelled: tombstone left in the heap
    }
    // Retire before running: the callback may schedule and cancel freely,
    // and cancelling its own id is a no-op.
    Retire(top.id);
    if (top.deadline_nanos > clock_->now_nanos()) {
      clock_->AdvanceNanos(top.deadline_nanos - clock_->now_nanos());
    }
    // Run in place, then destroy and recycle the slot, also if the
    // callback throws.
    struct Recycle {
      EventQueue* queue;
      uint32_t slot;
      ~Recycle() {
        Slot& s = queue->SlotAt(slot);
        s.ops->destroy(s.storage);
        queue->ReleaseSlot(slot);
      }
    } recycle{this, slot};
    Slot& s = SlotAt(slot);
    s.ops->run(s.storage);
    return true;
  }
  return false;
}

size_t EventQueue::RunUntilIdle(size_t max_events) {
  size_t ran = 0;
  while ((max_events == 0 || ran < max_events) && RunNext()) {
    ++ran;
  }
  return ran;
}

}  // namespace flexrpc
