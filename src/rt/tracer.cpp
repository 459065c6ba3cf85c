#include "rt/tracer.hpp"

namespace libspector::rt {

RingBufferTracer::RingBufferTracer(std::size_t capacity) : capacity_(capacity) {
  buffer_.reserve(capacity);
}

void RingBufferTracer::onMethodEntry(std::string_view signature) {
  if (buffer_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  buffer_.emplace_back(signature);
}

std::vector<std::string> RingBufferTracer::traceFile() const { return buffer_; }

std::uint32_t UniqueMethodTracer::record(std::string_view signature) {
  if (const auto it = positions_.find(signature); it != positions_.end())
    return it->second;
  const auto position = static_cast<std::uint32_t>(order_.size());
  // Map nodes never move, so the view stays valid as the map grows.
  order_.push_back(positions_.emplace(signature, position).first->first);
  return position;
}

void UniqueMethodTracer::onMethodEntry(std::string_view signature) {
  ++totalEntries_;
  record(signature);
}

void UniqueMethodTracer::onAppMethodEntry(MethodId id,
                                          std::string_view signature) {
  ++totalEntries_;
  if (id >= slotById_.size()) slotById_.resize(id + std::size_t{1}, kNoSlot);
  std::uint32_t& slot = slotById_[id];
  if (slot != kNoSlot && order_[slot] == signature) return;
  slot = record(signature);
}

std::vector<std::string> UniqueMethodTracer::traceFile() const {
  return {order_.begin(), order_.end()};
}

}  // namespace libspector::rt
