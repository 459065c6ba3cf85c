#include "spectord/connection.hpp"

namespace libspector::spectord {

std::size_t Connection::pumpRead() {
  if (closed_) return 0;
  readScratch_.clear();
  const std::size_t got = endpoint_.readSome(readScratch_);
  if (got != 0) parser_.feed(readScratch_);
  return got;
}

void Connection::sendControl(FrameType type,
                             std::span<const std::uint8_t> body) {
  if (closed_) return;
  auto frame = encodeFrame(type, body);
  queuedBytes_ += frame.size();
  queue_.push_back(std::move(frame));
}

bool Connection::sendDelta(std::span<const std::uint8_t> body) {
  if (closed_) return false;
  // The budget counts what the subscriber's channel has not accepted yet,
  // so hand it what it will take first (the queue stays in order). A
  // subscriber that keeps up always has an empty queue here, and a delta
  // into an empty queue is never dropped, however large.
  flushWrites();
  auto frame = encodeFrame(FrameType::Delta, body);
  if (!queue_.empty() && queuedBytes_ + frame.size() > writeQueueBudget_)
    return false;
  queuedBytes_ += frame.size();
  queue_.push_back(std::move(frame));
  return true;
}

bool Connection::flushWrites() {
  bool progressed = false;
  while (!closed_ && !queue_.empty()) {
    const auto& front = queue_.front();
    const std::span<const std::uint8_t> rest(front.data() + frontOffset_,
                                             front.size() - frontOffset_);
    const std::size_t wrote = endpoint_.tryWrite(rest);
    if (wrote == 0) break;
    progressed = true;
    frontOffset_ += wrote;
    queuedBytes_ -= wrote;
    if (frontOffset_ == front.size()) {
      queue_.pop_front();
      frontOffset_ = 0;
    }
  }
  return progressed;
}

void Connection::close() {
  if (closed_) return;
  closed_ = true;
  queuedBytes_ = 0;
  queue_.clear();
  frontOffset_ = 0;
  endpoint_.close();
}

}  // namespace libspector::spectord
