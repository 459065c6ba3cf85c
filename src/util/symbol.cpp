#include "util/symbol.hpp"

#include <array>
#include <atomic>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "util/bytes.hpp"

namespace libspector::util {

namespace {
constexpr std::size_t kChunkShift = 10;
constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;  // entries
constexpr std::size_t kMaxChunks = 4096;  // 4M symbols per pool
constexpr std::size_t kInitialTableSize = 256;  // power of two
}  // namespace

struct SymbolPool::State {
  /// Open-addressing table of published entries. Slots transition once,
  /// nullptr -> entry (release store), and are never rewritten; a full
  /// rebuilt table is published atomically through `table`. Readers that
  /// race a growth may probe a stale table and miss a fresh entry — they
  /// fall through to the mutex path, which re-probes authoritatively.
  struct Table {
    explicit Table(std::size_t capacity)
        : mask(capacity - 1),
          slots(std::make_unique<std::atomic<const Symbol::Entry*>[]>(capacity)) {
      for (std::size_t i = 0; i < capacity; ++i)
        slots[i].store(nullptr, std::memory_order_relaxed);
    }
    std::size_t mask;
    std::unique_ptr<std::atomic<const Symbol::Entry*>[]> slots;
  };

  std::mutex writeMutex;
  /// Count released after the entry is fully written but *before* its
  /// table slot is published: at(id < size()) always reads a constructed
  /// entry, and a thread that finds a symbol lock-free through the table
  /// also sees size() and at() cover its id.
  std::atomic<std::size_t> count{0};
  std::atomic<std::size_t> textBytes{0};
  std::array<std::atomic<Symbol::Entry*>, kMaxChunks> chunks{};
  std::atomic<Table*> table{nullptr};
  /// Every table ever published (readers may still hold a stale pointer),
  /// freed only with the pool. Guarded by writeMutex.
  std::vector<std::unique_ptr<Table>> tables;

  State() {
    auto first = std::make_unique<Table>(kInitialTableSize);
    table.store(first.get(), std::memory_order_release);
    tables.push_back(std::move(first));
  }

  ~State() {
    // Chunks are allocated densely in id order; the first null ends them.
    for (auto& slot : chunks) {
      Symbol::Entry* chunk = slot.load(std::memory_order_relaxed);
      if (chunk == nullptr) break;
      delete[] chunk;
    }
  }

  /// Probe `t` for `text`; nullptr slot ends the probe. Lock-free.
  [[nodiscard]] static const Symbol::Entry* probe(const Table& t,
                                                  std::uint64_t hash,
                                                  std::string_view text) noexcept {
    for (std::size_t i = hash & t.mask;; i = (i + 1) & t.mask) {
      const Symbol::Entry* entry = t.slots[i].load(std::memory_order_acquire);
      if (entry == nullptr) return nullptr;
      if (entry->text == text) return entry;
    }
  }

  /// Insert into `t` at the first free slot. Requires writeMutex held and
  /// `text` known absent.
  static void insert(Table& t, std::uint64_t hash, const Symbol::Entry* entry) {
    for (std::size_t i = hash & t.mask;; i = (i + 1) & t.mask) {
      if (t.slots[i].load(std::memory_order_relaxed) == nullptr) {
        t.slots[i].store(entry, std::memory_order_release);
        return;
      }
    }
  }

  /// Requires writeMutex held.
  void growLocked(std::size_t entries) {
    Table* current = table.load(std::memory_order_relaxed);
    auto grown = std::make_unique<Table>((current->mask + 1) * 2);
    for (std::size_t id = 0; id < entries; ++id) {
      Symbol::Entry* entry =
          &chunks[id >> kChunkShift].load(std::memory_order_relaxed)
              [id & (kChunkSize - 1)];
      insert(*grown, fnv1a64(entry->text), entry);
    }
    table.store(grown.get(), std::memory_order_release);
    tables.push_back(std::move(grown));
  }
};

SymbolPool::SymbolPool() : state_(std::make_unique<State>()) {}
SymbolPool::~SymbolPool() = default;
SymbolPool::SymbolPool(SymbolPool&&) noexcept = default;
SymbolPool& SymbolPool::operator=(SymbolPool&&) noexcept = default;

Symbol SymbolPool::intern(std::string_view text) {
  State& s = *state_;
  const std::uint64_t hash = fnv1a64(text);

  // Fast path: lock-free probe of the current table.
  {
    const State::Table* t = s.table.load(std::memory_order_acquire);
    if (const Symbol::Entry* entry = State::probe(*t, hash, text))
      return Symbol(entry);
  }

  const std::scoped_lock lock(s.writeMutex);
  State::Table* t = s.table.load(std::memory_order_relaxed);
  if (const Symbol::Entry* entry = State::probe(*t, hash, text))
    return Symbol(entry);  // lost the race to another writer

  const std::size_t id = s.count.load(std::memory_order_relaxed);
  const std::size_t chunkIndex = id >> kChunkShift;
  if (chunkIndex >= kMaxChunks)
    throw std::length_error("SymbolPool: symbol capacity exhausted");
  Symbol::Entry* chunk = s.chunks[chunkIndex].load(std::memory_order_relaxed);
  if (chunk == nullptr) {
    chunk = new Symbol::Entry[kChunkSize];
    s.chunks[chunkIndex].store(chunk, std::memory_order_release);
  }
  Symbol::Entry* entry = &chunk[id & (kChunkSize - 1)];
  entry->text.assign(text);
  entry->id = static_cast<std::uint32_t>(id);
  s.textBytes.fetch_add(text.size(), std::memory_order_relaxed);
  s.count.store(id + 1, std::memory_order_release);
  State::insert(*t, hash, entry);
  // Keep the load factor under ~3/4 so probes stay short.
  if ((id + 1) * 4 >= (t->mask + 1) * 3) s.growLocked(id + 1);
  return Symbol(entry);
}

Symbol SymbolPool::find(std::string_view text) const noexcept {
  const State& s = *state_;
  const State::Table* t = s.table.load(std::memory_order_acquire);
  return Symbol(State::probe(*t, fnv1a64(text), text));
}

Symbol SymbolPool::at(std::uint32_t id) const noexcept {
  const State& s = *state_;
  if (id >= s.count.load(std::memory_order_acquire)) return Symbol{};
  const Symbol::Entry* chunk =
      s.chunks[id >> kChunkShift].load(std::memory_order_acquire);
  if (chunk == nullptr) return Symbol{};
  return Symbol(&chunk[id & (kChunkSize - 1)]);
}

std::size_t SymbolPool::size() const noexcept {
  return state_->count.load(std::memory_order_acquire);
}

std::size_t SymbolPool::textBytes() const noexcept {
  return state_->textBytes.load(std::memory_order_relaxed);
}

}  // namespace libspector::util
