#include "gc/edge_table.h"

#include "util/bits.h"
#include "util/hash.h"
#include "util/logging.h"

namespace lp {

EdgeTable::EdgeTable(std::size_t slots)
    : slots_(slots), mask_(slots - 1), table_(new Slot[slots]),
      occupied_(new std::atomic<std::uint32_t>[slots])
{
    LP_ASSERT(isPowerOfTwo(slots), "edge table slot count must be 2^n");
    for (std::size_t i = 0; i < slots_; ++i) {
        table_[i].key.store(kEmptyKey, std::memory_order_relaxed);
        table_[i].maxStaleUse.store(0, std::memory_order_relaxed);
        table_[i].bytesUsed.store(0, std::memory_order_relaxed);
        occupied_[i].store(kUnpublished, std::memory_order_relaxed);
    }
}

EdgeTable::~EdgeTable() = default;

EdgeTable::Slot *
EdgeTable::lookup(std::uint64_t key, bool insert) const
{
    std::size_t idx = static_cast<std::size_t>(
                          hashPair(static_cast<std::uint32_t>(key >> 32),
                                   static_cast<std::uint32_t>(key))) &
                      mask_;
    for (std::size_t probes = 0; probes < slots_; ++probes) {
        Slot &slot = table_[idx];
        std::uint64_t cur = slot.key.load(std::memory_order_acquire);
        if (cur == key)
            return &slot;
        if (cur == kEmptyKey) {
            if (!insert)
                return nullptr;
            // Claim the empty slot; on a racing insert of the same
            // key, fall through to use the winner's slot.
            if (slot.key.compare_exchange_strong(cur, key,
                                                 std::memory_order_acq_rel)) {
                const std::size_t pos =
                    count_.fetch_add(1, std::memory_order_acq_rel);
                occupied_[pos].store(static_cast<std::uint32_t>(idx),
                                     std::memory_order_release);
                return &slot;
            }
            if (cur == key)
                return &slot;
            // A different key won this slot: keep probing.
        }
        idx = (idx + 1) & mask_;
    }
    return nullptr; // table full: stop recording new edge types
}

void
EdgeTable::recordUse(EdgeType type, unsigned stale_counter)
{
    if (stale_counter < 2)
        return; // "1" is barely stale; the paper ignores it
    Slot *slot = lookup(packKey(type), true);
    if (!slot)
        return;
    std::uint64_t cur = slot->maxStaleUse.load(std::memory_order_relaxed);
    while (cur < stale_counter &&
           !slot->maxStaleUse.compare_exchange_weak(cur, stale_counter,
                                                    std::memory_order_relaxed)) {
    }
}

unsigned
EdgeTable::maxStaleUse(EdgeType type) const
{
    const Slot *slot = lookup(packKey(type), false);
    return slot
        ? static_cast<unsigned>(slot->maxStaleUse.load(std::memory_order_relaxed))
        : 0;
}

void
EdgeTable::chargeBytes(EdgeType type, std::uint64_t bytes)
{
    Slot *slot = lookup(packKey(type), true);
    if (slot)
        slot->bytesUsed.fetch_add(bytes, std::memory_order_relaxed);
}

std::optional<EdgeEntrySnapshot>
EdgeTable::selectMaxBytesAndReset()
{
    std::optional<EdgeEntrySnapshot> best;
    forEachSlot([&](Slot &slot) {
        const std::uint64_t bytes =
            slot.bytesUsed.exchange(0, std::memory_order_relaxed);
        const std::uint64_t key = slot.key.load(std::memory_order_relaxed);
        if (bytes > 0 &&
            (!best || bytes > best->bytesUsed ||
             (bytes == best->bytesUsed && key < packKey(best->type)))) {
            best = EdgeEntrySnapshot{
                unpackKey(key),
                static_cast<unsigned>(
                    slot.maxStaleUse.load(std::memory_order_relaxed)),
                bytes};
        }
    });
    return best;
}

void
EdgeTable::decayMaxStaleUse()
{
    forEachSlot([](Slot &slot) {
        std::uint64_t cur = slot.maxStaleUse.load(std::memory_order_relaxed);
        while (cur > 0 &&
               !slot.maxStaleUse.compare_exchange_weak(
                   cur, cur - 1, std::memory_order_relaxed)) {
        }
    });
}

void
EdgeTable::forEach(const std::function<void(const EdgeEntrySnapshot &)> &fn) const
{
    forEachSlot([&](Slot &slot) {
        fn(EdgeEntrySnapshot{
            unpackKey(slot.key.load(std::memory_order_acquire)),
            static_cast<unsigned>(
                slot.maxStaleUse.load(std::memory_order_relaxed)),
            slot.bytesUsed.load(std::memory_order_relaxed)});
    });
}

} // namespace lp
