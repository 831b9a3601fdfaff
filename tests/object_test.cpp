/**
 * @file
 * Unit tests for the object model: header bit packing, stale counter,
 * mark/claim protocol, tagged reference words, class registry.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "object/class_info.h"
#include "object/object.h"
#include "object/ref.h"

namespace lp {
namespace {

TEST(RefTest, TagBitRoundTrip)
{
    alignas(8) unsigned char backing[64] = {};
    auto *obj = reinterpret_cast<Object *>(backing);
    const ref_t clean = makeRef(obj);

    EXPECT_FALSE(refHasStaleCheck(clean));
    EXPECT_FALSE(refIsPoisoned(clean));
    EXPECT_EQ(refTarget(clean), obj);

    const ref_t tagged = refWithStaleCheck(clean);
    EXPECT_TRUE(refHasStaleCheck(tagged));
    EXPECT_FALSE(refIsPoisoned(tagged));
    EXPECT_EQ(refTarget(tagged), obj);

    const ref_t poisoned = refPoisoned(clean);
    EXPECT_TRUE(refIsPoisoned(poisoned));
    EXPECT_TRUE(refHasStaleCheck(poisoned)) << "poison implies both bits";
    EXPECT_EQ(refTarget(poisoned), obj);

    EXPECT_EQ(refClean(poisoned), clean);
}

TEST(RefTest, NullStaysNull)
{
    EXPECT_TRUE(refIsNull(0));
    EXPECT_EQ(refTarget(0), nullptr);
    EXPECT_EQ(refWithStaleCheck(0), ref_t{0}) << "null is never tagged";
}

TEST(ObjectTest, HeaderFieldsIndependent)
{
    alignas(8) unsigned char backing[128] = {};
    Object *obj = Object::format(backing, 777, 128);

    EXPECT_EQ(obj->classId(), 777u);
    EXPECT_EQ(obj->sizeBytes(), 128u);
    EXPECT_EQ(obj->staleCounter(), 0u);
    EXPECT_FALSE(obj->pinned());
    EXPECT_FALSE(obj->finalizerEnqueued());

    obj->setStaleCounter(5);
    EXPECT_EQ(obj->staleCounter(), 5u);
    EXPECT_EQ(obj->classId(), 777u) << "stale counter must not clobber class";

    obj->setPinned(true);
    EXPECT_TRUE(obj->pinned());
    obj->tickStaleCounter(kMaxStaleCounter, 1);
    EXPECT_EQ(obj->staleCounter(), 6u);
    EXPECT_TRUE(obj->pinned());
    EXPECT_TRUE(obj->tryEnqueueFinalizer());
    EXPECT_FALSE(obj->tryEnqueueFinalizer()) << "second claim must fail";
    EXPECT_TRUE(obj->pinned());
    EXPECT_EQ(obj->staleCounter(), 6u);
    EXPECT_EQ(obj->classId(), 777u);
    EXPECT_EQ(obj->sizeBytes(), 128u);

    obj->clearStaleCounter();
    EXPECT_EQ(obj->staleCounter(), 0u);
}

TEST(ObjectTest, StaleCounterSaturatesAtSeven)
{
    alignas(8) unsigned char backing[64] = {};
    Object *obj = Object::format(backing, 1, 64);
    obj->setStaleCounter(kMaxStaleCounter);
    EXPECT_EQ(obj->staleCounter(), 7u);
}

TEST(ObjectTest, StaleTickRaisesOnlyCountersBelowTheLimit)
{
    alignas(8) unsigned char backing[64] = {};
    Object *obj = Object::format(backing, 9, 64);
    obj->setStaleCounter(2);

    obj->tickStaleCounter(3, 1);
    EXPECT_EQ(obj->staleCounter(), 3u) << "2 < 3: tick";
    obj->tickStaleCounter(3, 2);
    EXPECT_EQ(obj->staleCounter(), 3u) << "3 is not below 3: no tick";
    obj->tickStaleCounter(0, 3);
    EXPECT_EQ(obj->staleCounter(), 3u) << "limit 0: never ticks";

    obj->setStaleCounter(kMaxStaleCounter);
    obj->tickStaleCounter(kMaxStaleCounter, 4);
    EXPECT_EQ(obj->staleCounter(), kMaxStaleCounter) << "saturates";
    EXPECT_EQ(obj->classId(), 9u);
    EXPECT_EQ(obj->sizeBytes(), 64u);
}

TEST(ObjectTest, StaleCounterAtStartIgnoresOnlyThisCollectionsTick)
{
    alignas(8) unsigned char backing[64] = {};
    Object *obj = Object::format(backing, 9, 64);
    obj->setStaleCounter(1);
    obj->setPinned(true);

    // Collection 6 ticks 1 -> 2; until it ends, decisions read 1.
    EXPECT_EQ(obj->staleCounterAtStart(6), 1u) << "not visited yet";
    obj->tickStaleCounter(2, 6);
    EXPECT_EQ(obj->staleCounter(), 2u);
    EXPECT_EQ(obj->staleCounterAtStart(6), 1u) << "visited: its tick undone";
    EXPECT_TRUE(obj->tickedIn(6));

    // Collection 7 has the other parity: 6's stamp is not its tick,
    // and the visit, which does not tick, clears the stamp.
    EXPECT_EQ(obj->staleCounterAtStart(7), 2u);
    obj->tickStaleCounter(1, 7);
    EXPECT_EQ(obj->staleCounter(), 2u);
    EXPECT_FALSE(obj->tickedIn(6) || obj->tickedIn(7));
    EXPECT_EQ(obj->staleCounterAtStart(8), 2u) << "no stamp left for 8";

    // A barrier reset between collections leaves a stamp the next
    // collection ignores.
    obj->tickStaleCounter(3, 8);
    obj->clearStaleCounter();
    EXPECT_EQ(obj->staleCounterAtStart(9), 0u);
    EXPECT_TRUE(obj->pinned());
    EXPECT_EQ(obj->classId(), 9u);
}

TEST(ObjectTest, MutatorHeaderWritesAreNotLost)
{
    // Mutators race on the header outside collection pauses: the read
    // barrier's clearStaleCounter stores zero into the stale byte, and
    // pinning sets or clears the pinned bit with a locked or/and on the
    // flags byte. The two bytes are apart, so no write undoes another
    // or disturbs the collector-owned finalizer bit. One thread owns
    // each field, so after every write its owner must read back
    // exactly what it wrote.
    alignas(8) unsigned char backing[64] = {};
    Object *obj = Object::format(backing, 777, 64);
    ASSERT_TRUE(obj->tryEnqueueFinalizer());

    constexpr int kRounds = 200000;
    std::atomic<int> lost{0};
    std::thread stale([&] {
        for (int i = 0; i < kRounds; ++i) {
            const unsigned k = 1 + static_cast<unsigned>(i) % kMaxStaleCounter;
            obj->setStaleCounter(k);
            if (obj->staleCounter() != k)
                lost.fetch_add(1);
            obj->clearStaleCounter();
            if (obj->staleCounter() != 0)
                lost.fetch_add(1);
        }
    });
    std::thread pin([&] {
        for (int i = 0; i < kRounds; ++i) {
            obj->setPinned(true);
            if (!obj->pinned())
                lost.fetch_add(1);
            obj->setPinned(false);
            if (obj->pinned())
                lost.fetch_add(1);
        }
    });
    stale.join();
    pin.join();

    EXPECT_EQ(lost.load(), 0);
    EXPECT_EQ(obj->staleCounter(), 0u);
    EXPECT_FALSE(obj->pinned());
    EXPECT_TRUE(obj->finalizerEnqueued());
    EXPECT_EQ(obj->classId(), 777u);
}

TEST(ObjectTest, ScalarLayoutAndSlots)
{
    ClassRegistry reg;
    const class_id_t cls = reg.registerScalar("Pair", 2, 16);
    const ClassInfo &info = reg.info(cls);

    const std::size_t size = Object::scalarSize(info);
    EXPECT_EQ(size, Object::kHeaderBytes + 2 * kWordBytes + 16);

    std::vector<unsigned char> backing(size + 8);
    void *aligned = backing.data() +
        (8 - reinterpret_cast<word_t>(backing.data()) % 8) % 8;
    Object *obj = Object::format(aligned, cls, size);

    EXPECT_EQ(obj->refSlotCount(info), 2u);
    *obj->refSlotAddr(info, 0) = 0xdead0;
    *obj->refSlotAddr(info, 1) = 0xbeef0;
    EXPECT_EQ(*obj->refSlotAddr(info, 0), ref_t{0xdead0});
    EXPECT_NE(obj->refSlotAddr(info, 0), obj->refSlotAddr(info, 1));

    int count = 0;
    obj->forEachRefSlot(info, [&](ref_t *) { ++count; });
    EXPECT_EQ(count, 2);
}

TEST(ObjectTest, RefArrayLayout)
{
    ClassRegistry reg;
    const class_id_t cls = reg.registerRefArray("Object[]");
    const ClassInfo &info = reg.info(cls);

    const std::size_t size = Object::refArraySize(5);
    std::vector<unsigned char> backing(size + 8);
    void *aligned = backing.data() +
        (8 - reinterpret_cast<word_t>(backing.data()) % 8) % 8;
    Object *obj = Object::format(aligned, cls, size);
    obj->setArrayLength(5);

    EXPECT_EQ(obj->arrayLength(), 5u);
    EXPECT_EQ(obj->refSlotCount(info), 5u);
    int count = 0;
    obj->forEachRefSlot(info, [&](ref_t *slot) {
        EXPECT_EQ(*slot, ref_t{0}) << "format() must zero the payload";
        ++count;
    });
    EXPECT_EQ(count, 5);
}

TEST(ObjectTest, ByteArrayHasNoRefSlots)
{
    ClassRegistry reg;
    const class_id_t cls = reg.registerByteArray("char[]");
    const ClassInfo &info = reg.info(cls);

    const std::size_t size = Object::byteArraySize(100);
    std::vector<unsigned char> backing(size + 8);
    void *aligned = backing.data() +
        (8 - reinterpret_cast<word_t>(backing.data()) % 8) % 8;
    Object *obj = Object::format(aligned, cls, size);
    obj->setArrayLength(100);

    EXPECT_EQ(obj->refSlotCount(info), 0u);
    obj->bytePtr()[99] = 42;
    EXPECT_EQ(obj->bytePtr()[99], 42);
}

TEST(ClassRegistryTest, RegistersAndLooksUp)
{
    ClassRegistry reg;
    const class_id_t a = reg.registerScalar("A", 1, 0);
    const class_id_t b = reg.registerScalar("B", 0, 8);
    EXPECT_NE(a, b);
    EXPECT_EQ(reg.info(a).name, "A");
    EXPECT_EQ(reg.info(b).dataBytes, 8u);
    EXPECT_EQ(reg.findByName("A"), a);
    EXPECT_EQ(reg.findByName("missing"), kInvalidClassId);
    EXPECT_EQ(reg.count(), 2u);
}

TEST(ClassRegistryTest, FinalizerStored)
{
    ClassRegistry reg;
    int calls = 0;
    const class_id_t cls =
        reg.registerScalar("F", 0, 0, [&](Object *) { ++calls; });
    EXPECT_TRUE(reg.info(cls).hasFinalizer());
    reg.info(cls).finalizer(nullptr);
    EXPECT_EQ(calls, 1);
}

TEST(ClassRegistryTest, ConcurrentRegistrationIsSafe)
{
    ClassRegistry reg;
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&, t] {
            for (int i = 0; i < 50; ++i) {
                // Appended piece by piece: GCC 12 at -O3 warns
                // (-Wrestrict) on the chained operator+ form.
                std::string name = "T";
                name += std::to_string(t);
                name += '_';
                name += std::to_string(i);
                reg.registerScalar(name, 1, 8);
            }
        });
    }
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(reg.count(), 200u);
    // Every id must resolve to a distinct descriptor.
    for (class_id_t id = 0; id < 200; ++id)
        EXPECT_EQ(reg.info(id).id, id);
}

} // namespace
} // namespace lp
