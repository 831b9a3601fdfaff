/**
 * @file
 * Class descriptors and the class registry.
 *
 * The leak-pruning algorithm classifies heap references by the classes
 * of their source and target objects ("src class -> tgt class" edge
 * types), so every managed object carries a class id in its header and
 * the registry maps ids back to layout information and names.
 */

#ifndef LP_OBJECT_CLASS_INFO_H
#define LP_OBJECT_CLASS_INFO_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/logging.h"

namespace lp {

class Object;

/** Class id as stored in object headers. */
using class_id_t = std::uint32_t;

/** Reserved id meaning "no class" (never allocated). */
constexpr class_id_t kInvalidClassId = 0xfffff;

/** Physical layout families supported by the object model. */
enum class ObjectKind : std::uint8_t {
    Scalar,    //!< fixed number of reference slots + raw data bytes
    RefArray,  //!< length word + that many reference slots
    ByteArray, //!< length word + raw bytes (models char[]/byte[])
};

/**
 * Immutable description of one managed class.
 *
 * For Scalar classes numRefSlots/dataBytes give the exact layout; for
 * arrays the per-instance length word does. A class may carry a
 * finalizer, invoked by the collector when an instance is reclaimed
 * (including reclamation via pruning; see paper Section 2, which
 * discusses why pruning keeps running finalizers).
 */
struct ClassInfo {
    class_id_t id = kInvalidClassId;
    std::string name;
    ObjectKind kind = ObjectKind::Scalar;
    std::uint32_t numRefSlots = 0; //!< Scalar only
    std::uint32_t dataBytes = 0;   //!< Scalar only
    std::function<void(Object *)> finalizer; //!< empty = none

    bool hasFinalizer() const { return static_cast<bool>(finalizer); }
};

/**
 * Registry of all classes known to one Runtime.
 *
 * Registration is thread safe; lookup by id is wait-free after
 * registration: the descriptor vector is reserved at construction so
 * pointers and storage never move, and readers index it without
 * locking. This matters because the collector consults class layouts
 * on every object it traces.
 */
class ClassRegistry
{
  public:
    /** Upper bound on registered classes (fits the 20-bit header field). */
    static constexpr std::size_t kMaxClasses = 1u << 16;

    ClassRegistry();
    ~ClassRegistry();

    ClassRegistry(const ClassRegistry &) = delete;
    ClassRegistry &operator=(const ClassRegistry &) = delete;

    /**
     * Register a scalar class.
     *
     * @param name unique human-readable name (diagnostics, edge table).
     * @param num_ref_slots reference slots at the front of the payload.
     * @param data_bytes raw (untraced) bytes following the ref slots.
     * @param finalizer optional cleanup hook run on reclamation.
     * @return the new class id.
     */
    class_id_t registerScalar(const std::string &name,
                              std::uint32_t num_ref_slots,
                              std::uint32_t data_bytes,
                              std::function<void(Object *)> finalizer = {});

    /** Register a reference-array class (e.g. Object[]). */
    class_id_t registerRefArray(const std::string &name);

    /** Register a byte-array class (e.g. char[]). */
    class_id_t registerByteArray(const std::string &name);

    /**
     * Look up by id; ids are dense so this is an indexed load. Inline
     * because every reference read, write and allocation makes it.
     * Wait-free: the vector's storage was reserved up front, so slots
     * below the published count are stable and safe to read unlocked.
     */
    const ClassInfo &
    info(class_id_t id) const
    {
        LP_ASSERT(id < count_.load(std::memory_order_acquire),
                  "class id out of range");
        return *classes_[id];
    }

    /** Find a registered class id by name, or kInvalidClassId. */
    class_id_t findByName(const std::string &name) const;

    /** Number of registered classes. */
    std::size_t count() const;

    /**
     * Whether any registered class carries a finalizer. Wait-free;
     * lets the collector skip the finalizer scan (a full-heap walk)
     * entirely for finalizer-free workloads.
     */
    bool anyFinalizers() const
    {
        return finalizer_count_.load(std::memory_order_acquire) != 0;
    }

  private:
    class_id_t registerClass(ClassInfo info);

    mutable std::mutex mutex_;
    std::atomic<std::size_t> count_{0};
    std::atomic<std::size_t> finalizer_count_{0};
    std::vector<std::unique_ptr<ClassInfo>> classes_;
    std::unordered_map<std::string, class_id_t> by_name_;
};

} // namespace lp

#endif // LP_OBJECT_CLASS_INFO_H
