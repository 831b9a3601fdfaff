#include "object/class_info.h"

#include "util/logging.h"

namespace lp {

ClassRegistry::ClassRegistry()
{
    classes_.reserve(kMaxClasses);
}

ClassRegistry::~ClassRegistry() = default;

class_id_t
ClassRegistry::registerClass(ClassInfo info)
{
    std::lock_guard<std::mutex> lock(mutex_);
    LP_ASSERT(classes_.size() < kMaxClasses, "class id space exhausted");
    if (by_name_.count(info.name))
        fatal("duplicate class name: ", info.name);
    const auto id = static_cast<class_id_t>(classes_.size());
    info.id = id;
    if (info.hasFinalizer())
        finalizer_count_.fetch_add(1, std::memory_order_release);
    by_name_.emplace(info.name, id);
    classes_.push_back(std::make_unique<ClassInfo>(std::move(info)));
    count_.store(classes_.size(), std::memory_order_release);
    return id;
}

class_id_t
ClassRegistry::registerScalar(const std::string &name,
                              std::uint32_t num_ref_slots,
                              std::uint32_t data_bytes,
                              std::function<void(Object *)> finalizer)
{
    ClassInfo info;
    info.name = name;
    info.kind = ObjectKind::Scalar;
    info.numRefSlots = num_ref_slots;
    info.dataBytes = data_bytes;
    info.finalizer = std::move(finalizer);
    return registerClass(std::move(info));
}

class_id_t
ClassRegistry::registerRefArray(const std::string &name)
{
    ClassInfo info;
    info.name = name;
    info.kind = ObjectKind::RefArray;
    return registerClass(std::move(info));
}

class_id_t
ClassRegistry::registerByteArray(const std::string &name)
{
    ClassInfo info;
    info.name = name;
    info.kind = ObjectKind::ByteArray;
    return registerClass(std::move(info));
}

class_id_t
ClassRegistry::findByName(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = by_name_.find(name);
    return it == by_name_.end() ? kInvalidClassId : it->second;
}

std::size_t
ClassRegistry::count() const
{
    return count_.load(std::memory_order_acquire);
}

} // namespace lp
