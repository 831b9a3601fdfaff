#include "vm/handles.h"

namespace lp {

GlobalRoot::GlobalRoot(RootTable &table, Object *obj)
    : table_(table), slot_(makeRef(obj))
{
    std::lock_guard<std::mutex> lock(table_.mutex_);
    prev_ = table_.last_;
    (prev_ ? prev_->next_ : table_.first_) = this;
    table_.last_ = this;
}

GlobalRoot::~GlobalRoot()
{
    std::lock_guard<std::mutex> lock(table_.mutex_);
    (prev_ ? prev_->next_ : table_.first_) = next_;
    (next_ ? next_->prev_ : table_.last_) = prev_;
}

void
RootTable::forEachRoot(FunctionRef<void(ref_t *)> fn)
{
    threads_.forEachRoot(fn);
    std::lock_guard<std::mutex> lock(mutex_);
    for (GlobalRoot *root = first_; root; root = root->next_)
        fn(&root->slot_);
}

} // namespace lp
