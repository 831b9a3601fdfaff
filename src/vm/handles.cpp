#include "vm/handles.h"

namespace lp {

HandleScope::HandleScope(RootTable &table) : table_(table)
{
    table_.registerScope(this);
}

HandleScope::~HandleScope()
{
    table_.unregisterScope(this);
}

Handle
HandleScope::handle(Object *obj)
{
    slots_.push_back(makeRef(obj));
    return Handle(&slots_.back());
}

GlobalRoot::GlobalRoot(RootTable &table, Object *obj)
    : table_(table), slot_(makeRef(obj))
{
    table_.registerGlobal(this);
}

GlobalRoot::~GlobalRoot()
{
    table_.unregisterGlobal(this);
}

void
RootTable::registerScope(HandleScope *scope)
{
    std::lock_guard<std::mutex> lock(mutex_);
    scopes_.insert(scope);
}

void
RootTable::unregisterScope(HandleScope *scope)
{
    std::lock_guard<std::mutex> lock(mutex_);
    scopes_.erase(scope);
}

void
RootTable::registerGlobal(GlobalRoot *root)
{
    std::lock_guard<std::mutex> lock(mutex_);
    globals_.insert(root);
}

void
RootTable::unregisterGlobal(GlobalRoot *root)
{
    std::lock_guard<std::mutex> lock(mutex_);
    globals_.erase(root);
}

void
RootTable::forEachRoot(FunctionRef<void(ref_t *)> fn)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (HandleScope *scope : scopes_)
        scope->forEachSlot(fn);
    for (GlobalRoot *root : globals_)
        fn(root->slot());
}

std::size_t
RootTable::scopeCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return scopes_.size();
}

std::size_t
RootTable::globalCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return globals_.size();
}

} // namespace lp
