/**
 * @file
 * Managed strings: a String object holding a reference to a char[]
 * payload, mirroring Java's String -> char[] pair. Several of the
 * paper's leaks are dominated by exactly this edge type (EclipseCP
 * prunes ...TextCommand -> String and DocumentEvent -> String; JbbMod
 * leaks OrderLine -> String -> char[]), so modeling the two-object
 * shape matters: pruning a reference *to* a String reclaims its
 * character array too, while the Individual-references predictor can
 * wrongly prune live String -> char[] edges.
 */

#ifndef LP_COLLECTIONS_MANAGED_STRING_H
#define LP_COLLECTIONS_MANAGED_STRING_H

#include <string>
#include <string_view>

#include "vm/runtime.h"

namespace lp {

/** Factory for one String class + its char[] class. */
class StringFactory
{
  public:
    /**
     * Register "<prefix>.String" and "<prefix>.char[]" in @p rt.
     * One factory per prefix per runtime.
     */
    StringFactory(Runtime &rt, const std::string &prefix);

    /** Allocate a managed string holding @p text. */
    Object *create(std::string_view text);

    /** Allocate a managed string of @p length filler characters. */
    Object *createFilled(std::size_t length, char fill = 'x');

    /** Read the text back (through the read barrier). */
    std::string text(Object *str);

    /** Length without touching the char[] (data field on String). */
    std::size_t length(Runtime &rt, Object *str) const;

  private:
    Runtime &rt_;
    class_id_t string_cls_;
    class_id_t chars_cls_;
};

} // namespace lp

#endif // LP_COLLECTIONS_MANAGED_STRING_H
