#ifndef FABRICSIM_CHAINCODE_COMPOSITE_KEY_H_
#define FABRICSIM_CHAINCODE_COMPOSITE_KEY_H_

#include <string>
#include <utility>
#include <vector>

namespace fabricsim {

/// Composite keys, mirroring Fabric's CreateCompositeKey /
/// SplitCompositeKey shim helpers: a typed key assembled from an
/// object type plus an ordered attribute list, laid out so that
/// lexicographic key order (what GetStateByRange sees) equals
/// attribute-tuple order, and so that a partial attribute list is an
/// exact string prefix of every key that extends it.
///
/// Layout:
///   objectType SEP attr1 SEP attr2 SEP ... attrN SEP
///
/// SEP is 0x1f (ASCII unit separator; Fabric uses U+0000, which would
/// truncate every %s diagnostic in this codebase). The trailing SEP
/// after every attribute is what makes prefix scans exact: the range
/// for ("ORDER", {w}) is [..w SEP, ..w SEP+1), which contains
/// ("ORDER", {w, o}) for every o but not ("ORDER", {w2}) for any
/// w2 != w sharing a digit prefix.
///
/// Separator escaping: attributes may contain arbitrary bytes. The
/// two reserved bytes are escaped as two-byte sequences
///   0x1e (ESC) -> ESC 'e'        0x1f (SEP) -> ESC 's'
/// which makes MakeCompositeKey / SplitCompositeKey a lossless round
/// trip for every input. CAVEAT (documented contract, unit-tested):
/// escaping preserves range-scan ordering only for attributes free of
/// the reserved bytes — an attribute containing a raw SEP sorts by its
/// escaped form. Every key builder in this repository uses plain
/// alphanumeric attributes, where order is exact.
constexpr char kCompositeKeySep = '\x1f';
constexpr char kCompositeKeyEsc = '\x1e';

/// Assembles a composite key. Never fails: reserved bytes in
/// attributes are escaped (see above).
std::string MakeCompositeKey(const std::string& object_type,
                             const std::vector<std::string>& attributes);

/// Splits a composite key back into (object_type, attributes),
/// undoing the escaping. Returns false when `key` is not a
/// well-formed composite key (missing trailing separator or a
/// dangling escape byte); outputs are unspecified then.
bool SplitCompositeKey(const std::string& key, std::string* object_type,
                       std::vector<std::string>* attributes);

/// Half-open [start, end) range covering exactly the composite keys
/// whose object type matches and whose first attributes equal
/// `partial_attributes` (Fabric's GetStateByPartialCompositeKey).
/// Pass an empty list to cover the whole object type.
std::pair<std::string, std::string> CompositeKeyRange(
    const std::string& object_type,
    const std::vector<std::string>& partial_attributes);

/// The same range for a prefix already built in composite-key layout
/// (ending in the separator), e.g. by a table's own key builder.
std::pair<std::string, std::string> CompositeKeyPrefixRange(
    std::string start);

/// Object type of a composite key ("" when `key` has none) — the
/// cheap classifier used for per-entity failure attribution: which
/// table does a conflicting key belong to.
std::string CompositeKeyObjectType(const std::string& key);

}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_COMPOSITE_KEY_H_
