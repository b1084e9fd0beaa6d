#include "src/chaincode/composite_key.h"

namespace fabricsim {

namespace {

void AppendEscaped(const std::string& attribute, std::string* out) {
  for (char c : attribute) {
    if (c == kCompositeKeyEsc) {
      out->push_back(kCompositeKeyEsc);
      out->push_back('e');
    } else if (c == kCompositeKeySep) {
      out->push_back(kCompositeKeyEsc);
      out->push_back('s');
    } else {
      out->push_back(c);
    }
  }
}

}  // namespace

std::string MakeCompositeKey(const std::string& object_type,
                             const std::vector<std::string>& attributes) {
  std::string key;
  key.reserve(object_type.size() + attributes.size() * 8 + 1);
  AppendEscaped(object_type, &key);
  key.push_back(kCompositeKeySep);
  for (const std::string& attribute : attributes) {
    AppendEscaped(attribute, &key);
    key.push_back(kCompositeKeySep);
  }
  return key;
}

bool SplitCompositeKey(const std::string& key, std::string* object_type,
                       std::vector<std::string>* attributes) {
  object_type->clear();
  attributes->clear();
  std::string piece;
  bool first = true;
  for (size_t i = 0; i < key.size(); ++i) {
    char c = key[i];
    if (c == kCompositeKeyEsc) {
      if (i + 1 >= key.size()) return false;  // dangling escape
      char tag = key[++i];
      if (tag == 'e') {
        piece.push_back(kCompositeKeyEsc);
      } else if (tag == 's') {
        piece.push_back(kCompositeKeySep);
      } else {
        return false;  // unknown escape
      }
    } else if (c == kCompositeKeySep) {
      if (first) {
        *object_type = piece;
        first = false;
      } else {
        attributes->push_back(piece);
      }
      piece.clear();
    } else {
      piece.push_back(c);
    }
  }
  // A well-formed composite key ends in a separator, so the final
  // piece must be empty — and the object type must have been seen.
  return piece.empty() && !first;
}

std::pair<std::string, std::string> CompositeKeyRange(
    const std::string& object_type,
    const std::vector<std::string>& partial_attributes) {
  return CompositeKeyPrefixRange(
      MakeCompositeKey(object_type, partial_attributes));
}

std::pair<std::string, std::string> CompositeKeyPrefixRange(
    std::string start) {
  // Every key extending `start` differs from `end` first at start's
  // final separator byte (SEP < SEP+1), so [start, end) contains
  // exactly the keys with this prefix — the bytes after the prefix
  // never get compared.
  std::string end = start;
  end.back() = static_cast<char>(kCompositeKeySep + 1);
  return {std::move(start), std::move(end)};
}

std::string CompositeKeyObjectType(const std::string& key) {
  std::string object_type;
  std::string piece;
  for (size_t i = 0; i < key.size(); ++i) {
    char c = key[i];
    if (c == kCompositeKeyEsc) {
      if (i + 1 >= key.size()) return "";
      char tag = key[++i];
      if (tag == 'e') {
        piece.push_back(kCompositeKeyEsc);
      } else if (tag == 's') {
        piece.push_back(kCompositeKeySep);
      } else {
        return "";
      }
    } else if (c == kCompositeKeySep) {
      return piece;
    } else {
      piece.push_back(c);
    }
  }
  return "";  // no separator: not a composite key
}

}  // namespace fabricsim
