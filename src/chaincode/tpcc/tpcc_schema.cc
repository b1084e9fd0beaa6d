#include "src/chaincode/tpcc/tpcc_schema.h"

#include <algorithm>
#include <charconv>

#include "src/chaincode/composite_key.h"
#include "src/chaincode/tpcc/exact_string.h"

namespace fabricsim {
namespace tpcc {

// Pad widths chosen so the simulator-scale defaults never overflow a
// column (and a 10^8 order counter outlasts any feasible run length).
namespace {
constexpr int kWPad = 4;
constexpr int kDPad = 2;
constexpr int kCPad = 5;
constexpr int kOPad = 8;
constexpr int kLPad = 2;
constexpr int kIPad = 5;

/// One zero-padded attribute of a composite key: the value's digits
/// (converted to uint64_t exactly as PadKey's parameter converts them)
/// and its pad width.
struct Attr {
  uint64_t value;
  int width;
};

/// The composite key `table SEP attr SEP ...` (MakeCompositeKey's
/// layout; digits and table names never need its escaping), built in
/// one exact-size allocation.
template <size_t N>
std::string Key(std::string_view table, const Attr (&attrs)[N]) {
  return BuildExactString([&](auto& out) {
    const std::string_view sep(&kCompositeKeySep, 1);
    out.Put(table);
    out.Put(sep);
    for (const Attr& attr : attrs) {
      out.Padded(attr.value, attr.width);
      out.Put(sep);
    }
  });
}

uint64_t U(long long value) { return static_cast<uint64_t>(value); }

}  // namespace

std::string WarehouseKey(int w) {
  return Key(kWarehouseTable, {{U(w), kWPad}});
}

std::string DistrictKey(int w, int d) {
  return Key(kDistrictTable, {{U(w), kWPad}, {U(d), kDPad}});
}

std::string CustomerKey(int w, int d, int c) {
  return Key(kCustomerTable, {{U(w), kWPad}, {U(d), kDPad}, {U(c), kCPad}});
}

std::string OrderKey(int w, int d, int o) {
  return Key(kOrderTable, {{U(w), kWPad}, {U(d), kDPad}, {U(o), kOPad}});
}

std::string NewOrderKey(int w, int d, int o) {
  return Key(kNewOrderTable, {{U(w), kWPad}, {U(d), kDPad}, {U(o), kOPad}});
}

std::string OrderLineKey(int w, int d, int o, int line) {
  return Key(kOrderLineTable, {{U(w), kWPad},
                               {U(d), kDPad},
                               {U(o), kOPad},
                               {U(line), kLPad}});
}

std::string StockKey(int w, int i) {
  return Key(kStockTable, {{U(w), kWPad}, {U(i), kIPad}});
}

std::string ItemKey(int i) { return Key(kItemTable, {{U(i), kIPad}}); }

std::string NewOrderPrefix(int w, int d) {
  return Key(kNewOrderTable, {{U(w), kWPad}, {U(d), kDPad}});
}

std::string OrderLinePrefix(int w, int d, long long o) {
  return Key(kOrderLineTable, {{U(w), kWPad}, {U(d), kDPad}, {U(o), kOPad}});
}

std::optional<int> OrderIdOfNewOrderKey(std::string_view key) {
  // NEWORDER SEP w SEP d SEP o SEP: the order id is the last of three
  // attributes.
  if (std::count(key.begin(), key.end(), kCompositeKeySep) != 4 ||
      key.back() != kCompositeKeySep) {
    return std::nullopt;
  }
  key.remove_suffix(1);
  key.remove_prefix(key.rfind(kCompositeKeySep) + 1);
  int o = 0;
  auto [end, ec] = std::from_chars(key.data(), key.data() + key.size(), o);
  if (ec != std::errc() || end != key.data() + key.size()) return std::nullopt;
  return o;
}

std::string TableForKey(const std::string& key) {
  return CompositeKeyObjectType(key);
}

// Synthetic catalogue values: arbitrary but fixed functions of the id,
// so every peer (and every re-run) bootstraps identical world state
// without consuming randomness.
int ItemPriceCents(int i) { return 100 + (i * 37) % 9901; }

int WarehouseTaxBp(int w) { return (w * 731) % 2001; }

int DistrictTaxBp(int w, int d) { return (w * 731 + d * 137) % 2001; }

int InitialStockQuantity(int w, int i) { return 10 + (w * 13 + i * 7) % 91; }

}  // namespace tpcc
}  // namespace fabricsim
