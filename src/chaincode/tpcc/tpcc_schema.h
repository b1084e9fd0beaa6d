#ifndef FABRICSIM_CHAINCODE_TPCC_TPCC_SCHEMA_H_
#define FABRICSIM_CHAINCODE_TPCC_TPCC_SCHEMA_H_

#include <optional>
#include <string>
#include <string_view>

#include "src/workload/workload_spec.h"

namespace fabricsim {
namespace tpcc {

/// Composite-key layout of the TPC-C entities. Every table is one
/// object type; numeric attributes are zero-padded so lexicographic
/// key order equals (warehouse, district, order, line) tuple order and
/// partial-composite range scans enumerate exactly one subtree.
/// Every builder returns the bytes MakeCompositeKey(table,
/// {PadKey(id, width), ...}) would, in one allocation of exactly the
/// key's size.
///
/// Conflict topology (the reason this schema exists): NewOrder reads
/// AND writes its district row (d_next_o_id), Payment reads AND writes
/// the same row (d_ytd), and StockLevel reads it (d_next_o_id) — so
/// 88%+ of the standard mix funnels through warehouses x 10 district
/// rows. That concentration is the MVCC hotspot Klenik & Kocsis
/// measured on real Fabric, and what bench_tpcc reproduces.
inline constexpr char kWarehouseTable[] = "WAREHOUSE";
inline constexpr char kDistrictTable[] = "DISTRICT";
inline constexpr char kCustomerTable[] = "CUSTOMER";
inline constexpr char kOrderTable[] = "ORDER";
inline constexpr char kNewOrderTable[] = "NEWORDER";
inline constexpr char kOrderLineTable[] = "ORDERLINE";
inline constexpr char kStockTable[] = "STOCK";
inline constexpr char kItemTable[] = "ITEM";

std::string WarehouseKey(int w);
std::string DistrictKey(int w, int d);
std::string CustomerKey(int w, int d, int c);
std::string OrderKey(int w, int d, int o);
std::string NewOrderKey(int w, int d, int o);
std::string OrderLineKey(int w, int d, int o, int line);
std::string StockKey(int w, int i);
std::string ItemKey(int i);

/// Leading attributes of a key, ending in the separator, for prefix
/// scans: every NEWORDER key of district (w, d), and every ORDERLINE
/// key of order o. CompositeKeyPrefixRange() turns one into a range.
std::string NewOrderPrefix(int w, int d);
std::string OrderLinePrefix(int w, int d, long long o);

/// The order id of a NewOrderKey(); nullopt for any other key shape.
std::optional<int> OrderIdOfNewOrderKey(std::string_view key);

/// Table (object type) a state key belongs to, or "" for keys outside
/// the TPC-C schema — the classifier behind per-entity failure
/// attribution: "which table's keys conflict?".
std::string TableForKey(const std::string& key);

/// Deterministic synthetic field values (no RNG at bootstrap: every
/// peer replica must bootstrap byte-identically).
int ItemPriceCents(int i);
int WarehouseTaxBp(int w);     ///< basis points
int DistrictTaxBp(int w, int d);
int InitialStockQuantity(int w, int i);

}  // namespace tpcc
}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_TPCC_TPCC_SCHEMA_H_
