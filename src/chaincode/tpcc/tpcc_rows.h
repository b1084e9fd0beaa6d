#ifndef FABRICSIM_CHAINCODE_TPCC_TPCC_ROWS_H_
#define FABRICSIM_CHAINCODE_TPCC_TPCC_ROWS_H_

#include <string>
#include <string_view>

#include "src/chaincode/tpcc/tpcc_schema.h"
#include "src/common/status.h"

namespace fabricsim {
namespace tpcc {

/// Typed TPC-C rows. Each row is stored as a flat JSON document of
/// string fields, led by its docType:
///   {"docType":"district","tax_bp":"7","ytd":"0","next_o_id":"12"}
/// which is what CouchDB rich queries select on (after Klenik & Kocsis,
/// who keep TPC-C rows as JSON documents on Fabric). The value bytes
/// are simulated data: they feed rw-set digests, byte sizes, network
/// delays and chain hashes, so the layout never changes by one byte —
/// fields in the order Fields() lists them, integers as std::to_string
/// prints them, strings verbatim.
///
/// Encode() writes the document in one allocation of exactly its size.
/// Parse() reads it in one forward scan and accepts exactly the layout
/// Encode() writes; anything else is an Internal error naming the
/// table. Parse(Encode(row)) == row for every row whose string fields
/// hold no '"'.
///
/// Fields(row, f) calls f(name, field) once per field, in document
/// order; it is the one place a row's layout is written down.

struct WarehouseRow {
  static constexpr const char* kTable = kWarehouseTable;
  static constexpr std::string_view kDocType = "warehouse";
  int tax_bp = 0;
  long long ytd = 0;

  template <typename Row, typename F>
  static void Fields(Row& row, F&& f) {
    f("tax_bp", row.tax_bp);
    f("ytd", row.ytd);
  }
  static Result<WarehouseRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const WarehouseRow&) const = default;
};

struct DistrictRow {
  static constexpr const char* kTable = kDistrictTable;
  static constexpr std::string_view kDocType = "district";
  int tax_bp = 0;
  long long ytd = 0;
  long long next_o_id = 0;

  template <typename Row, typename F>
  static void Fields(Row& row, F&& f) {
    f("tax_bp", row.tax_bp);
    f("ytd", row.ytd);
    f("next_o_id", row.next_o_id);
  }
  static Result<DistrictRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const DistrictRow&) const = default;
};

struct CustomerRow {
  static constexpr const char* kTable = kCustomerTable;
  static constexpr std::string_view kDocType = "customer";
  long long balance = 0;  ///< cents; negative once payments exceed credits
  long long ytd_payment = 0;
  long long payments = 0;

  template <typename Row, typename F>
  static void Fields(Row& row, F&& f) {
    f("balance", row.balance);
    f("ytd_payment", row.ytd_payment);
    f("payments", row.payments);
  }
  static Result<CustomerRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const CustomerRow&) const = default;
};

struct OrderRow {
  static constexpr const char* kTable = kOrderTable;
  static constexpr std::string_view kDocType = "order";
  int c_id = 0;
  int ol_cnt = 0;
  std::string carrier;  ///< "" until Delivery assigns one

  template <typename Row, typename F>
  static void Fields(Row& row, F&& f) {
    f("c_id", row.c_id);
    f("ol_cnt", row.ol_cnt);
    f("carrier", row.carrier);
  }
  static Result<OrderRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const OrderRow&) const = default;
};

struct NewOrderRow {
  static constexpr const char* kTable = kNewOrderTable;
  static constexpr std::string_view kDocType = "neworder";

  template <typename Row, typename F>
  static void Fields(Row&, F&&) {}
  static Result<NewOrderRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const NewOrderRow&) const = default;
};

struct OrderLineRow {
  static constexpr const char* kTable = kOrderLineTable;
  static constexpr std::string_view kDocType = "orderline";
  int i_id = 0;
  int qty = 0;
  long long amount = 0;  ///< cents

  template <typename Row, typename F>
  static void Fields(Row& row, F&& f) {
    f("i_id", row.i_id);
    f("qty", row.qty);
    f("amount", row.amount);
  }
  static Result<OrderLineRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const OrderLineRow&) const = default;
};

struct StockRow {
  static constexpr const char* kTable = kStockTable;
  static constexpr std::string_view kDocType = "stock";
  long long quantity = 0;
  long long ytd = 0;
  long long order_cnt = 0;

  template <typename Row, typename F>
  static void Fields(Row& row, F&& f) {
    f("quantity", row.quantity);
    f("ytd", row.ytd);
    f("order_cnt", row.order_cnt);
  }
  static Result<StockRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const StockRow&) const = default;
};

struct ItemRow {
  static constexpr const char* kTable = kItemTable;
  static constexpr std::string_view kDocType = "item";
  int price = 0;  ///< cents

  template <typename Row, typename F>
  static void Fields(Row& row, F&& f) {
    f("price", row.price);
  }
  static Result<ItemRow> Parse(std::string_view doc);
  std::string Encode() const;
  bool operator==(const ItemRow&) const = default;
};

}  // namespace tpcc
}  // namespace fabricsim

#endif  // FABRICSIM_CHAINCODE_TPCC_TPCC_ROWS_H_
