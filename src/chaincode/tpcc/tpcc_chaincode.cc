#include "src/chaincode/tpcc/tpcc_chaincode.h"

#include <algorithm>
#include <charconv>
#include <string>

#include "src/chaincode/composite_key.h"
#include "src/chaincode/tpcc/tpcc_rows.h"
#include "src/common/strings.h"

namespace fabricsim {

using tpcc::CustomerKey;
using tpcc::CustomerRow;
using tpcc::DistrictKey;
using tpcc::DistrictRow;
using tpcc::ItemKey;
using tpcc::ItemRow;
using tpcc::NewOrderKey;
using tpcc::NewOrderRow;
using tpcc::OrderKey;
using tpcc::OrderLineKey;
using tpcc::OrderLineRow;
using tpcc::OrderRow;
using tpcc::StockKey;
using tpcc::StockRow;
using tpcc::WarehouseKey;
using tpcc::WarehouseRow;

namespace {

/// Parses args[index] of `function` as a whole decimal integer of T's
/// range. A malformed argument is refused with InvalidArgument naming
/// the function and the argument index, never thrown.
template <typename T>
Status ParseArg(const char* function, const std::vector<std::string>& args,
                size_t index, T* out) {
  const std::string& text = args[index];
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  if (ec != std::errc() || ptr != end) {
    return Status::InvalidArgument(
        StrFormat("%s: argument %zu is not an integer: \"%s\"", function,
                  index, text.c_str()));
  }
  return Status::OK();
}

/// ParseArg over args[0], args[1], ... into `out...`, stopping at the
/// first malformed one. The caller has checked args.size().
template <typename... T>
Status ParseArgs(const char* function, const std::vector<std::string>& args,
                 T*... out) {
  Status status;
  size_t index = 0;
  (void)((status = ParseArg(function, args, index++, out)).ok() && ...);
  return status;
}

/// The refusal of an argument whose value would overflow a row field
/// it is added to or subtracted from.
Status OverflowError(const char* function, const std::string& arg) {
  return Status::InvalidArgument(
      StrFormat("%s: %s overflows the row it updates", function, arg.c_str()));
}

}  // namespace

TpccChaincode::TpccChaincode(TpccConfig config) : config_(config) {}

std::vector<WriteItem> TpccChaincode::BootstrapState() const {
  std::vector<WriteItem> writes;
  for (int i = 0; i < config_.items; ++i) {
    writes.push_back(WriteItem{
        ItemKey(i), ItemRow{tpcc::ItemPriceCents(i)}.Encode(), false});
  }
  for (int w = 0; w < config_.warehouses; ++w) {
    writes.push_back(WriteItem{
        WarehouseKey(w), WarehouseRow{tpcc::WarehouseTaxBp(w), 0}.Encode(),
        false});
    for (int d = 0; d < config_.districts_per_warehouse; ++d) {
      writes.push_back(WriteItem{
          DistrictKey(w, d),
          DistrictRow{tpcc::DistrictTaxBp(w, d), 0, 0}.Encode(), false});
      for (int c = 0; c < config_.customers_per_district; ++c) {
        writes.push_back(
            WriteItem{CustomerKey(w, d, c), CustomerRow{}.Encode(), false});
      }
    }
    for (int i = 0; i < config_.items; ++i) {
      writes.push_back(WriteItem{
          StockKey(w, i),
          StockRow{tpcc::InitialStockQuantity(w, i), 0, 0}.Encode(), false});
    }
  }
  return writes;
}

std::vector<std::string> TpccChaincode::Functions() const {
  return {"NewOrder", "Payment", "Delivery", "OrderStatus", "StockLevel"};
}

Status TpccChaincode::Invoke(ChaincodeStub& stub, const Invocation& inv) {
  if (inv.function == "NewOrder") return NewOrder(stub, inv.args);
  if (inv.function == "Payment") return Payment(stub, inv.args);
  if (inv.function == "Delivery") return Delivery(stub, inv.args);
  if (inv.function == "OrderStatus") return OrderStatus(stub, inv.args);
  if (inv.function == "StockLevel") return StockLevel(stub, inv.args);
  return Status::InvalidArgument("tpcc: unknown function " + inv.function);
}

// args: w, d, c, n, then n (item, quantity) pairs.
Status TpccChaincode::NewOrder(ChaincodeStub& stub,
                               const std::vector<std::string>& args) {
  if (args.size() < 4) {
    return Status::InvalidArgument("NewOrder: expected at least 4 args");
  }
  int w = 0, d = 0, c = 0, n = 0;
  FABRICSIM_RETURN_NOT_OK(ParseArgs("NewOrder", args, &w, &d, &c, &n));
  if (n < 1 || args.size() < 4 + 2 * static_cast<size_t>(n)) {
    return Status::InvalidArgument("NewOrder: expected " +
                                   std::to_string(4 + 2LL * std::max(n, 1)) +
                                   " args");
  }
  std::vector<int> items(n);
  std::vector<int> qtys(n);
  for (int l = 0; l < n; ++l) {
    FABRICSIM_RETURN_NOT_OK(ParseArg("NewOrder", args, 4 + 2 * l, &items[l]));
    FABRICSIM_RETURN_NOT_OK(ParseArg("NewOrder", args, 5 + 2 * l, &qtys[l]));
  }

  // Item reads come first (TPC-C §2.4.2.3: the 1% invalid-item
  // transaction performs its reads, then rolls back). The error status
  // fails endorsement, so none of the writes below reach the orderer —
  // the simulator's application-level rollback.
  std::vector<int> prices(n);
  for (int l = 0; l < n; ++l) {
    std::optional<std::string> doc = stub.GetState(ItemKey(items[l]));
    if (!doc.has_value()) {
      return Status::NotFound(StrFormat(
          "NewOrder: item %d does not exist; transaction rolled back",
          items[l]));
    }
    Result<ItemRow> item = ItemRow::Parse(*doc);
    if (!item.ok()) return item.status();
    prices[l] = item.value().price;
  }

  std::optional<std::string> wh = stub.GetState(WarehouseKey(w));
  std::optional<std::string> dist_doc = stub.GetState(DistrictKey(w, d));
  if (!wh.has_value() || !dist_doc.has_value()) {
    return Status::NotFound(StrFormat("NewOrder: warehouse %d / district %d "
                                      "not bootstrapped", w, d));
  }
  Result<DistrictRow> dist = DistrictRow::Parse(*dist_doc);
  if (!dist.ok()) return dist.status();
  // The district row is the hotspot: o_id comes from the committed
  // d_next_o_id (never from per-client state, so every endorser derives
  // the same id), and writing it back incremented makes the row a
  // sequence counter that every concurrent NewOrder in this district
  // conflicts on.
  long long o_id = dist.value().next_o_id;
  ++dist.value().next_o_id;
  stub.PutState(DistrictKey(w, d), dist.value().Encode());
  if (!stub.GetState(CustomerKey(w, d, c)).has_value()) {
    return Status::NotFound(StrFormat("NewOrder: no customer %d", c));
  }

  int o = static_cast<int>(o_id);
  stub.PutState(OrderKey(w, d, o), OrderRow{c, n, ""}.Encode());
  stub.PutState(NewOrderKey(w, d, o), NewOrderRow{}.Encode());
  for (int l = 0; l < n; ++l) {
    int item = items[l];
    int qty = qtys[l];
    // An absent stock row reads as zeros.
    StockRow stock;
    if (std::optional<std::string> doc = stub.GetState(StockKey(w, item))) {
      Result<StockRow> parsed = StockRow::Parse(*doc);
      if (!parsed.ok()) return parsed.status();
      stock = parsed.value();
    }
    // TPC-C §2.4.2.2: restock by 91 when the shelf would drop below 10.
    long long left = 0;
    long long ytd = 0;
    if (__builtin_sub_overflow(stock.quantity, qty, &left) ||
        (left < 10 && __builtin_add_overflow(left, 91, &left)) ||
        __builtin_add_overflow(stock.ytd, qty, &ytd)) {
      return OverflowError("NewOrder", StrFormat("quantity %d", l));
    }
    stock.quantity = left;
    stock.ytd = ytd;
    ++stock.order_cnt;
    stub.PutState(StockKey(w, item), stock.Encode());
    stub.PutState(OrderLineKey(w, d, o, l),
                  OrderLineRow{item, qty, 1LL * qty * prices[l]}.Encode());
  }
  return Status::OK();
}

// args: w, d, c, amount_cents.
Status TpccChaincode::Payment(ChaincodeStub& stub,
                              const std::vector<std::string>& args) {
  if (args.size() < 4) {
    return Status::InvalidArgument("Payment: expected 4 args");
  }
  int w = 0, d = 0, c = 0;
  long long amount = 0;
  FABRICSIM_RETURN_NOT_OK(ParseArgs("Payment", args, &w, &d, &c, &amount));

  std::optional<std::string> wh = stub.GetState(WarehouseKey(w));
  std::optional<std::string> dist_doc = stub.GetState(DistrictKey(w, d));
  std::optional<std::string> cust_doc = stub.GetState(CustomerKey(w, d, c));
  if (!wh.has_value() || !dist_doc.has_value() || !cust_doc.has_value()) {
    return Status::NotFound(
        StrFormat("Payment: missing row for w=%d d=%d c=%d", w, d, c));
  }
  Result<DistrictRow> dist = DistrictRow::Parse(*dist_doc);
  if (!dist.ok()) return dist.status();
  Result<CustomerRow> cust = CustomerRow::Parse(*cust_doc);
  if (!cust.ok()) return cust.status();
  // Port decision: the warehouse row stays immutable (tax only) and
  // ytd accounting lives entirely in the district row (w_ytd is the
  // sum of its districts' d_ytd, derivable at read time). Accumulating
  // w_ytd on the one warehouse row would serialize every Payment in
  // the warehouse AND kill every NewOrder that read w_tax — the
  // classic Fabric hot-row anti-pattern, and it would bury the
  // district signal Klenik & Kocsis's analysis attributes the
  // conflicts to. Payment therefore writes the same district row
  // NewOrder sequences on, doubling down on the district hotspot.
  CustomerRow& customer = cust.value();
  long long d_ytd = 0;
  long long balance = 0;
  long long ytd_payment = 0;
  if (__builtin_add_overflow(dist.value().ytd, amount, &d_ytd) ||
      __builtin_sub_overflow(customer.balance, amount, &balance) ||
      __builtin_add_overflow(customer.ytd_payment, amount, &ytd_payment)) {
    return OverflowError("Payment", "amount");
  }
  dist.value().ytd = d_ytd;
  stub.PutState(DistrictKey(w, d), dist.value().Encode());
  customer.balance = balance;
  customer.ytd_payment = ytd_payment;
  ++customer.payments;
  stub.PutState(CustomerKey(w, d, c), customer.Encode());
  return Status::OK();
}

// args: w, d, carrier id.
Status TpccChaincode::Delivery(ChaincodeStub& stub,
                               const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Status::InvalidArgument("Delivery: expected 3 args");
  }
  int w = 0, d = 0;
  FABRICSIM_RETURN_NOT_OK(ParseArgs("Delivery", args, &w, &d));
  const std::string& carrier = args[2];

  // Phantom-checked scan of the district's NEWORDER backlog: a
  // concurrent NewOrder committing into this range between endorsement
  // and validation fails this transaction with PHANTOM_READ_CONFLICT.
  auto [start, end] = CompositeKeyPrefixRange(tpcc::NewOrderPrefix(w, d));
  std::vector<StateEntry> backlog =
      stub.GetStateByRange(std::move(start), std::move(end));
  int delivered = 0;
  for (StateEntry& entry : backlog) {
    if (delivered >= kDeliveryBatch) break;
    std::optional<int> o = tpcc::OrderIdOfNewOrderKey(entry.key);
    if (!o.has_value()) continue;
    stub.DelState(std::move(entry.key));
    std::optional<std::string> order_doc = stub.GetState(OrderKey(w, d, *o));
    if (!order_doc.has_value()) continue;
    Result<OrderRow> order = OrderRow::Parse(*order_doc);
    if (!order.ok()) return order.status();
    int c = order.value().c_id;
    int ol_cnt = order.value().ol_cnt;
    order.value().carrier = carrier;
    stub.PutState(OrderKey(w, d, *o), order.value().Encode());
    if (std::optional<std::string> cust_doc =
            stub.GetState(CustomerKey(w, d, c))) {
      Result<CustomerRow> cust = CustomerRow::Parse(*cust_doc);
      if (!cust.ok()) return cust.status();
      // Flat per-line credit instead of re-scanning the order lines:
      // keeps Delivery's footprint O(batch) rather than O(batch x
      // lines) while still writing the customer row TPC-C requires.
      cust.value().balance += 500LL * ol_cnt;
      stub.PutState(CustomerKey(w, d, c), cust.value().Encode());
    }
    ++delivered;
  }
  return Status::OK();
}

// args: w, d, c, o (the generator's optimistic guess of a recent
// order; a stale guess still records the read dependency).
Status TpccChaincode::OrderStatus(ChaincodeStub& stub,
                                  const std::vector<std::string>& args) {
  if (args.size() < 4) {
    return Status::InvalidArgument("OrderStatus: expected 4 args");
  }
  int w = 0, d = 0, c = 0, o = 0;
  FABRICSIM_RETURN_NOT_OK(ParseArgs("OrderStatus", args, &w, &d, &c, &o));
  stub.GetState(CustomerKey(w, d, c));
  stub.GetState(OrderKey(w, d, o));
  auto [start, end] =
      CompositeKeyPrefixRange(tpcc::OrderLinePrefix(w, d, o));
  stub.GetStateByRange(std::move(start), std::move(end));
  return Status::OK();
}

// args: w, d, threshold.
Status TpccChaincode::StockLevel(ChaincodeStub& stub,
                                 const std::vector<std::string>& args) {
  if (args.size() < 3) {
    return Status::InvalidArgument("StockLevel: expected 3 args");
  }
  int w = 0, d = 0;
  long long threshold = 0;
  FABRICSIM_RETURN_NOT_OK(ParseArgs("StockLevel", args, &w, &d, &threshold));

  // Read-only, yet it reads the district sequence row — so it cannot
  // write-conflict with anything but still dies of MVCC_READ_CONFLICT
  // whenever a NewOrder/Payment for the district commits first. This
  // is the paper's "read-only transactions are not safe" observation.
  std::optional<std::string> dist_doc = stub.GetState(DistrictKey(w, d));
  if (!dist_doc.has_value()) {
    return Status::NotFound(StrFormat("StockLevel: no district %d/%d", w, d));
  }
  Result<DistrictRow> dist = DistrictRow::Parse(*dist_doc);
  if (!dist.ok()) return dist.status();
  long long next_o = dist.value().next_o_id;
  long long lo = std::max(0LL, next_o - 10);
  // Order-line keys sort by (w, d, o, line), so the last-10-orders
  // window is one contiguous range: [prefix(w,d,lo), prefix(w,d,next)).
  std::vector<StateEntry> lines =
      stub.GetStateByRange(tpcc::OrderLinePrefix(w, d, lo),
                           tpcc::OrderLinePrefix(w, d, next_o));
  // Distinct items in ascending order, as the stock reads below visit
  // them.
  std::vector<int> items;
  for (const StateEntry& line : lines) {
    if (items.size() >= 20) break;  // bounded footprint
    Result<OrderLineRow> row = OrderLineRow::Parse(line.vv.value);
    if (!row.ok()) return row.status();
    auto at = std::lower_bound(items.begin(), items.end(), row.value().i_id);
    if (at == items.end() || *at != row.value().i_id) {
      items.insert(at, row.value().i_id);
    }
  }
  long long low = 0;
  for (int item : items) {
    std::optional<std::string> doc = stub.GetState(StockKey(w, item));
    if (!doc.has_value()) continue;
    Result<StockRow> stock = StockRow::Parse(*doc);
    if (!stock.ok()) return stock.status();
    if (stock.value().quantity < threshold) ++low;
  }
  (void)low;  // the count is the client's answer; only the reads matter here
  return Status::OK();
}

}  // namespace fabricsim
